"""The benchmark in ``perfbench/`` reaches into the package by name.

``tracing.py`` wraps every function listed in ``LAYER_FUNCS`` and
``checks.py`` rebuilds the reduced and stratum programs from public
building blocks to re-solve them with HiGHS. Renaming or reshaping any of
those would break the benchmark silently, so it is pinned here.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rulebounds import lp_bounds
from rulebounds.strategies import StrategyRequest, conditioning_bounds, reduction_bounds

from conftest import feasible_table, small_iv_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layer_functions_exist():
    tracing = load_perfbench("tracing")
    for layer, names in tracing.LAYER_FUNCS.items():
        module = importlib.import_module(f"rulebounds.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"rulebounds.{layer}.{name}"


def test_traced_loader_returns_records_and_info(tmp_path):
    # tracing.py counts loaded rows as load_records(...)[0].shape[0], on plain and csv.reader files
    from rulebounds.io import load_config, load_records

    config = load_config(str(PERFBENCH.parent / "configs" / "example.json"))
    plain = tmp_path / "plain.csv"
    plain.write_text("z,x,a,y\n0,1,0,1\n1,2,1,0\n")
    for path in (PERFBENCH.parent / "data" / "example_observed.csv", plain):
        records, info = load_records(str(path), config)
        assert records.ndim == 2 and records.shape[0] == info["n_records"] > 0


def test_benchmark_programs_match_the_strategies():
    checks = load_perfbench("checks")
    model = small_iv_model(x_card=3, treat_card=2)
    observed = feasible_table(np.random.default_rng(5), model, zero_stratum=False)
    request = StrategyRequest(model, observed, "theta_f")

    red = reduction_bounds(request)
    ref = checks.scipy_lp_bounds(checks.reduced_lp(model, observed, "theta_f"))
    assert checks.interval_close((red.lower, red.upper), ref)

    strata = conditioning_bounds(request).diagnostics["strata"]
    assert len(strata) == 3
    for s, x in zip(strata, model.rule_domain()):
        mass, lp = checks.stratum_lp(model, observed, "theta_f", x)
        assert s["weight"] == pytest.approx(mass, abs=1e-12)
        assert checks.interval_close((s["lower"], s["upper"]), checks.scipy_lp_bounds(lp))


def test_benchmark_programs_match_the_strategies_with_a_guideline():
    # stratum programs take the rule's and the guideline's levels as ints; the reduced
    # program keeps the guideline's recommendation as its own observed variable
    checks = load_perfbench("checks")
    model = small_iv_model(x_card=3, treat_card=2, guideline_map={(0,): 1, (1,): 1, (2,): 0})
    observed = feasible_table(np.random.default_rng(7), model, zero_stratum=False)
    request = StrategyRequest(model, observed, "cu")

    red = reduction_bounds(request)
    lp = checks.reduced_lp(model, observed, "cu")
    assert lp.space.shape.guideline_mode == "separate"
    assert checks.interval_close((red.lower, red.upper), checks.scipy_lp_bounds(lp))

    strata = conditioning_bounds(request).diagnostics["strata"]
    assert len(strata) == 3
    for s, x in zip(strata, model.rule_domain()):
        mass, lp = checks.stratum_lp(model, observed, "cu", x)
        assert (s["level"], s["guideline_level"]) == (model.rule.level_for(x), model.guideline.level_for(x))
        assert s["weight"] == pytest.approx(mass, abs=1e-12)
        assert checks.interval_close((s["lower"], s["upper"]), checks.scipy_lp_bounds(lp))


def test_benchmark_skips_a_zero_mass_stratum():
    # condition() returns (None, 0.0) for a zero-mass event; stratum_lp must not touch the table
    checks = load_perfbench("checks")
    model = small_iv_model(x_card=3, treat_card=2)
    observed = feasible_table(np.random.default_rng(5), model, zero_stratum=True)
    results = [checks.stratum_lp(model, observed, "theta_f", x) for x in model.rule_domain()]
    assert [r for r in results if r[1] is None] == [(0.0, None)]


def test_reference_programs_keep_their_per_class_arrays():
    # checks.scipy_lp_bounds re-solves the unmerged program from LpProblem.cells and .objective,
    # and tracing.py wraps class_cells, which builds those cells
    checks = load_perfbench("checks")
    model = small_iv_model(x_card=3, treat_card=3, guideline_map={(0,): 1, (1,): 2, (2,): 0})
    observed = feasible_table(np.random.default_rng(9), model, zero_stratum=False)
    reduced = checks.reduced_lp(model, observed, "cu")
    assert reduced.space.class_count == 52_488  # the study's shape with a guideline over all three levels
    _, stratum = checks.stratum_lp(model, observed, "cu", (1,))
    for lp in (reduced, stratum):
        assert lp.cells.shape == (lp.n_arms, lp.space.class_count)
        assert lp.objective.shape == (lp.space.class_count,)
    assert callable(lp_bounds.class_cells)
