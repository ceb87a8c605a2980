"""Stratum programs with all-zero costs: one warm feasibility check in place of the cold bound pair.

Under ``cu``, a stratum where the rule and the guideline assign one level
has ``f - g = 0`` on every response profile, so both endpoints are 0.0 and
only the table's feasibility is in question. Its record holds a one-sided
``simplex.WarmStart``, and every row is re-solved from it. The cold
reference here is the same code with every record's warm start removed.
Each outcome must be ``==`` to the cold one: ``conditioning_bounds``'s
report, or its exception's type, text, ``worst_constraint`` and
``violation``; each row's endpoints and infeasibility certificate. HiGHS
must agree on feasibility, and the endpoints must be ``0.0``, never ``-0.0``.

Also here: strata and records keyed only on the levels their query reads,
``solve_block``'s check of its block, and the determinism of studies that
meet zero-cost strata.
"""

import json
import math
import re
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulebounds.cli import main as cli_main
from rulebounds.lp_bounds import ResponseTypeSpace, _space, enumerate_response_types, solve_block
from rulebounds.model import CausalModel, SpaceShape, TreatmentRule, VariableSpec, stratum_shape
from rulebounds.simplex import minimize_pair
from rulebounds.simulation import SimConfig, run_study
from rulebounds.strategies import StrategyRequest, conditioning_bounds
from rulebounds.tables import JointTable

from conftest import feasible_table
from test_lp_bounds import CROSSCHECK_SHAPES, queries_with_levels
from test_strata_blocks import assert_same, outcome, per_stratum_conditioning
from test_warm_start import TABLES, highs_pair, program

# every stratum treatment arity the cross-checks use, with and without an instrument
STRATUM_SHAPES = [
    SpaceShape("stratum", k, z) for k in sorted({s.treat_card for s in CROSSCHECK_SHAPES if s.kind == "stratum"})
    for z in (0, 2)
]


@contextmanager
def cold_programs():
    """Every program record read without its warm start, so each pair is solved cold."""
    program_of = ResponseTypeSpace.program
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ResponseTypeSpace, "program", lambda self, *args: program_of(self, *args)[:3] + (None,))
        yield


def positive_zero(value) -> bool:
    return value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("shape", STRATUM_SHAPES)
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    level=st.integers(0, 2),
    kinds=st.lists(st.sampled_from(TABLES), min_size=1, max_size=4),
)
def test_zero_cost_rows_equal_the_cold_pair_and_highs(shape, seed, level, kinds):
    level %= shape.treat_card
    query_index = queries_with_levels(shape).index(("cu", {"level": level, "guideline_level": level}))
    b = np.array([program(shape, query_index, seed + i, kind)[4] for i, kind in enumerate(kinds)])
    A, c_min, c_max, start = enumerate_response_types(shape).program("cu", level, level)
    assert not (c_min.any() or c_max.any())
    assert len(start.sides) == 1
    got = solve_block(shape, "cu", level, level, b)
    for i, row in enumerate(b):
        lo, hi = minimize_pair(c_min, c_max, A, row)
        feasible = highs_pair(c_min, c_max, A, row) is not None
        if lo.status == "infeasible":
            assert not feasible
            assert got.infeasible == (i, lo.violation_row, lo.violation_total)
            assert got.lower.size == got.upper.size == i
            break
        assert feasible
        assert (got.lower[i], got.upper[i]) == (lo.value, hi.value)
        assert positive_zero(got.lower[i]) and positive_zero(got.upper[i])
        warm_lo, warm_hi = minimize_pair(c_min, c_max, A, row, start=start)
        assert positive_zero(warm_lo.value) and positive_zero(warm_hi.value)
        if warm_lo.solve == "warm":  # pivots are counted once, on the lower side
            assert warm_hi.iterations == 0 and np.abs(A @ warm_lo.x - row).max() <= 1e-9
    else:
        assert got.infeasible is None and got.lower.size == len(b)


def test_pivot_cap_sends_a_zero_cost_pair_cold():
    shape = SpaceShape("stratum", 3, 2)
    A, c_min, c_max, start = enumerate_response_types(shape).program("cu", 1, 1)
    query_index = queries_with_levels(shape).index(("cu", {"level": 1, "guideline_level": 1}))
    capped = 0
    for seed in range(8):
        b = program(shape, query_index, seed, "feasible")[4]
        warm_lo, _ = minimize_pair(c_min, c_max, A, b, start=start)
        cold_lo, cold_hi = minimize_pair(c_min, c_max, A, b)
        for cap in range(warm_lo.iterations):
            capped += 1
            lo, hi = minimize_pair(c_min, c_max, A, b, start=replace(start, max_pivots=cap))
            assert lo.solve == hi.solve == "cold"
            assert (lo.value, hi.value) == (cold_lo.value, cold_hi.value)
            # the capped dual pivots are counted once, on the lower side, before the cold pair's
            assert (lo.iterations, hi.iterations) == (cold_lo.iterations + cap, cold_hi.iterations)
    assert capped > 0


def agreeing_model(rng, shape, x_card):
    """A model over ``shape``'s treatment and instrument whose guideline agrees with the rule at x=0, and maybe
    elsewhere."""
    k = shape.treat_card
    variables = (VariableSpec("x", x_card, "rule_covariate"),)
    variables += (VariableSpec("z", 2, "instrument"),) if shape.instrument_card else ()
    variables += (VariableSpec("a", k, "treatment"), VariableSpec("y", 2, "outcome"))
    rule = rng.integers(k, size=x_card)
    guideline = np.where(rng.random(x_card) < 0.5, rule, rng.integers(k, size=x_card))
    guideline[0] = rule[0]
    return CausalModel(
        variables,
        TreatmentRule.from_table({(x,): int(rule[x]) for x in range(x_card)}, name="f"),
        TreatmentRule.from_table({(x,): int(guideline[x]) for x in range(x_card)}, name="g"),
    )


@pytest.mark.parametrize("shape", STRATUM_SHAPES)
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(TABLES + ("zero_mass",)), min_size=2, max_size=5),
)
def test_conditioning_with_agreeing_strata_equals_the_cold_path(shape, seed, kinds):
    # strata of every table kind: feasible, degenerate (three classes), infeasible, an empty arm and no mass
    rng = np.random.default_rng(seed)
    model = agreeing_model(rng, shape, len(kinds))
    space = enumerate_response_types(shape)
    probs = np.zeros((len(kinds), space.n_arms, space.n_cells))
    arm_mass = rng.dirichlet(np.ones(space.n_arms))
    for x, kind in enumerate(kinds):
        if kind != "zero_mass":
            rhs = program(shape, 0, seed + x, "feasible" if kind == "zero_arm" else kind)[0].rhs
            probs[x] = rng.uniform(0.1, 1.0) * arm_mass[:, np.newaxis] * rhs
        if kind == "zero_arm" and shape.instrument_card:
            probs[x, rng.integers(2)] = 0.0
    if not probs.any():
        probs[0] = arm_mass[:, np.newaxis] / space.n_cells
    table = JointTable(model.variables, (probs / probs.sum()).reshape([v.cardinality for v in model.variables]))
    request = StrategyRequest(model, table, "cu")
    got = assert_same(request)
    with cold_programs():
        assert outcome(conditioning_bounds, request) == outcome(per_stratum_conditioning, request) == got
    if isinstance(got, dict):
        for s in got["diagnostics"]["strata"]:
            if s["level"] == s["guideline_level"] and not s["skipped"]:
                assert positive_zero(s["lower"]) and positive_zero(s["upper"])


@pytest.mark.parametrize(
    "query, records",
    [
        ("theta_f", {(f, None) for f in range(3)}),
        ("theta_g", {(None, g) for g in range(3)}),
        ("cu", {(x // 2, x % 3) for x in range(6)}),
    ],
)
def test_strata_are_keyed_on_the_levels_their_query_reads(rng, query, records):
    # rule 0,0,1,1,2,2 and guideline 0,1,2,0,1,2: three programs for one rule, six for cu
    rule = TreatmentRule.from_table({(x,): x // 2 for x in range(6)}, name="f")
    guideline = TreatmentRule.from_table({(x,): x % 3 for x in range(6)}, name="g")
    variables = (
        VariableSpec("x", 6, "rule_covariate"), VariableSpec("a", 3, "treatment"), VariableSpec("y", 2, "outcome")
    )
    model = CausalModel(variables, rule, guideline)
    request = StrategyRequest(model, feasible_table(rng, model, False), query)
    _space.cache_clear()
    got = assert_same(request)
    space = enumerate_response_types(stratum_shape(model))
    assert {key[1:] for key in space.records} == records and len(space.records) == len(records)
    reported = [(s["level"], s["guideline_level"]) for s in got["diagnostics"]["strata"]]
    assert reported == [(x // 2, x % 3) for x in range(6)]


def test_solve_block_checks_its_block():
    shape = SpaceShape("stratum", 3, 2)
    for bad in (np.empty((0, 5)), np.full((2, 5), 0.2), np.full(13, 1.0 / 6), np.full((1, 1, 13), 1.0 / 6)):
        with pytest.raises(ValueError, match=r"expected \(n_strata, 13\)"):
            solve_block(shape, "theta_f", 1, None, bad)
    # an empty block reports the path its record has: cold for costs that are not all zero, warm for zero costs
    assert solve_block(shape, "theta_f", 1, None, np.empty((0, 13))).solve == "cold"
    assert solve_block(shape, "cu", 1, 1, np.empty((0, 13))).solve == "warm"
    assert solve_block(shape, "cu", 1, 0, np.empty((0, 13))).solve == "cold"


def test_studies_meeting_zero_cost_strata_are_deterministic(tmp_path):
    # the default rule on 3 levels is 0,0,1: the guideline agrees with it at x=0 and x=2
    table = {0: 0, 1: 1, 2: 1}
    guideline = TreatmentRule.from_table({(x,): v for x, v in table.items()}, name="agrees_at_0_and_2")
    config = SimConfig(
        replications=25, master_seed=424242, card_covariate=3, card_treatment=2, query="cu", guideline=guideline
    )
    serial = run_study(config).to_dict()
    records = enumerate_response_types(SpaceShape("stratum", 2, 2)).records
    assert records[("cu", 0, 0)][3] is not None and records[("cu", 1, 1)][3] is not None
    parallel = run_study(replace(config, jobs=2)).to_dict()
    assert parallel["config"].pop("jobs") == 2 and serial["config"].pop("jobs") == 1
    assert parallel == serial

    sim_config = tmp_path / "sim.json"
    rule = {"name": guideline.name, "table": {str(x): v for x, v in table.items()}}
    sim_config.write_text(json.dumps({"card_covariate": 3, "card_treatment": 2, "guideline": rule}))
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        argv = ["simulate", "--config", str(sim_config), "--replications", "25", "--seed", "424242"]
        assert cli_main(argv + ["--query", "cu", "--output", str(out)]) == 0
        text, stamps = re.subn(rb'"generated_at": "[^"]*"', b"", out.read_bytes())
        assert stamps == 1
        reports.append(text)
    assert reports[0] == reports[1]
