"""End-to-end acceptance checks for the bounding toolkit.

Nine numbered criteria, one test and one printed verdict line each. The
lines bypass pytest's capture so they survive into piped output. The
10^4-replication simulation study is shared by the validity and width
checks through a session fixture; it dominates the suite's runtime.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rulebounds.cli import main as cli_main
from rulebounds.io import load_config, load_records
from rulebounds.lp_bounds import (
    SpaceShape,
    build_lp,
    direct_sharp_bounds,
    enumerate_response_types,
    solve_bounds,
)
from rulebounds.model import CausalModel, TreatmentRule, VariableSpec
from rulebounds.simulation import SimConfig, random_scm, run_study, true_policy_value
from rulebounds.strategies import StrategyRequest, conditioning_bounds, reduction_bounds
from rulebounds.tables import JointTable, empirical_joint, joint_from_scm, marginalize

from conftest import (
    binary_reduced_specs,
    closed_form_binary_reduction,
    manski_stratum_bounds,
    random_probs,
)

TOL = 1e-8
REPO_ROOT = Path(__file__).resolve().parents[1]


def announce(capsys, ok, number, title, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] acceptance {number}/9 {title}: {detail}"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


def draw_instance(index, *, x_card, treat_card, with_instrument, seed):
    """Ground-truth draw plus the analyst's model and exact observed table."""
    config = SimConfig(
        master_seed=seed,
        card_covariate=x_card,
        card_treatment=treat_card,
        rule=TreatmentRule.from_table(
            {(x,): x % treat_card for x in range(x_card)}, name="f"
        ),
    )
    scm = random_scm(config, index)
    variables = [
        VariableSpec("covariate", x_card, "rule_covariate"),
        VariableSpec("treatment", treat_card, "treatment"),
        VariableSpec("outcome", 2, "outcome"),
    ]
    if with_instrument:
        variables.insert(
            0, VariableSpec("instrument", config.card_instrument, "instrument")
        )
    observed = marginalize(joint_from_scm(scm), [v.name for v in variables])
    model = CausalModel(tuple(variables), config.rule)
    truth = true_policy_value(scm, config.rule)
    return model, observed, truth


def contains(outer, inner, tol=TOL):
    return inner.lower >= outer.lower - tol and inner.upper <= outer.upper + tol


# ---------------------------------------------------------------------------
# 1. closed-form equivalence on binary reduced tables


def test_1_binary_closed_form_matches_reduction_lp(capsys):
    rng = np.random.default_rng(20260824_01)
    specs = binary_reduced_specs()
    space = enumerate_response_types(SpaceShape("reduced", 2))
    worst = 0.0
    for _ in range(1000):
        table = JointTable(specs, random_probs(rng, (2, 2, 2)))
        lp = solve_bounds(build_lp(space, table, "theta_f"))
        cf = closed_form_binary_reduction(table)
        worst = max(worst, abs(lp.lower - cf.lower), abs(lp.upper - cf.upper))
    announce(
        capsys,
        worst <= TOL,
        1,
        "binary closed form vs reduction LP",
        f"max endpoint gap {worst:.2e} over 1000 tables (tol {TOL:.0e})",
    )


# ---------------------------------------------------------------------------
# 2. stratum LP equals the no-assumption closed form


def test_2_stratum_lp_matches_no_assumption_form(capsys):
    rng = np.random.default_rng(20260824_02)
    spaces = {k: enumerate_response_types(SpaceShape("stratum", k)) for k in (2, 3)}
    worst = 0.0
    for i in range(1000):
        k = 2 if i % 2 == 0 else 3
        specs = (
            VariableSpec("treatment", k, "treatment"),
            VariableSpec("outcome", 2, "outcome"),
        )
        table = JointTable(specs, random_probs(rng, (k, 2)))
        level = int(rng.integers(k))
        lp = solve_bounds(build_lp(spaces[k], table, "theta_f", level=level))
        cf = manski_stratum_bounds(table, level)
        worst = max(worst, abs(lp.lower - cf.lower), abs(lp.upper - cf.upper))
    announce(
        capsys,
        worst <= TOL,
        2,
        "stratum LP vs no-assumption closed form",
        f"max endpoint gap {worst:.2e} over 1000 tables, treatment arity 2 and 3",
    )


# ---------------------------------------------------------------------------
# 3 + 4. the large simulation study: validity and width ordering


@pytest.fixture(scope="session")
def study_report():
    # Default shape: binary confounder/instrument/outcome, ternary treatment,
    # six covariate levels, the fixed study rule, master seed 20260824. Two
    # worker processes give the serial run's records (criterion 9 checks that).
    return run_study(SimConfig(replications=10_000, jobs=2))


def test_3_simulation_validity_rate_is_one(capsys, study_report):
    rates = study_report.validity_rate
    anomalies = {k: v for k, v in study_report.anomaly_indices.items() if v}
    ok = (
        rates["reduction"] == 1.0
        and rates["conditioning"] == 1.0
        and not anomalies
    )
    announce(
        capsys,
        ok,
        3,
        "simulation validity",
        f"reduction {rates['reduction']:.6f}, conditioning {rates['conditioning']:.6f} "
        f"over {study_report.config.replications} replications"
        + (f"; anomalies {anomalies}" if anomalies else ""),
    )


def test_4_conditioning_never_wider_than_reduction(capsys, study_report):
    # width_difference is reduction minus conditioning, so a violation of the
    # ordering shows up as a difference below -TOL. Any hit is printed with
    # its replication index: it would be a finding, not just a test failure.
    violations = [
        (r.index, r.width_difference)
        for r in study_report.records
        if r.width_difference is not None and r.width_difference < -TOL
    ]
    detail = (
        f"0 of {study_report.config.replications} replications have conditioning "
        f"wider than reduction (min reduction-minus-conditioning gap "
        f"{study_report.min_width_difference:.2e})"
    )
    if violations:
        detail = (
            f"conditioning exceeded reduction width at replications "
            f"{[i for i, _ in violations]} by up to "
            f"{max(-d for _, d in violations):.3e}; these records deserve "
            "manual inspection before anything else"
        )
    announce(capsys, not violations, 4, "width ordering", detail)


# ---------------------------------------------------------------------------
# 5. without an instrument the two strategies coincide


def test_5_binary_noninstrument_strategies_agree(capsys):
    worst = 0.0
    for i in range(1000):
        model, observed, _ = draw_instance(
            i, x_card=2, treat_card=2, with_instrument=False, seed=20260824_05
        )
        request = StrategyRequest(model, observed)
        red = reduction_bounds(request)
        cond = conditioning_bounds(request)
        worst = max(worst, abs(red.lower - cond.lower), abs(red.upper - cond.upper))
    announce(
        capsys,
        worst <= TOL,
        5,
        "non-instrument strategy identity",
        f"max endpoint gap {worst:.2e} over 1000 binary instances",
    )


# ---------------------------------------------------------------------------
# 6. the unreduced oracle is inside both strategies, truth inside everything


def test_6_direct_oracle_contained_and_truth_covered(capsys):
    worst_containment = -np.inf
    worst_truth = -np.inf
    for i in range(200):
        with_iv = i % 2 == 1
        model, observed, truth = draw_instance(
            i, x_card=2, treat_card=2, with_instrument=with_iv, seed=20260824_06
        )
        request = StrategyRequest(model, observed)
        direct = direct_sharp_bounds(request)
        for bounds in (reduction_bounds(request), conditioning_bounds(request)):
            worst_containment = max(
                worst_containment,
                bounds.lower - direct.lower,
                direct.upper - bounds.upper,
            )
            worst_truth = max(worst_truth, bounds.lower - truth, truth - bounds.upper)
    ok = worst_containment <= TOL and worst_truth <= TOL
    announce(
        capsys,
        ok,
        6,
        "direct-oracle containment",
        f"max containment slack {worst_containment:.2e}, max truth excursion "
        f"{worst_truth:.2e} over 200 instances (half instrumented)",
    )


# ---------------------------------------------------------------------------
# 7. instrument arms never widen the bounds


def test_7_instrument_never_widens_reduction_bounds(capsys):
    shapes = [(2, 2), (3, 2), (2, 3)]
    worst = -np.inf
    for i in range(500):
        x_card, treat_card = shapes[i % len(shapes)]
        model, observed, _ = draw_instance(
            i, x_card=x_card, treat_card=treat_card, with_instrument=True,
            seed=20260824_07,
        )
        with_iv = reduction_bounds(StrategyRequest(model, observed))
        marginal_model = CausalModel(model.variables[1:], model.rule)
        marginal_table = marginalize(observed, [v.name for v in model.variables[1:]])
        without_iv = reduction_bounds(StrategyRequest(marginal_model, marginal_table))
        worst = max(
            worst, without_iv.lower - with_iv.lower, with_iv.upper - without_iv.upper
        )
    announce(
        capsys,
        worst <= TOL,
        7,
        "instrument tightening",
        f"max widening {worst:.2e} over 500 instrumented instances, "
        "three covariate/treatment shapes",
    )


# ---------------------------------------------------------------------------
# 8. trial-data reproduction, only when the prepared dataset is present


LEAP_EXPECTED = {
    "leap_f1.json": {"reduction": (-0.154, -0.109), "conditioning": (-0.153, -0.108)},
    "leap_f2.json": {"reduction": (-0.164, 0.234), "conditioning": (-0.163, 0.237)},
}
LEAP_TOL = 0.005


def test_8_trial_data_reproduction(capsys):
    data_dir = Path(
        os.environ.get("RULEBOUNDS_LEAP_DIR", REPO_ROOT / "data" / "leap")
    )
    csv_path = data_dir / "leap_observed.csv"
    if not csv_path.exists():
        with capsys.disabled():
            print(
                f"\n[SKIP] acceptance 8/9 trial-data reproduction: {csv_path} not "
                "found; fetch the trial export and run scripts/prepare_leap_csv.py "
                "(or point RULEBOUNDS_LEAP_DIR at the prepared file)",
                flush=True,
            )
        pytest.skip("prepared trial dataset not available")

    worst = 0.0
    observed_intervals = {}
    for config_name, expected in LEAP_EXPECTED.items():
        config = load_config(str(REPO_ROOT / "configs" / config_name))
        records, info = load_records(str(csv_path), config)
        table = empirical_joint(records, config.model.variables)
        request = StrategyRequest(config.model, table, "cu")
        got = {
            "reduction": reduction_bounds(request),
            "conditioning": conditioning_bounds(request),
        }
        for strategy, (lo, hi) in expected.items():
            bounds = got[strategy]
            observed_intervals[f"{config_name}:{strategy}"] = (bounds.lower, bounds.upper)
            worst = max(worst, abs(bounds.lower - lo), abs(bounds.upper - hi))
    announce(
        capsys,
        worst <= LEAP_TOL,
        8,
        "trial-data reproduction",
        f"max endpoint deviation {worst:.4f} (tol {LEAP_TOL}); intervals "
        f"{ {k: (round(l, 3), round(u, 3)) for k, (l, u) in observed_intervals.items()} }",
    )


# ---------------------------------------------------------------------------
# 9. determinism of the simulation harness, library and CLI


def test_9_simulation_reports_are_deterministic(capsys, tmp_path):
    config = SimConfig(
        replications=25, master_seed=424242, card_covariate=3, card_treatment=2
    )
    first = run_study(config).to_dict()
    second = run_study(config).to_dict()
    parallel = run_study(replace(config, jobs=2)).to_dict()
    # the config echo records the requested worker count; every computed
    # number must still match the serial run exactly
    parallel_normalized = {**parallel, "config": {**parallel["config"], "jobs": 1}}

    sim_config = tmp_path / "sim.json"
    sim_config.write_text(json.dumps({"card_covariate": 3, "card_treatment": 2}))
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli_main(
            [
                "simulate",
                "--config", str(sim_config),
                "--replications", "10",
                "--seed", "424242",
                "--output", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        doc.pop("generated_at", None)
        reports.append(doc)

    ok = (
        first == second
        and parallel_normalized == first
        and reports[0] == reports[1]
    )
    announce(
        capsys,
        ok,
        9,
        "determinism",
        "repeat, parallel and CLI reruns all reproduce the report byte for byte "
        "(timestamp excluded)",
    )
