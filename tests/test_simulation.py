"""Simulation harness: seeding, ground truth, validity bookkeeping.

The ground-truth re-implementations here deliberately avoid the package's
own CPT indexing helpers so that the draw order and row layout stay pinned
by an independent computation.
"""

import dataclasses
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from rulebounds.errors import InfeasibleModelError
from rulebounds.model import TreatmentRule, validate_model
from rulebounds.simulation import (
    SimConfig,
    default_study_rule,
    observed_model,
    random_cpt,
    random_scm,
    run_replication,
    run_study,
    true_policy_value,
)
from rulebounds.tables import Scm, joint_from_scm, marginalize
import rulebounds.simulation as simulation
from rulebounds.model import VariableSpec

from conftest import intervene_per_row, intervene_with_rule


def test_default_study_rule_steps_through_levels():
    rule = default_study_rule(6, 3)
    assert rule.table == {(0,): 0, (1,): 0, (2,): 1, (3,): 1, (4,): 2, (5,): 2}
    # the cap keeps the top level in range when the covariate outruns it
    assert default_study_rule(8, 3).table[(7,)] == 2
    assert default_study_rule(4, 2).table == {(0,): 0, (1,): 0, (2,): 1, (3,): 1}


def test_random_cpt_rows_are_distributions(rng):
    child = VariableSpec("c", 3, "treatment")
    parents = (VariableSpec("p", 2, "instrument"), VariableSpec("q", 4, "rule_covariate"))
    cpt = random_cpt(child, parents, rng)
    assert cpt.rows.shape == (8, 3)
    np.testing.assert_allclose(cpt.rows.sum(axis=1), 1.0, atol=1e-12)
    assert cpt.rows.min() > 0

    singleton = random_cpt(VariableSpec("s", 1, "extra_covariate"), parents, rng)
    np.testing.assert_array_equal(singleton.rows, np.ones((8, 1)))


def test_random_scm_is_deterministic_per_index():
    config = SimConfig(master_seed=42)
    a = random_scm(config, 5)
    b = random_scm(config, 5)
    c = random_scm(config, 6)
    for name in ("confounder", "instrument", "covariate", "treatment", "outcome"):
        np.testing.assert_array_equal(a.cpt_for(name).rows, b.cpt_for(name).rows)
    assert not np.array_equal(a.cpt_for("outcome").rows, c.cpt_for("outcome").rows)


def test_random_scm_matches_documented_draw_order():
    config = SimConfig(master_seed=90125, card_confounder=2, card_instrument=2,
                       card_covariate=6, card_treatment=3)
    scm = random_scm(config, 17)

    rng = np.random.default_rng(np.random.SeedSequence((90125, 17)))

    def draw(n_rows, card):
        raw = rng.uniform(size=(n_rows, card))
        return raw / raw.sum(axis=1, keepdims=True)

    u = draw(1, 2)
    z = draw(1, 2)
    x = draw(2, 6)            # one row per confounder value
    a = draw(2 * 6 * 2, 3)    # parents (instrument, covariate, confounder)
    y = draw(3 * 6 * 2, 2)    # parents (treatment, covariate, confounder)

    np.testing.assert_array_equal(scm.cpt_for("confounder").rows, u)
    np.testing.assert_array_equal(scm.cpt_for("instrument").rows, z)
    np.testing.assert_array_equal(scm.cpt_for("covariate").rows, x)
    np.testing.assert_array_equal(scm.cpt_for("treatment").rows, a)
    np.testing.assert_array_equal(scm.cpt_for("outcome").rows, y)
    assert tuple(p.name for p in scm.cpt_for("treatment").parents) == (
        "instrument", "covariate", "confounder",
    )
    assert tuple(p.name for p in scm.cpt_for("outcome").parents) == (
        "treatment", "covariate", "confounder",
    )


def test_intervention_forces_one_hot_treatment():
    config = SimConfig(master_seed=7)
    scm = random_scm(config, 0)
    rule = config.resolved_rule()
    forced = intervene_with_rule(scm, rule)
    rows = forced.cpt_for("treatment").rows
    cards = [p.cardinality for p in forced.cpt_for("treatment").parents]
    for r in range(rows.shape[0]):
        z, x, u = np.unravel_index(r, cards)
        level = rule.level_for((int(x),))
        assert rows[r, level] == 1.0
        assert rows[r].sum() == 1.0
    # everything else untouched
    for name in ("confounder", "instrument", "covariate", "outcome"):
        np.testing.assert_array_equal(
            forced.cpt_for(name).rows, scm.cpt_for(name).rows
        )


@pytest.mark.parametrize("seed", range(12))
def test_intervention_matches_the_per_row_reference(seed):
    # 1-3 rule covariates among extra, instrument and latent parents, in a random order
    rng = np.random.default_rng(seed)
    xs = [VariableSpec(f"x{i}", int(rng.integers(1, 4)), "rule_covariate") for i in range(rng.integers(1, 4))]
    others = [VariableSpec("u", 2, "latent_confounder"), VariableSpec("z", 2, "instrument")]
    others += [VariableSpec("w", int(rng.integers(1, 4)), "extra_covariate")] if seed % 2 else []
    a = VariableSpec("a", int(rng.integers(2, 4)), "treatment")
    parents = tuple(rng.permutation(np.array(xs + others, dtype=object)))
    roots = [random_cpt(v, (), rng) for v in xs + others]
    scm = Scm((*roots, random_cpt(a, parents, rng), random_cpt(VariableSpec("y", 2, "outcome"), (a,), rng)))
    x_cards = tuple(p.cardinality for p in parents if p.role == "rule_covariate")
    cells = list(product(*(range(c) for c in x_cards)))
    for rule in (
        TreatmentRule.from_table({x: int(rng.integers(a.cardinality)) for x in cells}),
        TreatmentRule.constant(a.cardinality - 1, x_cards),
    ):
        forced = intervene_with_rule(scm, rule)
        assert np.array_equal(forced.cpt_for("a").rows, intervene_per_row(scm, rule))
        assert all(f is c for f, c in zip(forced.cpts, scm.cpts) if c.child.name != "a")


@pytest.mark.parametrize("index", [0, 3, 9])
def test_true_policy_value_matches_brute_force(index):
    config = SimConfig(master_seed=2024, card_covariate=4, card_treatment=2)
    scm = random_scm(config, index)
    rule = config.resolved_rule()

    p_u = scm.cpt_for("confounder").rows[0]
    p_x = scm.cpt_for("covariate").rows        # row u
    p_y = scm.cpt_for("outcome").rows          # row (a, x, u), first parent slowest
    want = 0.0
    for u in range(config.card_confounder):
        for x in range(config.card_covariate):
            a = rule.level_for((x,))
            row = (a * config.card_covariate + x) * config.card_confounder + u
            want += p_u[u] * p_x[u, x] * p_y[row, 1]
    got = true_policy_value(scm, rule)
    assert got == pytest.approx(want, abs=1e-13)
    # the intervened value differs from the factual outcome rate in general
    factual = float(marginalize(joint_from_scm(scm), ["outcome"]).probs[1])
    assert 0.0 < got < 1.0 and 0.0 < factual < 1.0


def test_observed_model_shape_and_roles():
    config = SimConfig()
    model = observed_model(config)
    assert validate_model(model) == []
    names = [v.name for v in model.variables]
    assert names == ["instrument", "covariate", "treatment", "outcome"]
    assert model.treatment.cardinality == 3
    assert model.rule_covariates[0].cardinality == 6


def test_sim_config_validation():
    with pytest.raises(ValueError, match="replications"):
        SimConfig(replications=0).validate()
    with pytest.raises(ValueError, match="jobs"):
        SimConfig(jobs=0).validate()
    with pytest.raises(ValueError, match="replications must be an integer >= 1, got '10'"):
        SimConfig(replications="10").validate()
    with pytest.raises(ValueError, match="card_covariate must be an integer >= 1, got 0"):
        SimConfig(card_covariate=0).validate()
    with pytest.raises(ValueError, match="card_treatment"):
        SimConfig(card_treatment=2.0).validate()
    with pytest.raises(ValueError, match="master_seed"):
        SimConfig(master_seed=-1).validate()
    with pytest.raises(ValueError, match="jobs"):
        SimConfig(jobs=True).validate()
    with pytest.raises(ValueError, match="unknown strategies"):
        SimConfig(strategies=("reduction", "magic")).validate()
    with pytest.raises(ValueError, match="at least one strategy"):
        SimConfig(strategies=()).validate()
    with pytest.raises(ValueError, match="unknown query"):
        SimConfig(query="theta_x").validate()
    with pytest.raises(ValueError, match="needs a guideline"):
        SimConfig(query="cu").validate()
    with pytest.raises(ValueError, match="no level assigned"):
        SimConfig(rule=TreatmentRule.from_table({(0,): 0})).validate()
    SimConfig().validate()  # the defaults are sound


def test_run_replication_brackets_truth():
    config = SimConfig(card_covariate=4, card_treatment=2)
    rec = run_replication(config, 2)
    assert rec.index == 2
    for name in ("reduction", "conditioning"):
        r = rec.results[name]
        assert r["valid"]
        assert r["lower"] - 1e-9 <= rec.truth <= r["upper"] + 1e-9
        assert r["width"] == pytest.approx(r["upper"] - r["lower"], abs=1e-15)
    assert rec.width_difference == pytest.approx(
        rec.results["reduction"]["width"] - rec.results["conditioning"]["width"],
        abs=1e-15,
    )
    assert rec.containment_violated is False


def test_run_replication_cu_truth_is_value_difference():
    config = SimConfig(
        card_covariate=4,
        card_treatment=2,
        query="cu",
        guideline=TreatmentRule.from_table({(x,): 0 for x in range(4)}, name="g"),
    )
    rec = run_replication(config, 1)
    scm = random_scm(config, 1)
    expected = true_policy_value(scm, config.resolved_rule()) - true_policy_value(
        scm, config.guideline
    )
    assert rec.truth == pytest.approx(expected, abs=1e-13)
    assert rec.results["conditioning"]["valid"]


def test_run_study_aggregates_and_is_deterministic():
    config = SimConfig(replications=6, card_covariate=4, card_treatment=2, master_seed=31)
    one = run_study(config)
    two = run_study(config)
    assert len(one.records) == 6
    assert [r.to_dict() for r in one.records] == [r.to_dict() for r in two.records]
    assert one.validity_rate == {"reduction": 1.0, "conditioning": 1.0}
    assert one.invalid_indices == {"reduction": [], "conditioning": []}
    assert one.anomaly_indices == {"reduction": [], "conditioning": []}
    assert one.containment_violations == 0
    diffs = [r.width_difference for r in one.records]
    assert one.mean_width_difference == pytest.approx(float(np.mean(diffs)))
    assert one.max_width_difference == pytest.approx(max(diffs))
    assert one.min_width_difference == pytest.approx(min(diffs))
    assert one.elapsed_seconds > 0
    # each record depends only on (seed, index), not on the study length
    short = run_study(SimConfig(replications=2, card_covariate=4, card_treatment=2, master_seed=31))
    assert short.records[1].to_dict() == one.records[1].to_dict()


def test_parallel_matches_serial():
    serial = run_study(SimConfig(replications=4, card_covariate=3, card_treatment=2, master_seed=77))
    parallel = run_study(
        SimConfig(replications=4, card_covariate=3, card_treatment=2, master_seed=77, jobs=2)
    )
    assert [r.to_dict() for r in serial.records] == [r.to_dict() for r in parallel.records]
    assert serial.validity_rate == parallel.validity_rate


def test_pool_is_never_wider_than_the_replications(monkeypatch):
    # a stub pool records its width and maps serially: no worker process starts
    widths = []

    class SerialPool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items, chunksize=1):
            return map(func, items)

    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    base = SimConfig(replications=3, card_covariate=3, card_treatment=2, master_seed=77)
    serial = run_study(base)
    for jobs, width in ((8, 3), (2, 2)):
        report = run_study(dataclasses.replace(base, jobs=jobs))
        assert widths[-1] == width
        assert [r.to_dict() for r in report.records] == [r.to_dict() for r in serial.records]


def test_observed_model_is_built_once_per_config():
    config = SimConfig(card_covariate=4, card_treatment=2)
    model = observed_model(config)
    assert observed_model(SimConfig(card_covariate=4, card_treatment=2)) is model
    assert model.rule == config.resolved_rule()
    assert observed_model(dataclasses.replace(config, card_instrument=3)) is not model
    assert observed_model.cache_info().maxsize == simulation.MODEL_CACHE_SIZE


def test_importing_the_cli_leaves_out_the_process_pool():
    # only run_study with jobs > 1 loads the pool (test_parallel_matches_serial covers that path)
    src = str(Path(simulation.__file__).parents[1])
    code = "import sys, rulebounds.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_importing_the_cli_leaves_out_the_simulator():
    # bounds and compare never simulate, so their processes need not compile and run this module
    src = str(Path(simulation.__file__).parents[1])
    code = "import sys, rulebounds.cli; print('rulebounds.simulation' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_anomalies_are_recorded_not_fatal(monkeypatch):
    def explode(request):
        raise InfeasibleModelError("synthetic failure", worst_constraint="?", violation=1.0)

    monkeypatch.setitem(simulation._STRATEGY_FUNCS, "reduction", explode)
    config = SimConfig(replications=3, card_covariate=3, card_treatment=2, master_seed=5)
    report = run_study(config)
    assert report.anomaly_indices["reduction"] == [0, 1, 2]
    assert report.anomaly_indices["conditioning"] == []
    assert report.validity_rate["reduction"] == 0.0
    assert report.validity_rate["conditioning"] == 1.0
    assert report.mean_width["reduction"] is None
    rec = report.records[0]
    assert "error" in rec.results["reduction"]
    assert "InfeasibleModelError" in rec.results["reduction"]["error"]
    assert rec.width_difference is None and rec.containment_violated is None


def test_config_serialization_round_trip_keys():
    config = SimConfig(
        guideline=TreatmentRule.from_table({(x,): 0 for x in range(6)}, name="g"),
        query="cu",
    )
    d = config.to_dict()
    assert d["rule"] == {"0": 0, "1": 0, "2": 1, "3": 1, "4": 2, "5": 2}
    assert d["guideline"] == {str(x): 0 for x in range(6)}
    assert d["strategies"] == ["reduction", "conditioning"]
    assert d["master_seed"] == 20260824
