"""Reduction and conditioning strategies, their agreement and ordering.

Feasible observed tables come from exact ground-truth models (the
simulation harness), so every strategy must succeed and the theoretical
relationships between the intervals are testable as hard assertions.
"""

import numpy as np
import pytest

from rulebounds import model as model_module
from rulebounds.errors import DataError, InfeasibleModelError
from rulebounds.lp_bounds import direct_sharp_bounds
from rulebounds.model import (
    CausalModel,
    TreatmentRule,
    VariableSpec,
    build_reduced_model,
)
from rulebounds.simulation import SimConfig, random_scm, run_replication
from rulebounds.strategies import (
    StrategyRequest,
    compare_strategies,
    conditioning_bounds,
    reduce_table,
    reduction_bounds,
)
from rulebounds.tables import JointTable, joint_from_scm, marginalize, reorder

from conftest import feasible_table, random_joint, random_probs, small_iv_model, small_noiv_model


def scm_observed(rng_index, *, x_card=2, treat_card=2, with_instrument=True,
                 rule_map=None, guideline_map=None, seed=555000111):
    """A jointly feasible observed table plus the matching analyst model."""
    config = SimConfig(
        master_seed=seed,
        card_covariate=x_card,
        card_treatment=treat_card,
        rule=TreatmentRule.from_table(
            rule_map or {(x,): x % treat_card for x in range(x_card)}, name="f"
        ),
        guideline=(
            TreatmentRule.from_table(guideline_map, name="g") if guideline_map else None
        ),
    )
    scm = random_scm(config, rng_index)
    joint = joint_from_scm(scm)
    variables = [
        VariableSpec("covariate", x_card, "rule_covariate"),
        VariableSpec("treatment", treat_card, "treatment"),
        VariableSpec("outcome", 2, "outcome"),
    ]
    if with_instrument:
        variables.insert(0, VariableSpec("instrument", config.card_instrument, "instrument"))
    observed = marginalize(joint, [v.name for v in variables])
    model = CausalModel(tuple(variables), config.rule, config.guideline)
    return model, observed


# ---------------------------------------------------------------------------
# request validation


def test_request_rejects_structural_defects(rng):
    model = small_noiv_model()
    specs = (
        VariableSpec("x", 2, "rule_covariate"),
        VariableSpec("a", 2, "treatment"),
        VariableSpec("y", 2, "outcome"),
    )
    table = JointTable(specs, random_probs(rng, (2, 2, 2)))

    with pytest.raises(ValueError, match="needs a guideline"):
        reduction_bounds(StrategyRequest(model, table, "cu"))

    wrong_card = JointTable(
        (VariableSpec("x", 3, "rule_covariate"),) + specs[1:],
        random_probs(rng, (3, 2, 2)),
    )
    with pytest.raises(ValueError, match="do not match"):
        reduction_bounds(StrategyRequest(model, wrong_card))

    twin = CausalModel(specs + (VariableSpec("a2", 2, "treatment"),), model.rule)
    bigger = JointTable(twin.variables, random_probs(rng, (2, 2, 2, 2)))
    with pytest.raises(ValueError, match="invalid model"):
        conditioning_bounds(StrategyRequest(twin, bigger))

    with pytest.raises(ValueError, match="sum to"):
        JointTable(specs, np.zeros((2, 2, 2)))


def test_request_validates_its_model_once(rng, monkeypatch):
    calls = []
    validate = model_module.validate_model
    monkeypatch.setattr(model_module, "validate_model", lambda m: calls.append(m) or validate(m))
    model = small_iv_model(x_card=3)
    observed = feasible_table(rng, model, zero_stratum=False)

    request = StrategyRequest(model, observed)
    reduction_bounds(request)
    conditioning_bounds(request)
    assert len(calls) == 1

    calls.clear()
    compare_strategies(StrategyRequest(model, observed), oracle_cap=10**6)
    assert len(calls) == 2  # the request, then the oracle's own check

    calls.clear()
    run_replication(SimConfig(master_seed=3, card_covariate=3, card_treatment=2), 0)
    assert len(calls) == 1


def test_oracle_rejects_a_table_over_other_variables(rng):
    model = small_noiv_model()
    three_level = [VariableSpec("a", 3, "treatment") if v.name == "a" else v for v in model.variables]
    with pytest.raises(ValueError, match="do not match the declared model"):
        direct_sharp_bounds(model, random_joint(rng, three_level))


# ---------------------------------------------------------------------------
# the reduction projection


def _reduce_by_hand(model, reduced, observed):
    """Slow reference: push every cell's mass onto its recommendation values."""
    out = np.zeros(tuple(v.cardinality for v in reduced.variables))
    names = [v.name for v in observed.variables]
    for idx, p in np.ndenumerate(observed.probs):
        vals = dict(zip(names, idx))
        x = tuple(vals[v.name] for v in model.rule_covariates)
        key = []
        for spec in reduced.variables:
            if spec.name == "instrument":
                key.append(vals[model.instrument.name])
            elif spec.name == "treatment":
                key.append(vals[model.treatment.name])
            elif spec.name == "outcome":
                key.append(vals[model.outcome.name])
            elif spec.name == "rule_rec":
                key.append(model.rule.level_for(x))
            elif spec.name == "guideline_rec":
                key.append(model.guideline.level_for(x))
            else:
                i = int(spec.name.removeprefix("extra"))
                key.append(vals[model.extra_covariates[i].name])
        out[tuple(key)] += p
    return out


@pytest.mark.parametrize("with_guideline", [False, True])
def test_reduce_table_matches_nested_loops(rng, with_guideline):
    model = CausalModel(
        variables=(
            VariableSpec("z", 2, "instrument"),
            VariableSpec("x1", 2, "rule_covariate"),
            VariableSpec("x2", 3, "rule_covariate"),
            VariableSpec("a", 3, "treatment"),
            VariableSpec("y", 2, "outcome"),
            VariableSpec("w", 2, "extra_covariate"),
        ),
        rule=TreatmentRule.from_table(
            {(i, j): (i + j) % 3 for i in range(2) for j in range(3)}, name="f"
        ),
        guideline=(
            TreatmentRule.from_table(
                {(i, j): (2 * i + j) % 3 for i in range(2) for j in range(3)}, name="g"
            )
            if with_guideline
            else None
        ),
    )
    reduced = build_reduced_model(model)
    observed = JointTable(model.variables, random_probs(rng, (2, 2, 3, 3, 2, 2)))
    got = reduce_table(model, reduced, observed)
    want = _reduce_by_hand(model, reduced, observed)
    assert [v.name for v in got.variables] == [v.name for v in reduced.variables]
    np.testing.assert_allclose(got.probs, want, atol=1e-14)
    assert got.probs.sum() == pytest.approx(1.0, abs=1e-12)


def _reduce_cell_by_cell(model, reduced, observed):
    """The per-cell loop ``reduce_table`` replaced: one covariate cell at a time, in domain order."""
    arm = (model.instrument,) if model.instrument is not None else ()
    order = arm + (model.treatment, model.outcome) + model.rule_covariates + model.extra_covariates
    probs = reorder(observed, [v.name for v in order]).probs
    out = np.zeros(tuple(v.cardinality for v in reduced.variables))
    lead = (slice(None),) * (len(arm) + 2)
    for x in model.rule_domain():
        recs = (model.rule.level_for(x),)
        if reduced.guideline_mode == "separate":
            recs += (model.guideline.level_for(x),)
        out[lead + recs] += probs[lead + x]
    return out


@pytest.mark.parametrize("with_guideline", [False, True])
def test_reduce_table_adds_in_the_loop_order(rng, with_guideline):
    # ~30 covariate cells land on each recommendation, so a different summation order would show
    def levels():
        return {x: int(v) for x, v in np.ndenumerate(rng.integers(0, 3, size=(10, 10)))}

    model = CausalModel(
        variables=(
            VariableSpec("w", 2, "extra_covariate"),
            VariableSpec("x1", 10, "rule_covariate"),
            VariableSpec("a", 3, "treatment"),
            VariableSpec("z", 2, "instrument"),
            VariableSpec("x2", 10, "rule_covariate"),
            VariableSpec("y", 2, "outcome"),
        ),
        rule=TreatmentRule.from_table(levels(), name="f"),
        guideline=TreatmentRule.from_table(levels(), name="g") if with_guideline else None,
    )
    reduced = build_reduced_model(model)
    observed = JointTable(model.variables, random_probs(rng, (2, 10, 3, 2, 10, 2)))
    got = reduce_table(model, reduced, observed)
    np.testing.assert_array_equal(got.probs, _reduce_cell_by_cell(model, reduced, observed))


# ---------------------------------------------------------------------------
# agreement and ordering between the strategies


@pytest.mark.parametrize("x_card,treat_card", [(2, 2), (3, 2), (3, 3)])
def test_no_instrument_strategies_coincide(x_card, treat_card):
    # without an instrument the reduced program decomposes by stratum, so
    # the two strategies are the same computation in different clothes
    for i in range(25):
        model, observed = scm_observed(
            i, x_card=x_card, treat_card=treat_card, with_instrument=False
        )
        request = StrategyRequest(model, observed)
        red = reduction_bounds(request)
        cond = conditioning_bounds(request)
        assert abs(red.lower - cond.lower) < 1e-8, i
        assert abs(red.upper - cond.upper) < 1e-8, i


def test_instrumented_conditioning_nests_inside_reduction():
    for i in range(25):
        model, observed = scm_observed(i, x_card=3, treat_card=2)
        request = StrategyRequest(model, observed)
        red = reduction_bounds(request)
        cond = conditioning_bounds(request)
        assert cond.lower >= red.lower - 1e-9, i
        assert cond.upper <= red.upper + 1e-9, i


def test_oracle_agrees_with_conditioning_when_covariate_ignores_instrument():
    # in these ground-truth models the covariate is independent of the
    # instrument, and then the full program splits into the per-stratum ones
    for i in range(10):
        model, observed = scm_observed(i, x_card=2, treat_card=2)
        cond = conditioning_bounds(StrategyRequest(model, observed))
        oracle = direct_sharp_bounds(model, observed, "theta_f")
        assert abs(oracle.lower - cond.lower) < 1e-8, i
        assert abs(oracle.upper - cond.upper) < 1e-8, i


def test_cu_respects_interval_differencing():
    guideline = {(0,): 1, (1,): 1, (2,): 0}
    for i in range(10):
        model, observed = scm_observed(
            i, x_card=3, treat_card=2, guideline_map=guideline
        )
        for solver in (reduction_bounds, conditioning_bounds):
            f = solver(StrategyRequest(model, observed, "theta_f"))
            g = solver(StrategyRequest(model, observed, "theta_g"))
            cu = solver(StrategyRequest(model, observed, "cu"))
            assert cu.lower >= f.lower - g.upper - 1e-9
            assert cu.upper <= f.upper - g.lower + 1e-9


def test_no_instrument_cu_equals_naive_differencing():
    # single-stratum programs couple nothing across the two rules when
    # there is no instrument, so the sharp interval is the naive difference
    guideline = {(0,): 1, (1,): 0}
    for i in range(10):
        model, observed = scm_observed(
            i, x_card=2, treat_card=2, with_instrument=False, guideline_map=guideline
        )
        f = conditioning_bounds(StrategyRequest(model, observed, "theta_f"))
        g = conditioning_bounds(StrategyRequest(model, observed, "theta_g"))
        cu = conditioning_bounds(StrategyRequest(model, observed, "cu"))
        assert cu.lower == pytest.approx(f.lower - g.upper, abs=1e-8)
        assert cu.upper == pytest.approx(f.upper - g.lower, abs=1e-8)


def test_identical_rules_give_zero_utility():
    same = {(0,): 0, (1,): 1}
    model, observed = scm_observed(3, rule_map=same, guideline_map=dict(same))
    for solver in (reduction_bounds, conditioning_bounds):
        cu = solver(StrategyRequest(model, observed, "cu"))
        assert cu.lower == pytest.approx(0.0, abs=1e-10)
        assert cu.upper == pytest.approx(0.0, abs=1e-10)


def test_comparator_value_no_wider_than_its_standalone_bounds():
    # bounding the comparator inside the two-recommendation program uses
    # strictly more information than rebounding it as a standalone rule
    guideline = {(0,): 1, (1,): 1}
    for i in range(8):
        model, observed = scm_observed(i, guideline_map=guideline)
        theta_g = reduction_bounds(StrategyRequest(model, observed, "theta_g"))
        swapped = CausalModel(model.variables, model.guideline)
        standalone = reduction_bounds(StrategyRequest(swapped, observed, "theta_f"))
        assert theta_g.lower >= standalone.lower - 1e-9
        assert theta_g.upper <= standalone.upper + 1e-9


# ---------------------------------------------------------------------------
# stratum bookkeeping


def test_stratum_weights_and_records():
    model, observed = scm_observed(7, x_card=3, treat_card=3)
    cond = conditioning_bounds(StrategyRequest(model, observed))
    strata = cond.diagnostics["strata"]
    assert cond.diagnostics["stratum_count"] == 3
    assert cond.diagnostics["skipped_strata"] == 0
    assert sum(s["weight"] for s in strata) == pytest.approx(1.0, abs=1e-10)
    for s in strata:
        assert s["level"] == model.rule.level_for(tuple(s["x"]))
        assert s["lower"] <= s["upper"]
    # endpoints really are the weighted averages
    lo = sum(s["weight"] * s["lower"] for s in strata)
    hi = sum(s["weight"] * s["upper"] for s in strata)
    assert cond.lower == pytest.approx(lo, abs=1e-12)
    assert cond.upper == pytest.approx(hi, abs=1e-12)


def test_empty_stratum_is_skipped(rng):
    model = small_noiv_model(x_card=3, treat_card=2)
    probs = random_probs(rng, (3, 2, 2))
    probs[2] = 0.0
    probs = probs / probs.sum()
    table = JointTable(
        (VariableSpec("x", 3, "rule_covariate"),
         VariableSpec("a", 2, "treatment"),
         VariableSpec("y", 2, "outcome")),
        probs,
    )
    cond = conditioning_bounds(StrategyRequest(model, table))
    assert cond.diagnostics["skipped_strata"] == 1
    skipped = [s for s in cond.diagnostics["strata"] if s["skipped"]]
    assert len(skipped) == 1
    assert skipped[0]["x"] == [2]
    assert skipped[0]["weight"] == 0.0 and skipped[0]["lower"] is None
    live = [s for s in cond.diagnostics["strata"] if not s["skipped"]]
    assert sum(s["weight"] for s in live) == pytest.approx(1.0, abs=1e-10)


def test_infeasible_stratum_is_named():
    # stratum x=1 reports (a,y)=(0,0) under one arm and (0,1) under the
    # other with certainty: no single response type can do both
    model = small_iv_model(x_card=2, treat_card=2)
    probs = np.zeros((2, 2, 2, 2))  # (z, x, a, y)
    probs[0, 0, 0, 0] = 0.25
    probs[1, 0, 0, 0] = 0.25
    probs[0, 1, 0, 0] = 0.25
    probs[1, 1, 0, 1] = 0.25
    table = JointTable(
        (VariableSpec("z", 2, "instrument"),
         VariableSpec("x", 2, "rule_covariate"),
         VariableSpec("a", 2, "treatment"),
         VariableSpec("y", 2, "outcome")),
        probs,
    )
    with pytest.raises(InfeasibleModelError, match=r"stratum \(x=1\)") as exc:
        conditioning_bounds(StrategyRequest(model, table))
    assert exc.value.violation > 0
    # the same contradiction survives the reduction projection
    with pytest.raises(InfeasibleModelError):
        reduction_bounds(StrategyRequest(model, table))


# ---------------------------------------------------------------------------
# side-by-side comparison


def test_compare_strategies_with_oracle():
    model, observed = scm_observed(11, x_card=2, treat_card=2)
    request = StrategyRequest(model, observed)
    cmp = compare_strategies(request, oracle_cap=100_000)
    assert cmp.containment_ok
    assert cmp.oracle is not None and cmp.oracle_note is None
    assert cmp.oracle_matches_conditioning is True
    assert cmp.width_difference == pytest.approx(
        cmp.reduction.width - cmp.conditioning.width, abs=1e-12
    )
    d = cmp.to_dict()
    assert d["reduction"]["strategy"] == "reduction"
    assert d["conditioning"]["strategy"] == "conditioning"
    assert d["oracle"]["strategy"] == "direct_oracle"


def test_compare_strategies_oracle_refusals():
    model, observed = scm_observed(12, x_card=2, treat_card=2)
    request = StrategyRequest(model, observed)
    no_oracle = compare_strategies(request)
    assert no_oracle.oracle is None and no_oracle.oracle_note is None
    capped = compare_strategies(request, oracle_cap=10)
    assert capped.oracle is None
    assert "cap" in capped.oracle_note
    assert capped.oracle_matches_conditioning is None


def test_compare_strategies_skips_oracle_with_extras(rng):
    model = CausalModel(
        variables=(
            VariableSpec("x", 2, "rule_covariate"),
            VariableSpec("w", 2, "extra_covariate"),
            VariableSpec("a", 2, "treatment"),
            VariableSpec("y", 2, "outcome"),
        ),
        rule=TreatmentRule.from_table({(0,): 0, (1,): 1}),
    )
    table = JointTable(model.variables, random_probs(rng, (2, 2, 2, 2)))
    cmp = compare_strategies(StrategyRequest(model, table), oracle_cap=100_000)
    assert cmp.oracle is None
    assert "extra covariates" in cmp.oracle_note
