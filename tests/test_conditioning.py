"""Conditioning against a stratum-by-stratum reference.

The reference builds every stratum program the long way: a
``StratumModel``, then ``condition``, ``reorder`` and ``with_variables`` on
the observed table, then ``build_lp``. It solves each program with scipy's
HiGHS on the raw per-class program. ``conditioning_bounds`` must report
the same strata, in the same order, and the mass-weighted sum of the
reference bounds.
"""

from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rulebounds.lp_bounds import build_lp, enumerate_response_types
from rulebounds.model import (
    CANON_INSTRUMENT,
    CausalModel,
    TreatmentRule,
    VariableSpec,
    build_stratum_model,
)
from rulebounds.strategies import StrategyRequest, conditioning_bounds
from rulebounds.tables import condition, reorder, with_variables

from conftest import feasible_table, scipy_lp_bounds, small_iv_model

TOL = 1e-9


def reference_strata(model, observed, query):
    """(x, w, label, mass, (lower, upper) or None) per stratum, the long way."""
    covariates = model.rule_covariates + model.extra_covariates
    nx = len(model.rule_covariates)
    arm = [model.instrument.name] if model.instrument is not None else []
    cell_names = arm + [model.treatment.name, model.outcome.name]
    out = []
    for values in product(*(range(v.cardinality) for v in covariates)):
        x, w = values[:nx], (values[nx:] if model.extra_covariates else None)
        label = ", ".join(f"{v.name}={val}" for v, val in zip(covariates, values))
        sm = build_stratum_model(model, x, w)
        table, mass = condition(observed, {v.name: val for v, val in zip(covariates, values)})
        if mass <= 0.0:
            out.append((x, w, label, 0.0, None))
            continue
        canon = with_variables(reorder(table, cell_names), sm.observed)
        lp = build_lp(
            enumerate_response_types(sm),
            canon,
            query,
            level=sm.assigned,
            guideline_level=sm.assigned_guideline,
        )
        for z in range(lp.n_arms):
            want = condition(canon, {CANON_INSTRUMENT: z})[0] if arm else canon
            np.testing.assert_allclose(lp.rhs[z], want.probs.ravel(), rtol=0, atol=1e-12)
        ref = scipy_lp_bounds(lp)
        assert ref is not None, f"stratum ({label}) is infeasible for HiGHS"
        out.append((x, w, label, mass, ref))
    return out


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    treat_card=st.integers(2, 3),
    with_instrument=st.booleans(),
    x_cards=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    extra_card=st.integers(0, 2),
    zero_stratum=st.booleans(),
    query=st.sampled_from(["theta_f", "theta_g", "cu"]),
)
def test_conditioning_matches_per_stratum_reference(
    seed, treat_card, with_instrument, x_cards, extra_card, zero_stratum, query
):
    rng = np.random.default_rng(seed)
    variables = [VariableSpec(f"x{i}", c, "rule_covariate") for i, c in enumerate(x_cards)]
    variables += [VariableSpec("a", treat_card, "treatment"), VariableSpec("y", 2, "outcome")]
    if with_instrument:
        variables.append(VariableSpec("z", 2, "instrument"))
    if extra_card:
        variables.append(VariableSpec("w", extra_card, "extra_covariate"))
    variables = [variables[i] for i in rng.permutation(len(variables))]
    x_declared = [v.cardinality for v in variables if v.role == "rule_covariate"]
    domain = list(product(*(range(c) for c in x_declared)))
    rule, guideline = (
        TreatmentRule.from_table({x: int(rng.integers(treat_card)) for x in domain}, name=name)
        for name in ("f", "g")
    )
    model = CausalModel(tuple(variables), rule, guideline)
    if zero_stratum and len(domain) * max(extra_card, 1) == 1:
        zero_stratum = False  # the only stratum cannot be empty
    observed = feasible_table(rng, model, zero_stratum)

    got = conditioning_bounds(StrategyRequest(model, observed, query))
    ref = reference_strata(model, observed, query)

    strata = got.diagnostics["strata"]
    assert [(tuple(s["x"]), tuple(s["w"]) if s["w"] is not None else None) for s in strata] == [
        (x, w) for x, w, *_ in ref
    ]
    assert [s["label"] for s in strata] == [label for _, _, label, *_ in ref]
    assert [s["skipped"] for s in strata] == [r[4] is None for r in ref]
    assert got.diagnostics["skipped_strata"] == sum(r[4] is None for r in ref)
    lower = upper = 0.0
    for s, (x, _, _, mass, bounds) in zip(strata, ref):
        assert abs(s["weight"] - mass) <= 1e-12
        assert s["level"] == rule.level_for(x)
        assert s["guideline_level"] == guideline.level_for(x)
        if bounds is not None:
            assert abs(s["lower"] - bounds[0]) <= TOL and abs(s["upper"] - bounds[1]) <= TOL
            lower += mass * bounds[0]
            upper += mass * bounds[1]
    assert abs(got.lower - lower) <= TOL
    assert abs(got.upper - upper) <= TOL


def test_stratum_labels_name_covariate_values():
    model = small_iv_model(
        x_card=3, treat_card=3,
        rule_map={(0,): 0, (1,): 2, (2,): 1},
        guideline_map={(0,): 1, (1,): 1, (2,): 1},
    )
    rng = np.random.default_rng(3)
    strata = conditioning_bounds(
        StrategyRequest(model, feasible_table(rng, model, False), "cu")
    ).diagnostics["strata"]
    assert [s["label"] for s in strata] == ["x=0", "x=1", "x=2"]
    assert (strata[1]["level"], strata[1]["guideline_level"]) == (2, 1)

    with_extra = CausalModel(
        variables=(
            VariableSpec("x", 2, "rule_covariate"),
            VariableSpec("a", 2, "treatment"),
            VariableSpec("y", 2, "outcome"),
            VariableSpec("w", 2, "extra_covariate"),
        ),
        rule=TreatmentRule.from_table({(0,): 0, (1,): 1}),
    )
    strata = conditioning_bounds(
        StrategyRequest(with_extra, feasible_table(rng, with_extra, False))
    ).diagnostics["strata"]
    assert [s["label"] for s in strata] == ["x=0, w=0", "x=0, w=1", "x=1, w=0", "x=1, w=1"]
    assert strata[2]["w"] == [0]
