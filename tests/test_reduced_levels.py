"""Reduced programs span only the recommendation levels their rules assign.

Each reduced program is checked against the full-support program, which
keeps every treatment level as a recommendation value (the rows of a level
no covariate cell gets read zero), and against HiGHS on that program's raw
per-class form.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulebounds.errors import InfeasibleModelError
from rulebounds.lp_bounds import QUERIES, build_lp, enumerate_response_types, solve_bounds
from rulebounds.model import (
    ROLE_EXTRA_COVARIATE,
    ROLE_INSTRUMENT,
    ROLE_OUTCOME,
    ROLE_RULE_COVARIATE,
    ROLE_TREATMENT,
    CausalModel,
    SpaceShape,
    TreatmentRule,
    VariableSpec,
    build_reduced_model,
)
from rulebounds.strategies import StrategyRequest, reduce_table, reduction_bounds

from conftest import feasible_table, random_joint, scipy_lp_bounds, small_iv_model

X_CARD = 3  # covariate cells enough for a rule over all three levels
# the dense per-class HiGHS reference is built only up to this many classes
HIGHS_MAX_CLASSES = 20_000


def full_support(model, observed, query):
    """The reduced program of ``model`` with every level kept as a recommendation value."""
    shape = replace(build_reduced_model(model), rec_levels=())
    return build_lp(enumerate_response_types(shape), reduce_table(model, shape, observed), query)


def outcome(solve):
    """``(lower, upper)`` of a solve, or ``(worst_constraint, violation_total)`` when it is infeasible."""
    try:
        res = solve()
    except InfeasibleModelError as err:
        return err.worst_constraint, err.violation
    return res.lower, res.upper


@st.composite
def rule_levels(draw, k, kind):
    """Levels over the ``X_CARD`` covariate cells: one level, two of the levels, or every level."""
    if kind == "constant":
        return (draw(st.integers(0, k - 1)),) * X_CARD
    used = draw(st.permutations(range(k)))[: 2 if kind == "two" else k]
    return tuple(draw(st.permutations(used + [draw(st.sampled_from(used))] * (X_CARD - len(used)))))


@st.composite
def reduced_cases(draw):
    """A model over treatment 2–3, 0–3 instrument arms and 0–1 extra covariates, a query and a table."""
    k = draw(st.integers(2, 3))
    arms = draw(st.integers(0, 3))
    extras = draw(st.integers(0, 1))
    rule = draw(rule_levels(k, draw(st.sampled_from(("constant", "two", "all")))))
    guideline_kind = draw(st.sampled_from((None, "constant", "two", "all", "aliased")))
    guideline = None
    if guideline_kind == "aliased":
        guideline = rule
    elif guideline_kind is not None:
        guideline = draw(rule_levels(k, guideline_kind))
    variables = (
        ((VariableSpec("z", arms, ROLE_INSTRUMENT),) if arms else ())
        + (VariableSpec("x", X_CARD, ROLE_RULE_COVARIATE), VariableSpec("a", k, ROLE_TREATMENT))
        + (VariableSpec("y", 2, ROLE_OUTCOME),)
        + ((VariableSpec("w", 2, ROLE_EXTRA_COVARIATE),) if extras else ())
    )
    model = CausalModel(
        variables,
        TreatmentRule.from_table(dict(enumerate(rule)), name="f"),
        None if guideline is None else TreatmentRule.from_table(dict(enumerate(guideline)), name="g"),
    )
    query = draw(st.sampled_from(tuple(QUERIES) if guideline is not None else ("theta_f",)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a random joint mostly breaks an instrument's inequalities; the stratum mixtures never do
    kind = draw(st.sampled_from(("feasible", "zero_stratum", "random")))
    if kind == "random":
        observed = random_joint(rng, variables)
    else:
        observed = feasible_table(rng, model, zero_stratum=kind == "zero_stratum")
    return model, query, observed


@settings(max_examples=150, deadline=None)
@given(reduced_cases())
def test_reduced_program_matches_the_full_support_program(case):
    model, query, observed = case
    shape = build_reduced_model(model)
    reduced = reduce_table(model, shape, observed)
    reference = full_support(model, observed, query)
    # the reduced table is the full-support one without the slices of unassigned levels
    full = reduce_table(model, reference.space.shape, observed).probs
    first = 3 if model.instrument is not None else 2  # recommendations follow [instrument,] treatment, outcome
    for axis, levels in enumerate(shape.rec_levels, start=first):
        full = full.take(levels, axis=axis)
    assert np.array_equal(reduced.probs, full)

    got = outcome(lambda: reduction_bounds(StrategyRequest(model, observed, query)))
    want = outcome(lambda: solve_bounds(reference))
    assert type(got[0]) is type(want[0])
    if isinstance(want[0], str):
        assert got[0] == want[0]
    else:
        assert abs(got[0] - want[0]) <= 1e-12
    assert abs(got[1] - want[1]) <= 1e-12
    if reference.space.class_count <= HIGHS_MAX_CLASSES:
        highs = scipy_lp_bounds(reference)
        if isinstance(want[0], str):
            assert highs is None
        else:
            assert abs(highs[0] - got[0]) <= 1e-9 and abs(highs[1] - got[1]) <= 1e-9


def test_the_study_shape_shrinks_against_a_constant_guideline():
    model = small_iv_model(
        x_card=6, treat_card=3, rule_map={(x,): x // 2 for x in range(6)}, guideline_map={(x,): 0 for x in range(6)}
    )
    shape = build_reduced_model(model)
    assert shape.rec_levels == ((0, 1, 2), (0,))
    space = enumerate_response_types(shape)
    assert (space.class_count, space.merged[0].shape) == (216, (37, 90))
    full = enumerate_response_types(replace(shape, rec_levels=()))
    assert (full.class_count, full.merged[0].shape) == (52_488, (109, 270))


def test_rec_levels_default_to_every_level():
    assert SpaceShape("reduced", 3, 2, "separate") == SpaceShape(
        "reduced", 3, 2, "separate", rec_levels=((0, 1, 2), (0, 1, 2))
    )
    assert SpaceShape("reduced", 2).rec_levels == ((0, 1),)
    assert SpaceShape("stratum", 3).rec_levels == ()


def test_row_labels_read_levels_not_positions():
    # the rule assigns levels 0 and 2, so rule_rec's values 0 and 1 stand for them
    model = small_iv_model(x_card=3, treat_card=3, rule_map={(0,): 0, (1,): 2, (2,): 0})
    shape = build_reduced_model(model)
    assert shape.rec_levels == ((0, 2),)
    observed = random_joint(np.random.default_rng(1), model.variables)
    lp = build_lp(enumerate_response_types(shape), reduce_table(model, shape, observed), "theta_f")
    labels = [lp.space.row_label(row) for row in range(lp.n_arms * lp.n_cells)]
    assert labels[1] == "P(treatment=0, outcome=0, rule_rec=2 | instrument=0)"
    assert {label.split("rule_rec=")[1][0] for label in labels} == {"0", "2"}
