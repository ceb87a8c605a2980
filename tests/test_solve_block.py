"""One checked path from request to simplex, against the public reference assembly, exactly.

Reduction, conditioning and the direct oracle all reach the simplex
through ``lp_bounds.solve_block``, their right-hand sides built by
``lp_bounds.arm_rows``. The references here are the public assembly:
``reduce_table``, ``build_lp`` and ``solve_bounds`` for reduction, and
``with_variables(reorder(...))``, ``build_lp`` and ``solve_bounds`` on the
full space for the oracle. Reports must be ``==``; where one raises, the
other raises the same type and text. A row of a reduced or full key must
give the same endpoints alone, in a block and in a shuffled block. An
unknown query is refused with one text wherever it enters.
"""

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulebounds.lp_bounds import (
    build_lp,
    direct_sharp_bounds,
    enumerate_response_types,
    solve_block,
    solve_bounds,
)
from rulebounds.model import SpaceShape, build_reduced_model
from rulebounds.strategies import StrategyRequest, reduce_table, reduction_bounds
from rulebounds.tables import JointTable, reorder, with_variables

from conftest import feasible_table, small_iv_model
from test_lp_bounds import queries_with_levels
from test_strata_blocks import outcome, random_model

UNKNOWN_QUERY = "unknown query 'bogus'; expected one of ('theta_f', 'theta_g', 'cu')"


def reference_reduction(request):
    """``solve_bounds`` on the reduced table, with the diagnostics only ``reduction_bounds`` adds."""
    reduced = build_reduced_model(request.model)
    table = reduce_table(request.model, reduced, request.observed)
    result = solve_bounds(build_lp(enumerate_response_types(reduced), table, request.query))
    covariates = ", ".join(v.name for v in request.model.rule_covariates)
    result.diagnostics["latent"] = f"confounder x ({covariates})"
    result.diagnostics["observed"] = list(table.names)
    return result


def reference_oracle(request):
    """``solve_bounds`` on the full space, its table renamed to the canonical layout."""
    model = request.model
    shape = SpaceShape("full", model.treatment.cardinality, model.instrument_card, x_cards=model.rule_covariate_cards)
    arm = (model.instrument,) if model.instrument is not None else ()
    source = arm + model.rule_covariates + (model.treatment, model.outcome)
    table = with_variables(reorder(request.observed, [v.name for v in source]), shape.variables)
    guideline = model.guideline.levels(shape.x_cards) if model.guideline is not None else None
    lp = build_lp(
        enumerate_response_types(shape),
        table,
        request.query,
        level=model.rule.levels(shape.x_cards),
        guideline_level=guideline,
    )
    return solve_bounds(lp)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    treat_card=st.integers(2, 3),
    with_instrument=st.booleans(),
    x_cards=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    extra_card=st.integers(0, 2),
    zero_arm=st.booleans(),
    with_guideline=st.booleans(),
    query=st.sampled_from(["theta_f", "theta_g", "cu"]),
    feasible=st.booleans(),
)
def test_reduction_and_oracle_equal_the_reference_assembly(
    seed, treat_card, with_instrument, x_cards, extra_card, zero_arm, with_guideline, query, feasible
):
    rng = np.random.default_rng(seed)
    with_guideline = with_guideline or query != "theta_f"
    model = random_model(rng, treat_card, with_instrument, x_cards, extra_card, with_guideline)
    if feasible:
        strata = prod(v.cardinality for v in model.rule_covariates + model.extra_covariates)
        probs = feasible_table(rng, model, strata > 1 and rng.random() < 0.5).probs.copy()
    else:  # concentrated tables: instrumented programs are often infeasible
        probs = rng.dirichlet(np.full(prod(v.cardinality for v in model.variables), 0.3))
        probs = probs.reshape([v.cardinality for v in model.variables])
    if zero_arm and with_instrument:  # no record of one instrument arm anywhere
        np.moveaxis(probs, model.variables.index(model.instrument), 0)[rng.integers(2)] = 0.0
    request = StrategyRequest(model, JointTable(model.variables, probs / probs.sum()), query)
    assert outcome(reduction_bounds, request) == outcome(reference_reduction, request)
    if extra_card:
        with pytest.raises(ValueError, match="direct oracle does not support extra covariates"):
            direct_sharp_bounds(request)
    else:
        assert outcome(direct_sharp_bounds, request) == outcome(reference_oracle, request)


KEYS = [
    (shape, query, kwargs)
    for shape in (
        SpaceShape("reduced", 3, instrument_card=2, guideline_mode="separate"),
        SpaceShape("reduced", 2, guideline_mode="separate", extra_cards=(2,)),
        SpaceShape("full", 2, instrument_card=2, x_cards=(3,)),
        SpaceShape("full", 3, x_cards=(2,)),
    )
    for query, kwargs in queries_with_levels(shape)
]


@pytest.mark.parametrize("shape,query,kwargs", KEYS, ids=lambda v: v.kind if isinstance(v, SpaceShape) else None)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), support=st.integers(1, 8))
def test_a_row_solves_alike_alone_in_a_block_and_shuffled(shape, query, kwargs, seed, n, support):
    rng = np.random.default_rng(seed)
    A = enumerate_response_types(shape).merged[0]
    # feasible rows: mixtures of a few columns (degenerate) or of every column
    b = np.empty((n, A.shape[0]))
    for row in b:
        cols = rng.choice(A.shape[1], size=min(support, A.shape[1]), replace=False)
        row[...] = A[:, cols] @ rng.dirichlet(np.ones(cols.size))
    level, guideline_level = kwargs.get("level"), kwargs.get("guideline_level")
    alone = [solve_block(shape, query, level, guideline_level, row[np.newaxis]) for row in b]
    block = solve_block(shape, query, level, guideline_level, b)
    order = rng.permutation(n)
    shuffled = solve_block(shape, query, level, guideline_level, b[order])
    assert block.infeasible is shuffled.infeasible is None
    assert [(s.lower[0], s.upper[0]) for s in alone] == list(zip(block.lower, block.upper))
    assert list(zip(block.lower[order], block.upper[order])) == list(zip(shuffled.lower, shuffled.upper))
    assert block.pivots == shuffled.pivots == sum(s.pivots for s in alone)
    assert block.solve == shuffled.solve == ("warm" if all(s.solve == "warm" for s in alone) else "cold")


def test_an_unknown_query_is_refused_wherever_it_enters(rng):
    model = small_iv_model(x_card=3)
    observed = feasible_table(rng, model, zero_stratum=False)
    with pytest.raises(ValueError) as request_error:
        StrategyRequest(model, observed, "bogus")
    stratum = SpaceShape("stratum", 2, instrument_card=2)
    with pytest.raises(ValueError) as block_error:
        solve_block(stratum, "bogus", 1, None, np.full((1, 9), 0.25))
    reduced = build_reduced_model(model)
    with pytest.raises(ValueError) as build_error:
        build_lp(enumerate_response_types(reduced), reduce_table(model, reduced, observed), "bogus")
    assert str(request_error.value) == str(block_error.value) == str(build_error.value) == UNKNOWN_QUERY
