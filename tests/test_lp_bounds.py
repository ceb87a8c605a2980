"""Response-type space structure, LP assembly, and bound correctness.

The heavy cross-checks here recompute per-class behavior from the explicit
function tables (slow pure-Python path) and compare against the cells and
objectives broadcast from the space's factor tables: every class of the
small shapes, and a seeded sample on the study and oracle shapes. Others
run scipy's solver on the raw un-merged program to confirm the column
aggregation loses nothing.
"""

import gc
import tracemalloc
import weakref
from dataclasses import fields
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulebounds import lp_bounds, simplex
from rulebounds.errors import DataError, InfeasibleModelError, ProgramTooLargeError, SolverError
from rulebounds.lp_bounds import (
    MAX_TABLEAU_BYTES,
    QUERIES,
    SPACE_CACHE_SIZE,
    BoundsResult,
    SpaceShape,
    _space,
    build_lp,
    class_cells,
    direct_sharp_bounds,
    enumerate_response_types,
    solve_bounds,
)
from rulebounds.model import (
    CausalModel,
    TreatmentRule,
    VariableSpec,
    build_reduced_model,
    build_stratum_model,
)
from rulebounds.strategies import AGREE_TOL, StrategyRequest, conditioning_bounds, reduction_bounds
from rulebounds.tables import JointTable, condition, marginalize

from conftest import (
    binary_reduced_specs,
    class_at,
    closed_form_binary_reduction,
    feasible_table,
    iter_classes,
    manski_stratum_bounds,
    program_columns,
    random_probs,
    reference_costs,
    scipy_lp_bounds,
    small_iv_model,
    small_noiv_model,
)

PAPER_SHAPE = SpaceShape("full", 3, instrument_card=2, x_cards=(6,))

_ROLE_FOR = {
    "instrument": "instrument",
    "treatment": "treatment",
    "outcome": "outcome",
    "rule_rec": "recommendation",
    "guideline_rec": "recommendation",
}


def _spec(name, card):
    role = _ROLE_FOR.get(name)
    if role is None:
        role = "rule_covariate" if name.startswith("x") else "extra_covariate"
    return VariableSpec(name, card, role)


def table_for_space(space, probs):
    """Wrap a probability array as a JointTable carrying canonical names."""
    if space.shape.instrument_card:
        names = ("instrument",) + space.cell_names
        cards = (space.shape.instrument_card,) + space.cell_cards
    else:
        names = space.cell_names
        cards = space.cell_cards
    specs = tuple(_spec(n, c) for n, c in zip(names, cards))
    return JointTable(specs, np.asarray(probs, dtype=float).reshape(cards))


def uniform_table(space):
    """Equal mass on every (arm, cell): enough for build_lp, which never checks feasibility."""
    size = space.n_arms * space.n_cells
    return table_for_space(space, np.full(size, 1.0 / size))


def mixture_table(space, rng, q=None):
    """A table guaranteed feasible for the space: generated by a class mixture."""
    if q is None:
        q = rng.dirichlet(np.ones(space.class_count))
    cells = class_cells(space)
    per_arm = np.zeros((space.n_arms, space.n_cells))
    for z in range(space.n_arms):
        np.add.at(per_arm[z], cells[z], q)
    if space.shape.instrument_card:
        p_z = rng.dirichlet(np.ones(space.shape.instrument_card))
        probs = per_arm * p_z[:, None]
    else:
        probs = per_arm[0]
    return table_for_space(space, probs), q


# ---------------------------------------------------------------------------
# class counting


FROZEN_COUNTS = [
    (SpaceShape("reduced", 2), 16),
    (SpaceShape("reduced", 2, guideline_mode="aliased"), 16),
    (SpaceShape("reduced", 3, instrument_card=2), 216),
    (SpaceShape("reduced", 3, instrument_card=2, guideline_mode="separate"), 52488),
    (SpaceShape("reduced", 2, guideline_mode="separate"), 64),
    (SpaceShape("stratum", 2, instrument_card=2), 16),
    (SpaceShape("stratum", 3, instrument_card=2), 72),
    (SpaceShape("stratum", 3), 24),
    (SpaceShape("stratum", 2), 8),
    (SpaceShape("full", 2, x_cards=(2,)), 128),
    (PAPER_SHAPE, 835_884_417_024),
]


@pytest.mark.parametrize("shape,expected", FROZEN_COUNTS)
def test_frozen_class_counts(shape, expected):
    # a space builds no arrays until its cells are read, so even the paper shape is cheap here
    assert _space(shape).class_count == expected


def test_count_matches_iteration_for_small_spaces():
    for shape, expected in FROZEN_COUNTS:
        if expected > 1000:
            continue
        space = enumerate_response_types(shape)
        listed = list(iter_classes(space))
        assert len(listed) == expected == space.class_count
        assert len(set(listed)) == expected  # no duplicates


def test_class_at_matches_iteration_for_small_spaces():
    for shape, expected in FROZEN_COUNTS:
        if expected > 1000:
            continue
        space = enumerate_response_types(shape)
        assert [class_at(space, j) for j in range(expected)] == list(iter_classes(space))


def test_budget_refusal_reports_bytes_and_budget(monkeypatch):
    # the study's reduction program: 648 response profiles over 2 arms, merged into 109 rows × 270 columns
    shape = SpaceShape("reduced", 3, instrument_card=2, guideline_mode="separate")
    profile_bytes = 8 * 648 * (2 + 8)
    tableau_bytes = 8 * (109 + 1) * (270 + 109 + 1)
    for budget, needed, what in (
        (profile_bytes - 1, profile_bytes, "merging its 648 response profiles"),
        (profile_bytes, tableau_bytes, "the simplex tableau of its 109 rows × 270 columns"),
    ):
        _space.cache_clear()
        monkeypatch.setattr(lp_bounds, "MAX_TABLEAU_BYTES", budget)
        space = enumerate_response_types(shape)
        with pytest.raises(ProgramTooLargeError) as exc:
            space.merged
        assert (exc.value.needed, exc.value.budget) == (needed, budget)
        message = str(exc.value)
        assert message.startswith(f"the reduction program is too large: {what} needs {needed:,} bytes")
        assert f"over the budget of {budget:,} bytes" in message
        assert "merged" not in vars(space)  # nothing is cached, so a later read checks again
    monkeypatch.setattr(lp_bounds, "MAX_TABLEAU_BYTES", tableau_bytes)
    assert space.merged[0].shape == (109, 270)
    # the class count alone refuses nothing: the paper shape's 835,884,417,024 classes merge into 73 × 180
    monkeypatch.undo()
    assert MAX_TABLEAU_BYTES == lp_bounds.MAX_TABLEAU_BYTES == 256 * 2**20
    assert enumerate_response_types(PAPER_SHAPE).merged[0].shape == (73, 180)


def test_space_is_cached_and_frozen():
    a = enumerate_response_types(SpaceShape("stratum", 3, instrument_card=2))
    b = enumerate_response_types(SpaceShape("stratum", 3, instrument_card=2))
    assert a is b
    cells = class_cells(a)
    with pytest.raises(ValueError):
        cells[0, 0] = 5


def test_space_cache_stays_bounded(rng):
    shape = SpaceShape("stratum", 2, instrument_card=3)
    first = enumerate_response_types(shape)
    table, _ = mixture_table(first, rng)
    solve_bounds(build_lp(first, table, "theta_f", level=1))
    merged = first.merged
    # single-level extra covariates give distinct 16-class shapes
    for n in range(1, SPACE_CACHE_SIZE + 2):
        enumerate_response_types(SpaceShape("reduced", 2, extra_cards=(1,) * n))
    assert _space.cache_info().currsize == SPACE_CACHE_SIZE
    again = enumerate_response_types(shape)
    assert again is not first
    # the evicted space's merge went with it; a solve rebuilds it equal and read-only
    assert "merged" not in vars(again)
    solve_bounds(build_lp(again, table, "theta_f", level=1))
    for old, new in zip(merged, vars(again)["merged"]):
        np.testing.assert_array_equal(new, old, strict=True)
        assert not new.flags.writeable


def test_solving_leaves_the_cached_grouping_intact(rng):
    # the cached merge is read-only, and every query's solve reuses it and leaves it as it was
    space = enumerate_response_types(SpaceShape("stratum", 3, instrument_card=2))
    table, _ = mixture_table(space, rng)
    solve_bounds(build_lp(space, table, "cu", level=2, guideline_level=0))
    merged = space.merged
    before = [array.tobytes() for array in merged]
    assert not any(array.flags.writeable for array in merged)
    for query, kwargs in queries_with_levels(space.shape):
        table, _ = mixture_table(space, rng)
        solve_bounds(build_lp(space, table, query, **kwargs))
    assert space.merged is merged
    assert [array.tobytes() for array in merged] == before


def test_full_space_stores_no_objectives(rng):
    # no space keeps a class-length array, whatever its kind: only its merge over response profiles
    for shape in (*SAMPLED_SHAPES, SpaceShape("full", 2, instrument_card=2, x_cards=(2,)), SpaceShape("stratum", 3)):
        space = enumerate_response_types(shape)
        for query, kwargs in queries_with_levels(shape):
            solve_bounds(build_lp(space, uniform_table(space), query, **kwargs))
        assert set(vars(space)) == {f.name for f in fields(space)} | {"merged"}
        A, inverse = space.merged
        # a full space keeps no record; a reduced record, or a stratum record with all-zero costs, also
        # keeps its warm-start tableau, sized by the program
        assert (not space.records) == (shape.kind == "full")
        for _, c_min, c_max, start in space.records.values():
            assert (start is not None) == (shape.kind == "reduced" or not (c_min.any() or c_max.any()))
            if start is not None:
                assert start.tableau.T.shape == (A.shape[0] + 1, A.shape[1] + A.shape[0] + 1)
        k = shape.treat_card
        assert inverse.shape == (prod(space.root_cards), k**space.n_arms, 2**k)
        assert A.shape == (space.n_arms * space.n_cells + 1, inverse.max() + 1)
        if shape.kind != "stratum":  # a stratum's classes are its profiles
            assert 8 * inverse.size <= space.class_count


def test_built_models_carry_their_shape():
    model = small_iv_model(x_card=3, treat_card=2, z_card=2)
    assert build_reduced_model(model) == SpaceShape("reduced", 2, instrument_card=2)
    guided = small_iv_model(guideline_map={(0,): 0, (1,): 0})
    # each recommendation spans the levels its rule assigns: guideline_rec has one value
    assert build_reduced_model(guided) == SpaceShape("reduced", 2, 2, "separate", rec_levels=((0, 1), (0,)))
    assert [v.cardinality for v in build_reduced_model(guided).variables] == [2, 2, 2, 2, 1]
    aliased = small_noiv_model(guideline_map={(0,): 0, (1,): 1})
    assert build_reduced_model(aliased) == SpaceShape("reduced", 2, guideline_mode="aliased")
    constant = small_noiv_model(rule_map={(0,): 1, (1,): 1}, guideline_map={(0,): 1, (1,): 1})
    assert build_reduced_model(constant) == SpaceShape("reduced", 2, guideline_mode="aliased", rec_levels=((1,),))
    stratum = build_stratum_model(model, (1,)).shape
    assert stratum == SpaceShape("stratum", 2, instrument_card=2)
    assert enumerate_response_types(build_stratum_model(model, (1,))).shape == stratum
    observed = feasible_table(np.random.default_rng(3), model, zero_stratum=False)
    oracle = direct_sharp_bounds(StrategyRequest(model, observed))
    full = SpaceShape("full", 2, instrument_card=2, x_cards=(3,))
    assert oracle.diagnostics["class_count"] == _space(full).class_count == 3 * 2**6 * 2**6


# ---------------------------------------------------------------------------
# wiring derived by name from the shape's canonical layout


# Each entry: shape, then (names, cards) of the roots, the treatment's parents,
# the outcome's parents and the cells, then the a- and y-rest root positions
# and the cell sources. The explicit-class cross-checks below read these same
# fields, so only literals can catch a change in how a space is wired.
FROZEN_WIRING = [
    (
        SpaceShape("reduced", 2),
        (("rule_rec",), (2,)),
        ((), ()),
        (("treatment",), (2,)),
        (("treatment", "outcome", "rule_rec"), (2, 2, 2)),
        ((), (), ("treatment", "outcome", 0)),
    ),
    (
        SpaceShape("reduced", 2, guideline_mode="aliased"),
        (("rule_rec",), (2,)),
        ((), ()),
        (("treatment",), (2,)),
        (("treatment", "outcome", "rule_rec"), (2, 2, 2)),
        ((), (), ("treatment", "outcome", 0)),
    ),
    (
        SpaceShape("reduced", 2, guideline_mode="separate"),
        (("rule_rec", "guideline_rec"), (2, 2)),
        (("guideline_rec",), (2,)),
        (("treatment",), (2,)),
        (("treatment", "outcome", "rule_rec", "guideline_rec"), (2, 2, 2, 2)),
        ((1,), (), ("treatment", "outcome", 0, 1)),
    ),
    (
        SpaceShape("reduced", 2, instrument_card=2, guideline_mode="separate"),
        (("rule_rec", "guideline_rec"), (2, 2)),
        (("instrument", "guideline_rec"), (2, 2)),
        (("treatment",), (2,)),
        (("treatment", "outcome", "rule_rec", "guideline_rec"), (2, 2, 2, 2)),
        ((1,), (), ("treatment", "outcome", 0, 1)),
    ),
    (
        SpaceShape("reduced", 3, instrument_card=2),
        (("rule_rec",), (3,)),
        (("instrument",), (2,)),
        (("treatment",), (3,)),
        (("treatment", "outcome", "rule_rec"), (3, 2, 3)),
        ((), (), ("treatment", "outcome", 0)),
    ),
    (
        SpaceShape("reduced", 2, guideline_mode="separate", extra_cards=(2,)),
        (("rule_rec", "guideline_rec", "extra0"), (2, 2, 2)),
        (("guideline_rec", "extra0"), (2, 2)),
        (("treatment", "extra0"), (2, 2)),
        (("treatment", "outcome", "rule_rec", "guideline_rec", "extra0"), (2, 2, 2, 2, 2)),
        ((1, 2), (2,), ("treatment", "outcome", 0, 1, 2)),
    ),
    (
        SpaceShape("stratum", 2),
        ((), ()),
        ((), ()),
        (("treatment",), (2,)),
        (("treatment", "outcome"), (2, 2)),
        ((), (), ("treatment", "outcome")),
    ),
    (
        SpaceShape("stratum", 3),
        ((), ()),
        ((), ()),
        (("treatment",), (3,)),
        (("treatment", "outcome"), (3, 2)),
        ((), (), ("treatment", "outcome")),
    ),
    (
        SpaceShape("stratum", 2, instrument_card=2),
        ((), ()),
        (("instrument",), (2,)),
        (("treatment",), (2,)),
        (("treatment", "outcome"), (2, 2)),
        ((), (), ("treatment", "outcome")),
    ),
    (
        SpaceShape("stratum", 3, instrument_card=2),
        ((), ()),
        (("instrument",), (2,)),
        (("treatment",), (3,)),
        (("treatment", "outcome"), (3, 2)),
        ((), (), ("treatment", "outcome")),
    ),
    (
        SpaceShape("full", 2, x_cards=(2,)),
        (("x0",), (2,)),
        (("x0",), (2,)),
        (("treatment", "x0"), (2, 2)),
        (("x0", "treatment", "outcome"), (2, 2, 2)),
        ((0,), (0,), (0, "treatment", "outcome")),
    ),
    (
        SpaceShape("full", 2, instrument_card=2, x_cards=(2,)),
        (("x0",), (2,)),
        (("instrument", "x0"), (2, 2)),
        (("treatment", "x0"), (2, 2)),
        (("x0", "treatment", "outcome"), (2, 2, 2)),
        ((0,), (0,), (0, "treatment", "outcome")),
    ),
]


@pytest.mark.parametrize(
    "shape,roots,a_parents,y_parents,cells,sources",
    FROZEN_WIRING,
    ids=[f"{entry[0].kind}{i}" for i, entry in enumerate(FROZEN_WIRING)],
)
def test_frozen_wiring(shape, roots, a_parents, y_parents, cells, sources):
    space = enumerate_response_types(shape)
    assert (space.root_names, space.root_cards) == roots
    assert (space.a_parent_names, space.a_parent_cards) == a_parents
    assert (space.y_parent_names, space.y_parent_cards) == y_parents
    assert (space.cell_names, space.cell_cards) == cells
    assert (space.a_rest_root_positions, space.y_rest_root_positions, space.cell_sources) == sources
    # the instrument, if any, leads the canonical layout, and the cells follow it
    layout = tuple((v.name, v.cardinality) for v in shape.variables)
    arm = (("instrument", shape.instrument_card),) if shape.instrument_card else ()
    assert layout == arm + tuple(zip(*cells))


# ---------------------------------------------------------------------------
# explicit-class cross-checks of the vectorized code path


def explicit_cells(space, cls):
    """Per-arm observed cell for one explicit class, recomputed from its maps."""
    roots = dict(zip(space.root_names, cls.roots))
    arms = range(space.shape.instrument_card) if space.shape.instrument_card else [None]
    out = []
    for z in arms:
        idx = 0
        for name, card in zip(space.a_parent_names, space.a_parent_cards):
            value = z if name == "instrument" else roots[name]
            idx = idx * card + value
        treat = cls.a_map[idx]
        idy = 0
        for name, card in zip(space.y_parent_names, space.y_parent_cards):
            value = treat if name == "treatment" else roots[name]
            idy = idy * card + value
        outcome = cls.y_map[idy]
        cell = 0
        for src, card in zip(space.cell_sources, space.cell_cards):
            if src == "treatment":
                comp = treat
            elif src == "outcome":
                comp = outcome
            else:
                comp = cls.roots[src]
            cell = cell * card + comp
        out.append(cell)
    return out


def explicit_theta_coef(space, cls, side, level, guideline_level, rule, guideline):
    """Objective coefficient for one class: the outcome under the assigned level."""
    roots = dict(zip(space.root_names, cls.roots))
    if space.shape.kind == "stratum":
        lvl = level if side == "f" else guideline_level
    elif space.shape.kind == "reduced":
        if side == "f":
            lvl = roots["rule_rec"]
        else:
            lvl = roots.get("guideline_rec", roots["rule_rec"])
    else:
        chosen = rule if side == "f" else guideline
        lvl = chosen.level_for(tuple(cls.roots))
    idy = 0
    for name, card in zip(space.y_parent_names, space.y_parent_cards):
        value = lvl if name == "treatment" else roots[name]
        idy = idy * card + value
    return cls.y_map[idy]


CROSSCHECK_SHAPES = [
    SpaceShape("reduced", 2),
    SpaceShape("reduced", 2, instrument_card=2, guideline_mode="separate"),
    SpaceShape("reduced", 3, instrument_card=2),
    SpaceShape("reduced", 2, guideline_mode="separate", extra_cards=(2,)),
    SpaceShape("stratum", 3, instrument_card=2),
    SpaceShape("stratum", 2),
    SpaceShape("full", 2, x_cards=(2,)),
    SpaceShape("full", 2, instrument_card=2, x_cards=(2,)),
]


@pytest.mark.parametrize("shape", CROSSCHECK_SHAPES)
def test_vectorized_cells_match_explicit_enumeration(shape):
    space = enumerate_response_types(shape)
    cells = class_cells(space)
    assert cells.shape == (space.n_arms, space.class_count)
    assert cells.min() >= 0 and cells.max() < space.n_cells
    for j, cls in enumerate(iter_classes(space)):
        expected = explicit_cells(space, cls)
        for z in range(space.n_arms):
            assert cells[z, j] == expected[z], (shape, j, z, cls)


@pytest.mark.parametrize(
    "shape",
    [
        SpaceShape("reduced", 2, guideline_mode="separate"),
        SpaceShape("reduced", 2, instrument_card=2, guideline_mode="separate"),
        SpaceShape("stratum", 3, instrument_card=2),
        SpaceShape("full", 2, x_cards=(2,)),
    ],
)
def test_objective_matches_explicit_enumeration(shape, rng):
    space = enumerate_response_types(shape)
    table, _ = mixture_table(space, rng)
    rule = TreatmentRule.from_table({(0,): 0, (1,): 1}, name="f")
    guideline = TreatmentRule.from_table({(0,): 1, (1,): 1}, name="g")
    kwargs = {}
    if shape.kind == "stratum":
        kwargs = {"level": 1, "guideline_level": 0}
    elif shape.kind == "full":
        kwargs = {"level": rule.levels(shape.x_cards), "guideline_level": guideline.levels(shape.x_cards)}
    for query in ("theta_f", "theta_g", "cu"):
        lp = build_lp(space, table, query, **kwargs)
        for j, cls in enumerate(iter_classes(space)):
            f = explicit_theta_coef(space, cls, "f", 1, 0, rule, guideline)
            g = explicit_theta_coef(space, cls, "g", 1, 0, rule, guideline)
            want = {"theta_f": f, "theta_g": g, "cu": f - g}[query]
            assert lp.objective[j] == want, (query, j, cls)


# the 52,488-class study shape with every recommendation level and the 1,572,864-class
# oracle shape are too large to enumerate explicitly, so a seeded sample of their classes
# is checked instead
SAMPLED_SHAPES = [
    SpaceShape("reduced", 3, 2, "separate"),
    SpaceShape("full", 2, x_cards=(6,)),
]


@pytest.mark.parametrize("shape", SAMPLED_SHAPES, ids=["study", "oracle"])
def test_sampled_classes_match_explicit_enumeration(shape):
    space = enumerate_response_types(shape)
    sample = np.random.default_rng(20261018).choice(space.class_count, size=500, replace=False)
    table = uniform_table(space)
    rule = TreatmentRule.from_table({(x,): x % 2 for x in range(6)}, name="f")
    guideline = TreatmentRule.from_table({(x,): int(x < 3) for x in range(6)}, name="g")
    full = {"level": rule.levels((6,)), "guideline_level": guideline.levels((6,))}
    kwargs = full if shape.kind == "full" else {}
    objectives = {q: build_lp(space, table, q, **kwargs).objective for q in ("theta_f", "theta_g", "cu")}
    cells = class_cells(space)
    for j in sample.tolist():
        cls = class_at(space, j)
        assert cells[:, j].tolist() == explicit_cells(space, cls), (j, cls)
        f = explicit_theta_coef(space, cls, "f", None, None, rule, guideline)
        g = explicit_theta_coef(space, cls, "g", None, None, rule, guideline)
        want = {"theta_f": f, "theta_g": g, "cu": f - g}
        assert {q: obj[j] for q, obj in objectives.items()} == want, (j, cls)


def _traced_peak(build):
    """Peak bytes tracemalloc sees while ``build`` runs, its result included."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_cells_and_objective_stay_within_four_words_per_class():
    # per-class arrays are broadcast from small factor tables, so building one
    # holds at most a few int64 words per class at any time
    space = enumerate_response_types(SpaceShape("full", 2, x_cards=(6,)))
    budget = 4 * 8 * space.class_count
    assert _traced_peak(lambda: class_cells(space)) < budget
    table = uniform_table(space)
    rule = TreatmentRule.from_table({(x,): x % 2 for x in range(6)}, name="f")
    guideline = TreatmentRule.from_table({(x,): 0 for x in range(6)}, name="g")
    levels = {"level": rule.levels((6,)), "guideline_level": guideline.levels((6,))}
    peak = _traced_peak(lambda: build_lp(space, table, "cu", **levels).objective)
    assert peak < budget


@pytest.mark.parametrize(
    "model",
    [
        small_noiv_model(x_card=6, guideline_map={(x,): 0 for x in range(6)}),
        small_iv_model(x_card=5, z_card=2, guideline_map={(x,): 0 for x in range(5)}),
    ],
    ids=["1572864_classes", "5242880_classes"],
)
def test_direct_oracle_streams_its_classes_in_bounded_memory(model):
    # a space an earlier test cached with its cells would hide what the oracle keeps
    _space.cache_clear()
    observed = feasible_table(np.random.default_rng(11), model, zero_stratum=False)
    results = []
    peak = _traced_peak(lambda: results.append(direct_sharp_bounds(StrategyRequest(model, observed, "cu"))))
    assert peak < 16 * 2**20
    shape = SpaceShape("full", 2, model.instrument_card, x_cards=model.rule_covariate_cards)
    assert results[0].diagnostics["class_count"] == _space(shape).class_count > 10**6
    assert all(array.size < 10**4 for array in _space(shape).merged)


def test_reduced_program_streams_its_classes_in_bounded_memory():
    # the study's shape with every recommendation level: 52,488 classes merged over 648 response profiles
    _space.cache_clear()
    space = enumerate_response_types(SpaceShape("reduced", 3, instrument_card=2, guideline_mode="separate"))
    lp = build_lp(space, uniform_table(space), "cu")
    slack = 64 * 2**10  # a few words per profile, the columns' coefficients and the RHS
    # the first solve builds the merge and keeps A; one float per class alone is 410 KiB
    first = _traced_peak(lambda: solve_bounds(lp))
    A, c_min, c_max = program_columns(lp)
    b = np.concatenate([lp.rhs.ravel(), [1.0]])
    simplex_peak = _traced_peak(lambda: simplex.minimize_pair(c_min, c_max, A, b))
    # its record also keeps the query's warm start: one tableau, sized by the program
    kept = space.records["cu", None, None][3].tableau.T.nbytes
    assert kept == 8 * (A.shape[0] + 1) * (A.shape[1] + A.shape[0] + 1)
    assert first < A.nbytes + kept + simplex_peak + slack
    assert _traced_peak(lambda: solve_bounds(lp)) < simplex_peak + slack
    # afterwards the space keeps only its merge and the query's record, and the program built no per-class array
    assert set(vars(space)) == {f.name for f in fields(space)} | {"merged"}
    assert list(space.records) == [("cu", None, None)]
    assert space.merged[1].size == 648 and space.merged[0] is A
    assert not {"cells", "objective"} & set(vars(lp))


def test_reduced_first_solve_peaks_under_three_tableaus():
    # a record's first solve holds its kept warm-start tableau, the copy re-solved from it and the pivots'
    # temporaries; the merge is built beforehand, so A is not counted
    _space.cache_clear()
    space = enumerate_response_types(SpaceShape("reduced", 3, instrument_card=2, guideline_mode="separate"))
    lp = build_lp(space, uniform_table(space), "cu")
    m, n = space.merged[0].shape
    assert _traced_peak(lambda: solve_bounds(lp)) < 3 * 8 * (m + 1) * (n + m + 1)


@pytest.mark.parametrize(
    "model",
    [
        small_noiv_model(x_card=6, guideline_map={(x,): 0 for x in range(6)}),
        small_iv_model(x_card=5, z_card=2, guideline_map={(x,): 0 for x in range(5)}),
        small_iv_model(x_card=6, z_card=2, guideline_map={(x,): int(x < 3) for x in range(6)}),
        small_noiv_model(x_card=8, guideline_map={(x,): int(x < 3) for x in range(8)}),
    ],
    ids=["1572864_classes", "5242880_classes", "100663296_classes", "134217728_classes"],
)
def test_direct_oracle_solves_in_under_a_mebibyte(model):
    # the solve never walks the classes: a space of 10^8 classes costs what its
    # few dozen response profiles do, and the oracle agrees with conditioning
    _space.cache_clear()
    observed = feasible_table(np.random.default_rng(13), model, zero_stratum=False)
    results = []
    peak = _traced_peak(lambda: results.append(direct_sharp_bounds(StrategyRequest(model, observed, "cu"))))
    assert peak < 2**20
    oracle = results[0]
    cond = conditioning_bounds(StrategyRequest(model, observed, "cu"))
    assert abs(oracle.lower - cond.lower) <= AGREE_TOL
    assert abs(oracle.upper - cond.upper) <= AGREE_TOL


def test_objective_coefficient_ranges(rng):
    space = enumerate_response_types(SpaceShape("reduced", 3, instrument_card=2, guideline_mode="separate"))
    table, _ = mixture_table(space, rng)
    lp_f = build_lp(space, table, "theta_f")
    lp_cu = build_lp(space, table, "cu")
    assert set(np.unique(lp_f.objective)) <= {0.0, 1.0}
    assert set(np.unique(lp_cu.objective)) <= {-1.0, 0.0, 1.0}
    assert not lp_f.objective.flags.writeable


# ---------------------------------------------------------------------------
# LP assembly invariants


def test_lp_rhs_is_conditional_per_arm(rng):
    space = enumerate_response_types(SpaceShape("reduced", 2, instrument_card=3))
    table, _ = mixture_table(space, rng)
    lp = build_lp(space, table, "theta_f")
    assert lp.rhs.shape == (3, space.n_cells)
    np.testing.assert_allclose(lp.rhs.sum(axis=1), 1.0, atol=1e-12)
    # each class occupies exactly one cell per arm, so column sums in the
    # stacked incidence matrix are one per arm
    for z in range(3):
        counts = np.bincount(lp.cells[z], minlength=space.n_cells)
        assert counts.sum() == space.class_count


def test_row_labels_name_cells_and_arms(rng):
    space = enumerate_response_types(SpaceShape("reduced", 2, instrument_card=2))
    table, _ = mixture_table(space, rng)
    lp = build_lp(space, table, "theta_f")
    assert lp.space.row_label(0) == "P(treatment=0, outcome=0, rule_rec=0 | instrument=0)"
    assert lp.space.row_label(lp.n_cells) == "P(treatment=0, outcome=0, rule_rec=0 | instrument=1)"
    assert lp.space.row_label(2 * lp.n_cells) == "total probability mass"

    noiv = enumerate_response_types(SpaceShape("stratum", 2))
    t2 = table_for_space(noiv, random_probs(rng, (2, 2)))
    lp2 = build_lp(noiv, t2, "theta_f", level=0)
    assert lp2.space.row_label(1) == "P(treatment=0, outcome=1)"


def test_build_lp_rejects_malformed_queries(rng):
    red = enumerate_response_types(SpaceShape("reduced", 2))
    t = table_for_space(red, random_probs(rng, (2, 2, 2)))
    with pytest.raises(ValueError, match="unknown query"):
        build_lp(red, t, "theta_q")
    with pytest.raises(ValueError, match="needs a guideline"):
        build_lp(red, t, "cu")
    with pytest.raises(ValueError, match="needs a guideline"):
        build_lp(red, t, "theta_g")

    strat = enumerate_response_types(SpaceShape("stratum", 2))
    t2 = table_for_space(strat, random_probs(rng, (2, 2)))
    with pytest.raises(ValueError, match="assigned level"):
        build_lp(strat, t2, "theta_f")
    with pytest.raises(ValueError, match="guideline"):
        build_lp(strat, t2, "cu", level=0)
    with pytest.raises(ValueError, match="outside range"):
        build_lp(strat, t2, "theta_f", level=5)

    full = enumerate_response_types(SpaceShape("full", 2, x_cards=(2,)))
    t3 = table_for_space(full, random_probs(rng, (2, 2, 2)))
    with pytest.raises(ValueError, match="treatment rule"):
        build_lp(full, t3, "theta_f")


# (stratum level, full level over x_cards=(2,), message) for each refused kind of level
MALFORMED_LEVELS = {
    "missing": (None, None, "assigned level"),
    "mis-shaped": ([1], np.array([0, 1, 2]), "has shape"),
    "out of range": (-1, np.array([0, 3]), "outside range"),
    "float": (1.5, np.array([0.0, 1.0]), "non-integer value"),
    "bool": (True, np.array([True, False]), "non-integer value"),
}


@pytest.mark.parametrize("defect", list(MALFORMED_LEVELS))
@pytest.mark.parametrize("kind", ["stratum", "full"])
def test_build_lp_refuses_malformed_levels(kind, defect):
    x_cards = (2,) if kind == "full" else ()
    space = enumerate_response_types(SpaceShape(kind, 3, instrument_card=2, x_cards=x_cards))
    table = uniform_table(space)
    stratum_bad, full_bad, message = MALFORMED_LEVELS[defect]
    bad, good = (stratum_bad, 2) if kind == "stratum" else (full_bad, np.array([0, 2]))
    with pytest.raises(ValueError, match=message):
        build_lp(space, table, "cu", level=bad, guideline_level=good)
    with pytest.raises(ValueError, match=message if defect != "missing" else "guideline"):
        build_lp(space, table, "cu", level=good, guideline_level=bad)
    build_lp(space, table, "cu", level=good, guideline_level=good)


def test_build_lp_accepts_integer_level_forms(rng):
    # numpy and 0-d integers are checked to the plain int, and give the same merged program
    space = enumerate_response_types(SpaceShape("stratum", 3))
    table = uniform_table(space)
    plain = program_columns(build_lp(space, table, "theta_f", level=1))
    for level in (np.int64(1), np.uint8(1), np.array(1)):
        lp = build_lp(space, table, "theta_f", level=level)
        assert type(lp.level) is int
        for got, want in zip(program_columns(lp), plain):
            np.testing.assert_array_equal(got, want, strict=True)
    full = enumerate_response_types(SpaceShape("full", 3, x_cards=(2,)))
    table = uniform_table(full)
    want = build_lp(full, table, "theta_f", level=np.array([0, 2]))
    for level in ([0, 2], np.array([0, 2], dtype=np.uint8)):
        lp = build_lp(full, table, "theta_f", level=level)
        np.testing.assert_array_equal(lp.objective, want.objective)
        for got, expected in zip(program_columns(lp), program_columns(want)):
            np.testing.assert_array_equal(got, expected, strict=True)


def test_build_lp_checks_level_entries_not_their_dtype():
    # an object array of ints is a level; None is no int, and an int past int64 is outside the levels
    full = enumerate_response_types(SpaceShape("full", 3, x_cards=(2,)))
    table = uniform_table(full)
    want = build_lp(full, table, "theta_f", level=[0, 2])
    lp = build_lp(full, table, "theta_f", level=np.array([0, 2], dtype=object))
    assert lp.level.dtype == np.int64
    for got, expected in zip(program_columns(lp), program_columns(want)):
        np.testing.assert_array_equal(got, expected, strict=True)
    with pytest.raises(ValueError, match="^level has the non-integer value None$"):
        build_lp(full, table, "theta_f", level=[0, None])
    with pytest.raises(ValueError, match=rf"^level={2**70} outside range\(0, 3\)$"):
        build_lp(full, table, "theta_f", level=[0, 2**70])
    stratum = enumerate_response_types(SpaceShape("stratum", 3))
    with pytest.raises(ValueError, match=rf"^level={2**70} outside range\(0, 3\)$"):
        build_lp(stratum, uniform_table(stratum), "theta_f", level=2**70)


def test_build_lp_refuses_levels_for_a_reduced_program(rng):
    # a reduced program reads the levels from its observed recommendations
    space = enumerate_response_types(SpaceShape("reduced", 2))
    table = table_for_space(space, random_probs(rng, (2, 2, 2)))
    for levels in ({"level": 1}, {"guideline_level": 0}, {"level": 7, "guideline_level": 1.5}):
        with pytest.raises(ValueError, match="reduced program .* takes no level"):
            build_lp(space, table, "theta_f", **levels)
    build_lp(space, table, "theta_f")


def test_build_lp_rejects_empty_instrument_arm(rng):
    space = enumerate_response_types(SpaceShape("reduced", 2, instrument_card=2))
    probs = np.zeros((2, 2, 2, 2))
    probs[0] = random_probs(rng, (2, 2, 2))  # arm 1 left empty
    table = table_for_space(space, probs)
    with pytest.raises(DataError, match="instrument=1"):
        build_lp(space, table, "theta_f")


def test_bounds_result_validation():
    with pytest.raises(SolverError, match="inverted"):
        BoundsResult("theta_f", 0.7, 0.3, "reduction")
    with pytest.raises(SolverError, match="admissible"):
        BoundsResult("theta_f", -0.2, 0.5, "reduction")
    r = BoundsResult("cu", -0.2, 0.5, "reduction")
    assert r.width == pytest.approx(0.7)
    d = r.to_dict()
    assert d["lower"] == -0.2 and d["strategy"] == "reduction"


# what each query reads and how it combines the rule values, written out by hand:
# (levels a stratum program needs, objective from the theta_f and theta_g objectives, lowest value)
QUERY_EXPECTATIONS = {
    "theta_f": (("level",), lambda f, g: f, 0.0),
    "theta_g": (("guideline_level",), lambda f, g: g, 0.0),
    "cu": (("level", "guideline_level"), lambda f, g: f - g, -1.0),
}


@pytest.mark.parametrize("query", list(QUERY_EXPECTATIONS))
@pytest.mark.parametrize(
    "shape",
    [
        SpaceShape("stratum", 3, instrument_card=2),
        SpaceShape("reduced", 2, instrument_card=2, guideline_mode="separate"),
    ],
    ids=["stratum", "reduced"],
)
def test_query_table_sets_levels_objective_and_range(rng, shape, query):
    assert list(QUERIES) == list(QUERY_EXPECTATIONS)
    needs, combine, lowest = QUERY_EXPECTATIONS[query]
    space = enumerate_response_types(shape)
    table = table_for_space(space, random_probs(rng, tuple(v.cardinality for v in shape.variables)))
    levels = {"level": 2, "guideline_level": 1} if shape.kind == "stratum" else {}

    def objective(q, names):
        return build_lp(space, table, q, **{n: levels[n] for n in names if n in levels}).objective

    # a stratum program takes exactly the levels its query reads; a reduced one takes none
    got = objective(query, needs)
    if shape.kind == "stratum":
        for missing in needs:
            with pytest.raises(ValueError, match=f"{query!r} needs the .* assigned level"):
                build_lp(space, table, query, **{n: levels[n] for n in needs if n != missing})
    expected = combine(objective("theta_f", ("level",)), objective("theta_g", ("guideline_level",)))
    assert got.tolist() == expected.tolist()
    assert set(np.unique(got)) <= {lowest, 0.0, 1.0}

    if lowest < 0:
        assert BoundsResult(query, -1.0, 0.5, "reduction").lower == -1.0
    else:
        with pytest.raises(SolverError, match=f"admissible range .* for query {query!r}"):
            BoundsResult(query, -0.2, 0.5, "reduction")
    with pytest.raises(SolverError, match="admissible"):
        BoundsResult(query, lowest - 0.1, 0.5, "reduction")


# ---------------------------------------------------------------------------
# binary reduced bounds against the closed form


def _binary_table(p):
    return JointTable(binary_reduced_specs(), np.asarray(p, dtype=float))


def test_hand_worked_binary_example():
    # agreement cells carry 0.2/0.1 good and 0.1/0.2 bad outcomes; the
    # remaining 0.4 sits where treatment and recommendation disagree
    p = np.zeros((2, 2, 2))
    p[0, 1, 0] = 0.2
    p[1, 1, 1] = 0.1
    p[0, 0, 0] = 0.1
    p[1, 0, 1] = 0.2
    p[0, 0, 1] = p[0, 1, 1] = p[1, 0, 0] = p[1, 1, 0] = 0.1
    table = _binary_table(p)
    closed = closed_form_binary_reduction(table)
    assert closed.lower == pytest.approx(0.3, abs=1e-12)
    assert closed.upper == pytest.approx(0.7, abs=1e-12)
    space = enumerate_response_types(SpaceShape("reduced", 2))
    lp = solve_bounds(build_lp(space, table, "theta_f"))
    assert lp.lower == pytest.approx(0.3, abs=1e-9)
    assert lp.upper == pytest.approx(0.7, abs=1e-9)


def test_full_agreement_identifies_the_point():
    p = np.zeros((2, 2, 2))
    p[0, 1, 0] = 0.17
    p[1, 1, 1] = 0.2
    p[0, 0, 0] = 0.33
    p[1, 0, 1] = 0.3
    res = closed_form_binary_reduction(_binary_table(p))
    assert res.lower == pytest.approx(0.37, abs=1e-12)
    assert res.upper == pytest.approx(0.37, abs=1e-12)


def test_full_disagreement_is_vacuous():
    p = np.zeros((2, 2, 2))
    p[0, 0, 1] = p[0, 1, 1] = p[1, 0, 0] = p[1, 1, 0] = 0.25
    res = closed_form_binary_reduction(_binary_table(p))
    assert res.lower == pytest.approx(0.0, abs=1e-12)
    assert res.upper == pytest.approx(1.0, abs=1e-12)


def test_closed_form_rejects_wrong_shape(rng):
    bad = JointTable(
        (VariableSpec("treatment", 3, "treatment"),
         VariableSpec("outcome", 2, "outcome"),
         VariableSpec("rule_rec", 3, "recommendation")),
        random_probs(rng, (3, 2, 3)),
    )
    with pytest.raises(ValueError, match="binary"):
        closed_form_binary_reduction(bad)


def test_random_binary_tables_match_closed_form(rng):
    space = enumerate_response_types(SpaceShape("reduced", 2))
    for _ in range(200):
        table = _binary_table(random_probs(rng, (2, 2, 2)))
        closed = closed_form_binary_reduction(table)
        lp = solve_bounds(build_lp(space, table, "theta_f"))
        assert abs(lp.lower - closed.lower) < 1e-8
        assert abs(lp.upper - closed.upper) < 1e-8
        # interval width equals the treatment/recommendation disagreement mass
        p = table.probs
        disagree = p[0, :, 1].sum() + p[1, :, 0].sum()
        assert abs(lp.width - disagree) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8))
def test_binary_width_identity_property(raw):
    p = np.asarray(raw).reshape(2, 2, 2)
    p = p / p.sum()
    res = closed_form_binary_reduction(_binary_table(p))
    disagree = p[0, :, 1].sum() + p[1, :, 0].sum()
    assert res.width == pytest.approx(disagree, abs=1e-12)


# ---------------------------------------------------------------------------
# single-stratum bounds


def test_hand_worked_stratum_example():
    # P(treat=0, good) = 0.25 and P(treat=0) = 0.6 in this stratum
    table = JointTable(
        (VariableSpec("treatment", 2, "treatment"), VariableSpec("outcome", 2, "outcome")),
        np.array([[0.35, 0.25], [0.3, 0.1]]),
    )
    res = manski_stratum_bounds(table, 0)
    assert res.lower == pytest.approx(0.25, abs=1e-12)
    assert res.upper == pytest.approx(0.65, abs=1e-12)


def test_stratum_extremes():
    everyone = JointTable(
        (VariableSpec("treatment", 2, "treatment"), VariableSpec("outcome", 2, "outcome")),
        np.array([[0.6, 0.4], [0.0, 0.0]]),
    )
    res = manski_stratum_bounds(everyone, 0)
    assert (res.lower, res.upper) == (pytest.approx(0.4), pytest.approx(0.4))
    nobody = manski_stratum_bounds(everyone, 1)
    assert (nobody.lower, nobody.upper) == (0.0, 1.0)
    with pytest.raises(ValueError, match="level"):
        manski_stratum_bounds(everyone, 2)


@pytest.mark.parametrize("k", [2, 3])
def test_random_stratum_tables_match_closed_form(rng, k):
    space = enumerate_response_types(SpaceShape("stratum", k))
    specs = (VariableSpec("treatment", k, "treatment"), VariableSpec("outcome", 2, "outcome"))
    for _ in range(100):
        table = JointTable(specs, random_probs(rng, (k, 2)))
        for level in range(k):
            closed = manski_stratum_bounds(table, level)
            lp = solve_bounds(build_lp(space, table, "theta_f", level=level))
            assert abs(lp.lower - closed.lower) < 1e-8
            assert abs(lp.upper - closed.upper) < 1e-8


def test_stratum_cu_with_levels(rng):
    space = enumerate_response_types(SpaceShape("stratum", 3))
    specs = (VariableSpec("treatment", 3, "treatment"), VariableSpec("outcome", 2, "outcome"))
    table = JointTable(specs, random_probs(rng, (3, 2)))
    res = solve_bounds(build_lp(space, table, "cu", level=1, guideline_level=2))
    f = manski_stratum_bounds(table, 1)
    g = manski_stratum_bounds(table, 2)
    # differencing the marginal intervals is valid but not sharp; the joint
    # program can only be tighter
    assert res.lower >= f.lower - g.upper - 1e-9
    assert res.upper <= f.upper - g.lower + 1e-9
    same = solve_bounds(build_lp(space, table, "cu", level=1, guideline_level=1))
    assert same.lower == pytest.approx(0.0, abs=1e-12)
    assert same.upper == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the cached merge over response profiles against a row sort of the classes


DIFFERENTIAL_SHAPES = list(
    dict.fromkeys(CROSSCHECK_SHAPES + [shape for shape, n in FROZEN_COUNTS if n <= 1000])
)


def queries_with_levels(shape):
    """Every (query, build_lp keyword arguments) the shape answers."""
    if shape.kind == "stratum":
        levels = range(shape.treat_card)
        return (
            [("theta_f", {"level": f}) for f in levels]
            + [("theta_g", {"guideline_level": g}) for g in levels]
            + [("cu", {"level": f, "guideline_level": g}) for f, g in product(levels, levels)]
        )
    if shape.kind == "full":
        # the rule alternates its two levels over the covariate cells; the guideline treats the first three
        cells = np.arange(prod(shape.x_cards)).reshape(shape.x_cards)
        levels = {"level": cells % 2, "guideline_level": (cells < 3).astype(np.int64)}
        return [(query, levels) for query in QUERIES]
    queries = QUERIES if shape.guideline_mode != "none" else ("theta_f",)
    return [(query, {}) for query in queries]


def columns_of(space, groups):
    """The 0/1 constraint matrix whose columns hold the per-arm cell rows ``groups``."""
    A = np.zeros((space.n_arms * space.n_cells + 1, groups.shape[0]))
    cols = np.arange(groups.shape[0])
    for arm in range(space.n_arms):
        A[arm * space.n_cells + groups[:, arm], cols] = 1.0
    A[-1, :] = 1.0
    return A


def reference_grouping(space):
    """``(inverse, A)`` built by a row sort of every class's per-arm cells at once."""
    groups, inverse = np.unique(class_cells(space).T, axis=0, return_inverse=True)
    return inverse.ravel(), columns_of(space, groups)


def reference_columns(lp):
    """``(A, c_min, c_max)`` of the row-sort program: each column's extreme class coefficients."""
    inverse, A = reference_grouping(lp.space)
    c_min = np.full(A.shape[1], np.inf)
    c_max = np.full(A.shape[1], -np.inf)
    np.minimum.at(c_min, inverse, lp.objective)
    np.maximum.at(c_max, inverse, lp.objective)
    return A, c_min, c_max


def reference_bounds(lp):
    """Bounds of the row-sort program, or the row label of its infeasibility.

    A reduced program is re-solved, as ``solve_bounds`` does, from a warm start
    of its own, built here from the row-sort columns.
    """
    A, c_min, c_max = reference_columns(lp)
    b = np.concatenate([lp.rhs.ravel(), [1.0]])
    start = simplex.warm_start(c_min, c_max, A) if lp.space.shape.kind == "reduced" else None
    lo, hi = simplex.minimize_pair(c_min, c_max, A, b, start=start)
    if lo.status == "infeasible":
        return lp.space.row_label(lo.violation_row)
    return lo.value, hi.value


def explicit_profile(space, cls):
    """``(r, t, y)`` index of one explicit class's response profile, recomputed from its maps."""
    roots = dict(zip(space.root_names, cls.roots))

    def config(names, cards, head, value):
        idx = 0
        for name, card in zip(names, cards):
            idx = idx * card + (value if name == head else roots[name])
        return idx

    k = space.shape.treat_card
    arms = range(space.shape.instrument_card) if space.shape.instrument_card else [None]
    levels = [cls.a_map[config(space.a_parent_names, space.a_parent_cards, "instrument", z)] for z in arms]
    outcomes = [cls.y_map[config(space.y_parent_names, space.y_parent_cards, "treatment", a)] for a in range(k)]
    return (
        int(np.ravel_multi_index(cls.roots, space.root_cards)),
        int(np.ravel_multi_index(levels, (k,) * space.n_arms)),
        int(np.ravel_multi_index(outcomes, (2,) * k)),
    )


@pytest.mark.parametrize("shape", DIFFERENTIAL_SHAPES)
def test_cached_grouping_matches_the_row_sort(shape):
    # what every space caches, whatever its kind: the row sort's columns, and each class's column
    # at its response profile
    space = enumerate_response_types(shape)
    inverse, A = reference_grouping(space)
    for query, kwargs in queries_with_levels(shape):
        res = solve_bounds(build_lp(space, uniform_table(space), query, **kwargs))
        assert res.diagnostics["merged_columns"] == A.shape[1]
    merged_A, profile_column = space.merged
    np.testing.assert_array_equal(merged_A, A, strict=True)
    profiles = [explicit_profile(space, cls) for cls in iter_classes(space)]
    assert [profile_column[p] for p in profiles] == inverse.tolist()
    assert len(set(profiles)) == profile_column.size  # every profile is some class's


def streamed_columns(space, objectives, block):
    """``(A, c_min, c_max)`` folded over the classes in blocks of ``block``, one row per objective.

    Each block's cell rows are sorted together with the groups seen so far, and each group keeps
    the extreme coefficients of its classes; no step sees more than one block and the groups."""
    cells = class_cells(space).T
    groups = cells[:0]
    c_min = c_max = np.empty((0, objectives.shape[0]))
    for start in range(0, space.class_count, block):
        coef = objectives[:, start : start + block].T
        rows = np.concatenate([groups, cells[start : start + block]])
        groups, inverse = np.unique(rows, axis=0, return_inverse=True)
        lo = np.full((groups.shape[0], coef.shape[1]), np.inf)
        hi = np.full((groups.shape[0], coef.shape[1]), -np.inf)
        np.minimum.at(lo, inverse.ravel(), np.concatenate([c_min, coef]))
        np.maximum.at(hi, inverse.ravel(), np.concatenate([c_max, coef]))
        c_min, c_max = lo, hi
    return columns_of(space, groups), c_min.T, c_max.T


# blocks of one class, of a few, of several dozen, and of every class at once
@pytest.mark.parametrize("block", [1, 7, 48, 65536])
@pytest.mark.parametrize("shape", DIFFERENTIAL_SHAPES)
def test_streamed_columns_match_the_row_sort(shape, block):
    # the cached merge against the classes folded block by block: the same columns, and the same
    # extremes per column whichever blocks a column's classes fall in
    space = enumerate_response_types(shape)
    table = uniform_table(space)
    lps = [build_lp(space, table, query, **kwargs) for query, kwargs in queries_with_levels(shape)]
    A, c_min, c_max = streamed_columns(space, np.stack([lp.objective for lp in lps]), block)
    for lp, lo, hi in zip(lps, c_min, c_max):
        for got, want in zip(program_columns(lp), (A, lo, hi)):
            np.testing.assert_array_equal(got, want, strict=True)


# the 52,488-class study shape with every recommendation level and the oracle's 1,572,864-class shape as well
@pytest.mark.parametrize("shape", DIFFERENTIAL_SHAPES + SAMPLED_SHAPES)
def test_merged_columns_match_the_row_sort(shape):
    space = enumerate_response_types(shape)
    for query, kwargs in queries_with_levels(shape):
        lp = build_lp(space, uniform_table(space), query, **kwargs)
        for got, want in zip(program_columns(lp), reference_columns(lp)):
            np.testing.assert_array_equal(got, want, strict=True)


def test_cost_memo_keys_on_query_and_levels():
    shape = SpaceShape("full", 2, instrument_card=2, x_cards=(3,))
    space = enumerate_response_types(shape)
    table = uniform_table(space)
    programs = [
        build_lp(space, table, "theta_f", level=np.array([0, 1, 1])),
        build_lp(space, table, "theta_f", level=np.array([1, 1, 0])),
        build_lp(space, table, "theta_g", guideline_level=np.array([1, 0, 0])),
        build_lp(space, table, "cu", level=np.array([0, 1, 1]), guideline_level=np.array([1, 1, 0])),
    ]
    costs = [program_columns(lp)[1:] for lp in programs]
    for i in range(len(costs)):
        for j in range(i):
            assert not all(np.array_equal(a, b) for a, b in zip(costs[i], costs[j]))
    for lp, (c_min, c_max) in zip(programs, costs):
        # each pair is the reference's, read-only, and A is the space's own
        A, lo, hi = reference_columns(lp)
        np.testing.assert_array_equal(c_min, lo, strict=True)
        np.testing.assert_array_equal(c_max, hi, strict=True)
        assert program_columns(lp)[0] is space.merged[0]
        for array in (c_min, c_max):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
    # a stratum's int level keys the memo as well
    stratum = enumerate_response_types(SpaceShape("stratum", 3))
    per_level = [program_columns(build_lp(stratum, uniform_table(stratum), "theta_f", level=f))[1] for f in range(3)]
    assert not np.array_equal(per_level[0], per_level[1]) and not np.array_equal(per_level[1], per_level[2])


def test_cost_memo_stays_bounded():
    # a full program keeps nothing: the 128 level arrays of seven binary cells, each solved, leave no record
    shape = SpaceShape("full", 2, x_cards=(7,))
    space = enumerate_response_types(shape)
    table = uniform_table(space)
    levels = list(product(range(2), repeat=7))
    first = [program_columns(build_lp(space, table, "theta_f", level=np.array(level)))[1] for level in levels]
    for level in levels[:8]:
        solve_bounds(build_lp(space, table, "theta_f", level=np.array(level)))
    assert space.records == {}
    # a key read again is built again, equal, as a new array
    c_min = program_columns(build_lp(space, table, "theta_f", level=np.array(levels[0])))[1]
    assert c_min is not first[0]
    np.testing.assert_array_equal(c_min, first[0], strict=True)


def every_level_pair(shape):
    """Every (query, level, guideline_level) the shape answers, levels as ``build_lp`` checks them.

    A stratum program takes every int level, a full program every int64 level
    array over its covariate domain; a reduced program takes none.
    """
    if shape.kind == "reduced":
        return [(query, None, None) for query, _ in queries_with_levels(shape)]
    if shape.kind == "stratum":
        levels = list(range(shape.treat_card))
    else:
        cells = product(range(shape.treat_card), repeat=prod(shape.x_cards))
        levels = [np.array(c, dtype=np.int64).reshape(shape.x_cards) for c in cells]
    return (
        [("theta_f", f, None) for f in levels]
        + [("theta_g", None, g) for g in levels]
        + [("cu", f, g) for f, g in product(levels, levels)]
    )


def _read_every_record(shape):
    """Check each of ``shape``'s records against the reference; weak references to its space and kept costs."""
    space = enumerate_response_types(shape)
    table = uniform_table(space)
    kept = []
    for query, level, guideline_level in every_level_pair(shape):
        A, c_min, c_max, start = space.program(query, level, guideline_level)
        assert A is space.merged[0]
        for got, want in zip((c_min, c_max), reference_costs(space, query, level, guideline_level)):
            np.testing.assert_array_equal(got, want, strict=True)
            assert not got.flags.writeable
        zero = not (c_min.any() or c_max.any())
        assert (start is not None) == (shape.kind == "reduced" or shape.kind == "stratum" and zero)
        if shape.kind != "full":
            kept.append((query, level, guideline_level))
            assert space.program(query, level, guideline_level) is space.records[kept[-1]]
    for query, kwargs in queries_with_levels(shape):
        solve_bounds(build_lp(space, table, query, **kwargs))
    # reduced and stratum records are kept, one per query and levels; a full program's reads and solves keep none
    assert list(space.records) == kept
    return weakref.ref(space), [weakref.ref(array) for record in space.records.values() for array in record[1:3]]


@pytest.mark.parametrize("shape", CROSSCHECK_SHAPES + SAMPLED_SHAPES)
def test_program_records_live_and_go_with_their_space(shape):
    _space.cache_clear()
    space, costs = _read_every_record(shape)
    assert space() is not None and all(cost() is not None for cost in costs)
    # evicting the space frees every record it kept
    _space.cache_clear()
    gc.collect()
    assert space() is None and all(cost() is None for cost in costs)


# ---------------------------------------------------------------------------
# instrumented programs against scipy on the raw columns


def test_perfect_compliance_identifies_treated_value():
    # instrument flips a fair coin, treatment copies it exactly, the rule
    # recommends treatment 1 everywhere
    space = enumerate_response_types(SpaceShape("reduced", 2, instrument_card=2))
    probs = np.zeros((2, 2, 2, 2))  # (instrument, treatment, outcome, rule_rec)
    probs[0, 0, 1, 1] = 0.5 * 0.3
    probs[0, 0, 0, 1] = 0.5 * 0.7
    probs[1, 1, 1, 1] = 0.5 * 0.6
    probs[1, 1, 0, 1] = 0.5 * 0.4
    table = table_for_space(space, probs)
    res = solve_bounds(build_lp(space, table, "theta_f"))
    assert res.lower == pytest.approx(0.6, abs=1e-9)
    assert res.upper == pytest.approx(0.6, abs=1e-9)


SCIPY_SHAPES = list(
    dict.fromkeys(
        [
            SpaceShape("reduced", 2, instrument_card=2),
            SpaceShape("reduced", 3, instrument_card=2),
            SpaceShape("stratum", 2, instrument_card=2),
            SpaceShape("stratum", 3, instrument_card=2),
            SpaceShape("full", 2, instrument_card=2, x_cards=(2,)),
        ]
        + DIFFERENTIAL_SHAPES
    )
)


@pytest.mark.parametrize("shape", SCIPY_SHAPES)
def test_feasible_mixtures_match_scipy(rng, shape):
    space = enumerate_response_types(shape)
    for query, kwargs in queries_with_levels(shape):
        for _ in range(20):
            table, q = mixture_table(space, rng)
            lp = build_lp(space, table, query, **kwargs)
            ours = solve_bounds(lp)
            ref = scipy_lp_bounds(lp)
            assert ref is not None
            assert abs(ours.lower - ref[0]) < 1e-9, (query, kwargs)
            assert abs(ours.upper - ref[1]) < 1e-9, (query, kwargs)
            assert (ours.lower, ours.upper) == reference_bounds(lp)
            # the generating mixture's own value must sit inside the interval
            truth = float(lp.objective @ q)
            assert ours.lower - 1e-9 <= truth <= ours.upper + 1e-9


def test_separate_guideline_cu_matches_scipy(rng):
    # the big merged space: 52,488 raw columns against scipy, all queries
    space = enumerate_response_types(
        SpaceShape("reduced", 3, instrument_card=2, guideline_mode="separate")
    )
    table, q = mixture_table(space, rng)
    for query in ("theta_f", "theta_g", "cu"):
        lp = build_lp(space, table, query)
        ours = solve_bounds(lp)
        ref = scipy_lp_bounds(lp)
        assert ref is not None
        assert abs(ours.lower - ref[0]) < 1e-8, query
        assert abs(ours.upper - ref[1]) < 1e-8, query
        assert (ours.lower, ours.upper) == reference_bounds(lp)
        truth = float(lp.objective @ q)
        assert ours.lower - 1e-9 <= truth <= ours.upper + 1e-9
        assert ours.diagnostics["merged_columns"] < space.class_count


def test_infeasibility_agreement_with_scipy(rng):
    # independent per-arm tables, and concentrated ones even more, usually
    # violate the shared-mixture constraint; whatever scipy decides, we must
    # decide the same
    for shape in [s for s in SCIPY_SHAPES if s.instrument_card]:
        space = enumerate_response_types(shape)
        queries = queries_with_levels(shape)
        draws = max(1, 40 // len(queries))
        size = (space.n_arms,) + space.cell_cards
        infeasible = 0
        for query, kwargs in queries:
            tables = [random_probs(rng, size) for _ in range(draws)] + [
                rng.dirichlet(np.full(space.n_arms * space.n_cells, 0.3)) for _ in range(draws)
            ]
            for probs in tables:
                lp = build_lp(space, table_for_space(space, probs), query, **kwargs)
                ref = scipy_lp_bounds(lp)
                if ref is None:
                    infeasible += 1
                    with pytest.raises(InfeasibleModelError) as exc:
                        solve_bounds(lp)
                    assert exc.value.violation > 0
                    label = exc.value.worst_constraint
                    assert "P(" in label or "mass" in label
                    # the same row as the row-sort program names
                    assert label == reference_bounds(lp), (shape, query, kwargs)
                else:
                    ours = solve_bounds(lp)
                    assert abs(ours.lower - ref[0]) < 1e-8
                    assert abs(ours.upper - ref[1]) < 1e-8
                    assert (ours.lower, ours.upper) == reference_bounds(lp)
        assert infeasible > 0, shape  # the draw really does produce contradictory tables


def test_iv_never_widens_the_marginal_bounds(rng):
    # collapsing the instrument can only lose information
    iv_space = enumerate_response_types(SpaceShape("reduced", 2, instrument_card=2))
    noiv_space = enumerate_response_types(SpaceShape("reduced", 2))
    for _ in range(30):
        table, _ = mixture_table(iv_space, rng)
        with_iv = solve_bounds(build_lp(iv_space, table, "theta_f"))
        margin = marginalize(table, ("treatment", "outcome", "rule_rec"))
        without = solve_bounds(build_lp(noiv_space, margin, "theta_f"))
        assert with_iv.lower >= without.lower - 1e-8
        assert with_iv.upper <= without.upper + 1e-8


# ---------------------------------------------------------------------------
# aliased comparator and polytope validity


def test_aliased_guideline_collapses_cu_to_zero(rng):
    space = enumerate_response_types(SpaceShape("reduced", 2, guideline_mode="aliased"))
    table = table_for_space(space, random_probs(rng, (2, 2, 2)))
    res = solve_bounds(build_lp(space, table, "cu"))
    assert res.lower == pytest.approx(0.0, abs=1e-12)
    assert res.upper == pytest.approx(0.0, abs=1e-12)
    theta = solve_bounds(build_lp(space, table, "theta_g"))
    same = solve_bounds(build_lp(space, table, "theta_f"))
    assert theta.lower == pytest.approx(same.lower, abs=1e-9)
    assert theta.upper == pytest.approx(same.upper, abs=1e-9)


@pytest.mark.parametrize("shape", CROSSCHECK_SHAPES)
def test_uniform_mixture_is_always_feasible(rng, shape):
    space = enumerate_response_types(shape)
    q = np.full(space.class_count, 1.0 / space.class_count)
    table, _ = mixture_table(space, rng, q=q)
    kwargs = {}
    if shape.kind == "stratum":
        kwargs = {"level": 0}
    elif shape.kind == "full":
        kwargs = {"level": TreatmentRule.from_table({(0,): 0, (1,): 1}).levels((2,))}
    lp = build_lp(space, table, "theta_f", **kwargs)
    res = solve_bounds(lp)
    truth = float(lp.objective @ q)
    assert res.lower - 1e-9 <= truth <= res.upper + 1e-9
    assert 0.0 - 1e-9 <= res.lower <= res.upper <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# direct full-space oracle


def test_direct_oracle_binary_no_instrument(rng):
    model = small_noiv_model(x_card=2, treat_card=2)
    specs = (
        VariableSpec("x", 2, "rule_covariate"),
        VariableSpec("a", 2, "treatment"),
        VariableSpec("y", 2, "outcome"),
    )
    for _ in range(20):
        table = JointTable(specs, random_probs(rng, (2, 2, 2)))
        res = direct_sharp_bounds(StrategyRequest(model, table, "theta_f"))
        assert res.strategy == "direct_oracle"
        # cross-check on the identically assembled raw program
        space = enumerate_response_types(SpaceShape("full", 2, x_cards=(2,)))
        canon = JointTable(
            (VariableSpec("x0", 2, "rule_covariate"),
             VariableSpec("treatment", 2, "treatment"),
             VariableSpec("outcome", 2, "outcome")),
            table.probs,
        )
        lp = build_lp(space, canon, "theta_f", level=model.rule.levels((2,)))
        ref = scipy_lp_bounds(lp)
        assert ref is not None
        assert abs(res.lower - ref[0]) < 1e-8
        assert abs(res.upper - ref[1]) < 1e-8


def test_direct_oracle_cu_needs_guideline(rng):
    model = small_noiv_model()
    specs = (
        VariableSpec("x", 2, "rule_covariate"),
        VariableSpec("a", 2, "treatment"),
        VariableSpec("y", 2, "outcome"),
    )
    table = JointTable(specs, random_probs(rng, (2, 2, 2)))
    with pytest.raises(ValueError, match="guideline"):
        direct_sharp_bounds(StrategyRequest(model, table, "cu"))
    guided = small_noiv_model(guideline_map={(0,): 1, (1,): 1})
    res = direct_sharp_bounds(StrategyRequest(guided, table, "cu"))
    assert -1.0 - 1e-9 <= res.lower <= res.upper <= 1.0 + 1e-9


def test_direct_oracle_rejects_extras_and_big_domains(rng):
    with_extra = CausalModel(
        variables=(
            VariableSpec("x", 2, "rule_covariate"),
            VariableSpec("w", 2, "extra_covariate"),
            VariableSpec("a", 2, "treatment"),
            VariableSpec("y", 2, "outcome"),
        ),
        rule=TreatmentRule.from_table({(0,): 0, (1,): 1}),
    )
    specs = tuple(with_extra.variables)
    table = JointTable(specs, random_probs(rng, (2, 2, 2, 2)))
    with pytest.raises(ValueError, match="extra covariates"):
        direct_sharp_bounds(StrategyRequest(with_extra, table, "theta_f"))

    paper_shape_model = CausalModel(
        variables=(
            VariableSpec("z", 2, "instrument"),
            VariableSpec("x", 6, "rule_covariate"),
            VariableSpec("a", 3, "treatment"),
            VariableSpec("y", 2, "outcome"),
        ),
        rule=TreatmentRule.from_table({(x,): min(x // 2, 2) for x in range(6)}),
    )
    # the paper shape's 835,884,417,024 classes are no reason to refuse: its program is 73 × 180
    observed = feasible_table(rng, paper_shape_model, zero_stratum=False)
    oracle = direct_sharp_bounds(StrategyRequest(paper_shape_model, observed))
    assert oracle.diagnostics["class_count"] == 835_884_417_024
    assert (oracle.diagnostics["constraint_rows"], oracle.diagnostics["merged_columns"]) == (73, 180)
    cond = conditioning_bounds(StrategyRequest(paper_shape_model, observed))
    assert abs(oracle.lower - cond.lower) <= AGREE_TOL and abs(oracle.upper - cond.upper) <= AGREE_TOL


def _iv_model(x_cards, treat_card, z_card):
    """An instrumented model over ``x_cards`` rule covariates whose rule sends each cell to its first value."""
    xs = tuple(VariableSpec(f"x{i}", card, "rule_covariate") for i, card in enumerate(x_cards))
    rule = TreatmentRule.from_table(
        {x: x[0] % treat_card for x in product(*(range(c) for c in x_cards))}, name="f"
    )
    variables = (VariableSpec("z", z_card, "instrument"),) + xs + (
        VariableSpec("a", treat_card, "treatment"),
        VariableSpec("y", 2, "outcome"),
    )
    return CausalModel(variables, rule)


@pytest.mark.parametrize(
    "bound,model,what",
    [
        # the study's full shape at covariates (10, 10, 10): 72,000 profiles fit, its 3.8 GiB tableau does not
        (
            lambda model, observed: direct_sharp_bounds(StrategyRequest(model, observed)),
            _iv_model((10, 10, 10), 3, 2),
            "the simplex tableau of its 12,001 rows × ",
        ),
        # a reduction with treatment 4 and an 8-arm instrument: 4,194,304 profiles need 512 MiB to merge
        (
            lambda model, observed: reduction_bounds(StrategyRequest(model, observed)),
            _iv_model((4,), 4, 8),
            "merging its 4,194,304 response profiles",
        ),
    ],
    ids=["full_10_10_10", "reduced_treatment4_8arms"],
)
def test_oversized_programs_are_refused_before_their_arrays(bound, model, what):
    _space.cache_clear()
    cards = [v.cardinality for v in model.variables]
    observed = JointTable(model.variables, np.full(cards, 1.0 / prod(cards)))
    errors = []

    def refuse():
        try:
            bound(model, observed)
        except ProgramTooLargeError as err:
            errors.append(err)

    # refused before any profile array, A or tableau of that size exists
    assert _traced_peak(refuse) < 16 * 2**20
    (err,) = errors
    assert err.needed > err.budget == MAX_TABLEAU_BYTES
    assert what in str(err) and f"{err.needed:,} bytes" in str(err)
    assert f"over the budget of {MAX_TABLEAU_BYTES:,} bytes (256 MiB)" in str(err)


def test_eight_arm_cell_tuples_merge_without_overflow():
    # 400 cells per arm: one integer per 8-arm cell tuple would pass 400**8 > 2**63, but ranked
    # arm by arm the 102,400 profiles merge, and the tableau check refuses the program by its size
    _space.cache_clear()
    space = enumerate_response_types(SpaceShape("full", 2, 8, x_cards=(10, 10)))
    assert space.n_cells**space.n_arms > np.iinfo(np.int64).max
    with pytest.raises(ProgramTooLargeError) as exc:
        space.merged
    assert str(exc.value).startswith(
        "the direct_oracle program is too large: the simplex tableau of its 3,201 rows × 102,000 columns needs "
    )
