"""Warm re-solves of a program whose right-hand side alone changes.

``simplex.warm_start`` keeps the lower side's optimal tableau at the
canonical ``b = A·1/n``; ``minimize_pair(..., start=...)`` re-solves a copy
of it by dual pivots, then optimizes the upper side from there as a cold
pair does, and goes the cold way when the dual fails. Each re-solve is
checked against the cold pair solve, the dense reference tableau and
scipy's HiGHS, on programs of every cross-check shape (not only the reduced
ones that ``solve_bounds`` warm-starts), and infeasible tables must be reported
exactly as the cold path reports them.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from rulebounds import simplex, simulation
from rulebounds.errors import InfeasibleModelError
from rulebounds.lp_bounds import SpaceShape, _space, build_lp, enumerate_response_types, solve_bounds
from rulebounds.model import build_reduced_model
from rulebounds.simplex import minimize_pair, warm_start
from rulebounds.strategies import reduce_table
from rulebounds.tables import joint_from_scm, marginalize

from conftest import DenseTableau, program_columns
from test_lp_bounds import CROSSCHECK_SHAPES, mixture_table, queries_with_levels, table_for_space
from test_simplex import STUDY, study_program

TABLES = ("feasible", "zero_cells", "infeasible", "zero_arm")


def program(shape, query_index, seed, table):
    """``(lp, c_lo, c_hi, A, b)`` for one query of ``shape`` on a seeded table of the given kind.

    ``zero_cells`` mixes three classes, so most cells are empty (a degenerate
    vertex). ``infeasible`` draws a concentrated table per arm, with one law
    of the roots shared by every arm, so an instrumented shape's tables mostly
    break only its instrumental inequalities. ``zero_arm``
    empties the first arm's rows while the mass row stays 1, which
    ``build_lp`` would refuse, so it exists only as a right-hand side.
    """
    space = enumerate_response_types(shape)
    choices = queries_with_levels(shape)
    query, kwargs = choices[query_index % len(choices)]
    rng = np.random.default_rng(seed)
    if table in ("feasible", "zero_cells", "zero_arm"):
        q = rng.dirichlet(np.ones(space.class_count))
        if table == "zero_cells":
            q = np.zeros(space.class_count)
            q[rng.choice(space.class_count, size=3, replace=False)] = rng.dirichlet(np.ones(3))
        observed, _ = mixture_table(space, rng, q=q)
    else:
        # concentrated per-arm tables, rescaled so every arm shares one law of the roots
        probs = rng.dirichlet(np.full(space.n_cells, 0.3), size=space.n_arms)
        probs = probs.reshape((space.n_arms,) + space.cell_cards)
        outcomes = tuple(1 + i for i, n in enumerate(space.cell_names) if n in ("treatment", "outcome"))
        roots = probs.sum(axis=outcomes, keepdims=True)
        shared = rng.dirichlet(np.ones(roots[0].size)).reshape(roots.shape[1:])
        arm_mass = rng.dirichlet(np.ones(space.n_arms)).reshape((-1,) + (1,) * len(space.cell_cards))
        observed = table_for_space(space, probs / roots * shared * arm_mass)
    lp = build_lp(space, observed, query, **kwargs)
    A, c_lo, c_hi = program_columns(lp)
    b = np.concatenate([lp.rhs.ravel(), [1.0]])
    if table == "zero_arm":
        b[: space.n_cells] = 0.0
    return lp, c_lo, c_hi, A, b


def dense_pair(c_lo, c_hi, A, b):
    """The cold pair solve on the dense reference tableau."""
    tableau = DenseTableau(A, b)
    lo = tableau.solve(c_lo)
    if lo.status != "optimal":
        return lo, lo
    hi = tableau.solve(-c_hi)
    return lo, replace(hi, value=-hi.value)


def highs_pair(c_lo, c_hi, A, b):
    """HiGHS's (lower, upper), or None when it finds the program infeasible."""
    # HiGHS's default 1e-7 feasibility tolerances can move an endpoint by more than 1e-9
    opts = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    lo = optimize.linprog(c_lo, A_eq=A, b_eq=b, bounds=(0, None), method="highs", options=opts)
    hi = optimize.linprog(-c_hi, A_eq=A, b_eq=b, bounds=(0, None), method="highs", options=opts)
    if lo.status == 2 or hi.status == 2:
        return None
    assert lo.status == hi.status == 0
    return lo.fun, -hi.fun


def assert_matches_cold(c_lo, c_hi, A, b, start):
    """The warm pair agrees with the cold one, the dense reference and HiGHS; returns it."""
    warm = minimize_pair(c_lo, c_hi, A, b, start=start)
    cold = minimize_pair(c_lo, c_hi, A, b)
    dense = dense_pair(c_lo, c_hi, A, b)
    ref = highs_pair(c_lo, c_hi, A, b)
    if cold[0].status == "infeasible":
        # infeasibility is always decided, and its row named, by the cold path's phase 1
        assert ref is None
        assert warm[0] is warm[1]
        assert warm[0].solve == "cold"
        for field in ("status", "violation_row", "violation_total"):
            assert getattr(warm[0], field) == getattr(cold[0], field) == getattr(dense[0], field)
        return warm
    assert ref is not None
    for got, cold_side, dense_side, want in zip(warm, cold, dense, ref):
        assert got.status == "optimal"
        assert abs(got.value - cold_side.value) <= 1e-12
        assert abs(got.value - dense_side.value) <= 1e-12
        assert abs(got.value - want) <= 1e-9
        assert got.x.min() >= 0.0
        assert np.abs(A @ got.x - b).max() <= 1e-9
    assert warm[0].value == c_lo @ warm[0].x and warm[1].value == c_hi @ warm[1].x
    return warm


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("shape", CROSSCHECK_SHAPES)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), query_index=st.integers(0, 20))
def test_warm_resolve_matches_cold_dense_and_highs(shape, table, seed, query_index):
    _, c_lo, c_hi, A, b = program(shape, query_index, seed, table)
    warm = assert_matches_cold(c_lo, c_hi, A, b, warm_start(c_lo, c_hi, A))
    if table == "zero_arm":
        # the emptied arm contradicts the mass row through a redundant row: the cold path decides
        assert warm[0].status == "infeasible"


@pytest.mark.parametrize("shape", [s for s in CROSSCHECK_SHAPES if s.kind == "reduced" and s.instrument_card])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), query_index=st.integers(0, 20))
def test_infeasible_reduced_tables_raise_the_cold_error(shape, seed, query_index):
    lp = program(shape, query_index, seed, "infeasible")[0]
    original = simplex.minimize_pair

    def cold_only(c_lo, c_hi, A, b, start=None):
        return original(c_lo, c_hi, A, b)

    def outcome():
        try:
            res = solve_bounds(lp)
        except InfeasibleModelError as exc:
            return str(exc), exc.worst_constraint, exc.violation
        return res.lower, res.upper

    warm = outcome()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "minimize_pair", cold_only)
        cold = outcome()
    if isinstance(cold[0], str):
        assert warm == cold
    else:
        assert abs(warm[0] - cold[0]) <= 1e-12 and abs(warm[1] - cold[1]) <= 1e-12


def test_infeasible_reduced_tables_are_drawn():
    # the draw of the test above really produces contradictory reduced tables
    shape = SpaceShape("reduced", 3, instrument_card=2)
    infeasible = 0
    for seed in range(20):
        lp = program(shape, 0, seed, "infeasible")[0]
        try:
            solve_bounds(lp)
        except InfeasibleModelError:
            infeasible += 1
    assert infeasible > 0


def test_warm_resolve_on_signed_programs(rng):
    # rows whose canonical right-hand side is negative are flipped in the tableau, and so in B⁻¹
    flipped = 0
    for _ in range(60):
        m, n = int(rng.integers(2, 8)), int(rng.integers(3, 16))
        A = np.vstack([rng.uniform(-1, 1, size=(m, n)), np.ones(n)])
        c_lo, c_hi = rng.uniform(-1, 1, size=n), rng.uniform(-1, 1, size=n)
        start = warm_start(c_lo, c_hi, A)
        flipped += int((start.sign < 0).any())
        for _ in range(3):
            assert_matches_cold(c_lo, c_hi, A, A @ rng.dirichlet(np.ones(n)), start)
    assert flipped > 0


@pytest.mark.parametrize("index", range(6))
def test_study_program_resolves_warm(index):
    c_lo, c_hi, A, b = study_program(index, "cu")
    start = warm_start(c_lo, c_hi, A)
    lo, hi = assert_matches_cold(c_lo, c_hi, A, b, start)
    assert lo.solve == hi.solve == "warm"
    cold_lo, cold_hi = minimize_pair(c_lo, c_hi, A, b)
    # dual pivots replace phase 1 and both phase-2 solves
    assert lo.iterations + hi.iterations < (cold_lo.iterations + cold_hi.iterations) / 4


def test_canonical_table_resolves_without_a_pivot():
    # every replication's program has the same A and costs, so one canonical b stands for them all
    c_lo, c_hi, A, _ = study_program(0, "cu")
    start = warm_start(c_lo, c_hi, A)
    lo, hi = minimize_pair(c_lo, c_hi, A, A.mean(axis=1), start=start)
    cold_lo, cold_hi = minimize_pair(c_lo, c_hi, A, A.mean(axis=1))
    # the kept tableau is the lower optimum; the upper side takes the cold pair's pivots to its bits
    assert (lo.solve, hi.solve, lo.iterations, hi.iterations) == ("warm", "warm", 0, 19)
    assert hi.iterations == cold_hi.iterations
    for got, cold in ((lo, cold_lo), (hi, cold_hi)):
        assert got.value == cold.value and np.array_equal(got.x, cold.x)
    for array in (start.tableau.T, start.tableau.basis, start.tableau.barred):
        assert not array.flags.writeable


def test_barely_negative_basic_value_is_pivoted_out():
    # walk from the canonical table towards a study table until one basic value of the lower
    # side's canonical basis reads -1e-8; the basis must be repaired, not its value clipped
    c_lo, c_hi, A, b = study_program(0, "cu")
    start = warm_start(c_lo, c_hi, A)
    side = start.tableau
    inverse = side.T[: side.m, side.n : side.n + side.m]
    b0 = A.mean(axis=1)

    def lowest(t):
        return (inverse @ ((1 - t) * b0 + t * b))[side.basis < side.n].min()

    assert lowest(0.0) >= 0.0 > lowest(1.0) + 1e-8
    low, high = 0.0, 1.0  # the lowest basic value is concave in t: one crossing of -1e-8
    for _ in range(60):
        mid = (low + high) / 2
        low, high = (mid, high) if lowest(mid) > -1e-8 else (low, mid)
    b_t = (1 - high) * b0 + high * b
    assert lowest(high) == pytest.approx(-1e-8, rel=1e-3)
    lo, hi = assert_matches_cold(c_lo, c_hi, A, b_t, start)
    assert lo.solve == "warm" and lo.iterations >= 1


def test_dual_pivots_take_the_most_negative_row_and_the_lowest_tied_column(monkeypatch):
    # each pivot taken inside a re-solve is a dual one, checked against the rule as it is taken;
    # the upper side's pivots after it are primal
    pivot, resolve, ties, resolving = simplex._Tableau._pivot, simplex._Tableau._resolve, [], []

    def resolve_marked(self, b, max_pivots):
        resolving.append(self)
        try:
            return resolve(self, b, max_pivots)
        finally:
            resolving.pop()

    def checked(self, i, j):
        if not resolving:
            return pivot(self, i, j)
        T, n = self.T, self.n
        rhs = T[: self.m, -1]
        assert rhs[i] == rhs.min() and i == int(np.flatnonzero(rhs == rhs.min())[0])
        cols = np.flatnonzero(T[i, :n] < -simplex.PIV_TOL)
        ratios = T[-1, cols] / -T[i, cols]
        tied = cols[ratios == ratios.min()]
        assert j == tied[0]
        ties.append(tied.size)
        pivot(self, i, j)

    for index in range(4):
        c_lo, c_hi, A, b = study_program(index, "cu")
        start = warm_start(c_lo, c_hi, A)
        with monkeypatch.context() as mp:
            mp.setattr(simplex._Tableau, "_pivot", checked)
            mp.setattr(simplex._Tableau, "_resolve", resolve_marked)
            lo, hi = minimize_pair(c_lo, c_hi, A, b, start=start)
        assert lo.solve == "warm"
    assert len(ties) > 0 and max(ties) > 1  # some ratio tests really were tied


def test_pivot_cap_sends_the_pair_cold():
    capped = 0
    for index in range(6):
        c_lo, c_hi, A, b = study_program(index, "cu")
        start = warm_start(c_lo, c_hi, A)
        warm_lo, _ = minimize_pair(c_lo, c_hi, A, b, start=start)
        cold_lo, cold_hi = minimize_pair(c_lo, c_hi, A, b)
        if warm_lo.iterations <= 2:
            continue
        capped += 1
        for cap, spent in ((0, 0), (2, 2)):
            lo, hi = minimize_pair(c_lo, c_hi, A, b, start=replace(start, max_pivots=cap))
            assert lo.solve == hi.solve == "cold"
            assert (lo.value, hi.value) == (cold_lo.value, cold_hi.value)
            assert np.array_equal(lo.x, cold_lo.x) and np.array_equal(hi.x, cold_hi.x)
            # the lower side spends its capped dual pivots before the cold path takes over
            assert lo.iterations == cold_lo.iterations + spent
            assert hi.iterations == cold_hi.iterations
    assert capped > 0


@pytest.mark.parametrize("index", range(6))
def test_upper_side_needs_no_dual_pivots_of_its_own(index):
    # a cap of the lower side's dual pivots keeps the pair warm: the upper side is optimized, not re-solved
    c_lo, c_hi, A, b = study_program(index, "cu")
    start = warm_start(c_lo, c_hi, A)
    lo, _ = minimize_pair(c_lo, c_hi, A, b, start=start)
    capped = assert_matches_cold(c_lo, c_hi, A, b, replace(start, max_pivots=lo.iterations))
    assert capped[0].solve == capped[1].solve == "warm"


def test_warm_start_refuses_another_program():
    c_lo, c_hi, A, b = study_program(0, "cu")
    start = warm_start(c_lo, c_hi, A)
    with pytest.raises(ValueError, match="other costs"):
        minimize_pair(c_lo, -c_hi, A, b, start=start)
    with pytest.raises(ValueError, match="shape mismatch"):
        minimize_pair(c_lo, c_hi, A, b[:-1], start=start)


def study_tables(indices):
    """The study's reduced program and its observed reduced table for each replication."""
    model = simulation.observed_model(STUDY)
    reduced = build_reduced_model(model)
    names = [v.name for v in model.variables]
    tables = [
        reduce_table(model, reduced, marginalize(joint_from_scm(simulation.random_scm(STUDY, i)), names))
        for i in indices
    ]
    return reduced, tables


def _bounds(reduced, table):
    res = solve_bounds(build_lp(enumerate_response_types(reduced), table, STUDY.query))
    return np.array([res.lower, res.upper]).tobytes(), res.diagnostics


def test_reduced_endpoints_do_not_depend_on_earlier_solves():
    reduced, tables = study_tables(range(8))
    alone = []
    for table in tables:
        _space.cache_clear()  # a fresh space, so a fresh warm start, as in a new process
        alone.append(_bounds(reduced, table))
    _space.cache_clear()
    in_turn = [_bounds(reduced, table) for table in tables]
    backwards = [_bounds(reduced, table) for table in reversed(tables)][::-1]
    assert in_turn == alone == backwards
    assert all(diag["solve"] == "warm" for _, diag in alone)


def test_diagnostics_say_which_path_ran(rng):
    reduced, (table,) = study_tables([0])
    cold_iterations = sum(r.iterations for r in minimize_pair(*study_program(0, "cu")))
    res = solve_bounds(build_lp(enumerate_response_types(reduced), table, "cu"))
    assert res.diagnostics["solve"] == "warm"
    # this call's pivots only: the one-time canonical solve is not counted
    assert 0 < res.diagnostics["simplex_iterations"] < cold_iterations
    # stratum programs with costs that are not all zero, and full programs, take the cold path
    for shape in (SpaceShape("stratum", 3, instrument_card=2), SpaceShape("full", 2, instrument_card=2, x_cards=(2,))):
        space = enumerate_response_types(shape)
        query, kwargs = queries_with_levels(shape)[0]
        observed, _ = mixture_table(space, rng)
        res = solve_bounds(build_lp(space, observed, query, **kwargs))
        assert res.diagnostics["solve"] == "cold"
        assert all(start is None for _, c_min, c_max, start in space.records.values() if c_min.any() or c_max.any())


def _recording(tableau_cls, log):
    """``tableau_cls`` logging each pivot and, after each warm re-solve, its outcome, reason and tableau."""

    class Recording(tableau_cls):
        def _pivot(self, i, j):
            log.append(("pivot", int(i), int(j)))
            super()._pivot(i, j)

        def _resolve(self, b, max_pivots):
            done = super()._resolve(b, max_pivots)
            log.append(("resolve", "warm" if done else cold_reason(self), self.basis.copy(), self.T.copy()))
            return done

    return Recording


def cold_reason(tableau):
    """Why a warm re-solve that gave up did so: read from the tableau it left."""
    T, m, n = tableau.T, tableau.m, tableau.n
    rhs = T[:m, -1]
    if tableau.iterations == 0 and np.any(np.abs(rhs[tableau.basis >= n]) > simplex.PRIMAL_TOL):
        return "parked artificial nonzero"
    if not (T[int(rhs.argmin()), :n] < -simplex.PIV_TOL).any():
        return "no entering column"
    return "pivot cap"


def warm_run(tableau_cls, c_lo, c_hi, A, b, cap):
    """``(start, pair, log)``: the warm start built on ``tableau_cls`` and the pair re-solved from it."""
    log = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_Tableau", _recording(tableau_cls, log))
        start = warm_start(c_lo, c_hi, A)
        if cap is not None:
            start = replace(start, max_pivots=cap)
        pair = minimize_pair(c_lo, c_hi, A, b, start=start)
    assert isinstance(start.tableau, tableau_cls)  # a copied tableau keeps its class
    return start, pair, log


def result_fields(res):
    """Every field but ``x``; ``repr`` tells ``0.0`` from ``-0.0``."""
    return (res.status, repr(res.value), res.iterations, res.violation_row, res.violation_total, res.solve)


def assert_same_warm_run(fast, ref):
    """The row-sparse tableau's warm start and re-solve take the dense reference's pivots and reach its numbers."""
    (start, pair, log), (ref_start, ref_pair, ref_log) = fast, ref
    assert np.array_equal(start.tableau.basis, ref_start.tableau.basis)
    assert np.array_equal(start.tableau.T, ref_start.tableau.T)
    assert [entry[:2] for entry in log] == [entry[:2] for entry in ref_log]
    for entry, ref_entry in zip(log, ref_log):
        if entry[0] == "resolve":
            assert np.array_equal(entry[2], ref_entry[2]) and np.array_equal(entry[3], ref_entry[3])
    for got, want in zip(pair, ref_pair):
        assert result_fields(got) == result_fields(want)
        assert (got.x is None and want.x is None) or np.array_equal(got.x, want.x)


@pytest.mark.parametrize("shape", CROSSCHECK_SHAPES)
@settings(max_examples=16, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    query_index=st.integers(0, 20),
    table=st.sampled_from(TABLES),
    zero_cost=st.booleans(),
    cap=st.sampled_from([None, None, 0, 1, 2]),
)
@example(seed=0, query_index=0, table="feasible", zero_cost=False, cap=1)
@example(seed=0, query_index=0, table="zero_arm", zero_cost=True, cap=None)
@example(seed=0, query_index=0, table="infeasible", zero_cost=False, cap=None)
def test_warm_resolve_pivots_like_dense_reference(shape, seed, query_index, table, zero_cost, cap):
    # reduced and stratum starts with costs, and zero-cost starts, on both tableaus;
    # the cold fallbacks (pivot cap, parked artificial, no entering column) included
    c_lo, c_hi, A, b = warm_program(shape, query_index, seed, table, zero_cost)
    assert_same_warm_run(
        warm_run(simplex._Tableau, c_lo, c_hi, A, b, cap), warm_run(DenseTableau, c_lo, c_hi, A, b, cap)
    )


def warm_program(shape, query_index, seed, table, zero_cost):
    """``(c_lo, c_hi, A, b)`` of ``program``, with both costs zeroed when ``zero_cost``."""
    _, c_lo, c_hi, A, b = program(shape, query_index, seed, table)
    if zero_cost:
        c_lo, c_hi = np.zeros_like(c_lo), np.zeros_like(c_hi)
    return c_lo, c_hi, A, b


def test_pinned_warm_runs_go_cold_for_every_reason():
    # the explicit examples of the test above reach each way a warm re-solve gives up
    reasons = set()
    for shape in CROSSCHECK_SHAPES:
        for table, zero_cost, cap in (("feasible", False, 1), ("zero_arm", True, None), ("infeasible", False, None)):
            log = warm_run(simplex._Tableau, *warm_program(shape, 0, 0, table, zero_cost), cap)[2]
            reasons.update(entry[1] for entry in log if entry[0] == "resolve")
    assert reasons == {"warm", "pivot cap", "parked artificial nonzero", "no entering column"}
