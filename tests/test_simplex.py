import tracemalloc

import numpy as np
import pytest
from scipy import optimize

from rulebounds import lp_bounds, simplex, simulation
from rulebounds.lp_bounds import LpProblem, SpaceShape, class_cells, enumerate_response_types
from rulebounds.model import CausalModel, TreatmentRule, VariableSpec, build_reduced_model
from rulebounds.simplex import SimplexResult, minimize, minimize_pair
from rulebounds.strategies import StrategyRequest, conditioning_bounds, reduce_table
from rulebounds.tables import JointTable, joint_from_scm, marginalize

from conftest import DenseTableau, program_columns
from test_benchmark_imports import load_perfbench


def scipy_min(c, A, b):
    res = optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    return res


def test_tiny_known_program():
    # min -x0 over the 2-simplex: put all mass on x0
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    res = minimize([-1.0, 0.0], A, b)
    assert res.status == "optimal"
    assert res.value == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(res.x, [1.0, 0.0], atol=1e-12)


def test_equality_residual_is_tiny(rng):
    for _ in range(50):
        m, n = int(rng.integers(2, 8)), int(rng.integers(3, 14))
        A = rng.uniform(-1, 1, size=(m, n))
        A = np.vstack([A, np.ones(n)])
        x0 = rng.uniform(0, 1, size=n)
        b = A @ x0
        c = rng.uniform(-1, 1, size=n)
        res = minimize(c, A, b)
        assert res.status == "optimal"
        assert np.abs(A @ res.x - b).max() < 1e-9
        assert res.x.min() >= 0.0


def test_matches_scipy_on_random_bounded_programs(rng):
    for trial in range(120):
        m, n = int(rng.integers(2, 10)), int(rng.integers(3, 20))
        A = rng.uniform(-1, 1, size=(m, n))
        # a ones row keeps the feasible region bounded in every direction
        A = np.vstack([A, np.ones(n)])
        x0 = rng.uniform(0, 1, size=n)
        b = A @ x0
        c = rng.uniform(-1, 1, size=n)
        res = minimize(c, A, b)
        ref = scipy_min(c, A, b)
        assert ref.status == 0 and res.status == "optimal"
        assert res.value == pytest.approx(ref.fun, abs=1e-8), f"trial {trial}"


def test_negative_rhs_rows_are_handled(rng):
    A = np.array([[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0]])
    b = np.array([1.0, -0.25])  # second row says x0 = 0.25
    res = minimize([0.0, -1.0, 0.0], A, b)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(0.25, abs=1e-10)
    assert res.value == pytest.approx(-0.75, abs=1e-10)


def test_redundant_rows_tolerated(rng):
    A = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 1.0, 2.0])
    res = minimize([1.0, 2.0], A, b)
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_degenerate_rhs_zeros(rng):
    # several strata with zero mass force degenerate pivots
    for _ in range(30):
        n = 8
        A = np.vstack([np.eye(4).repeat(2, axis=1), np.ones(n)])
        b = np.array([0.0, 0.5, 0.0, 0.5, 1.0])
        c = rng.uniform(-1, 1, size=n)
        res = minimize(c, A, b)
        ref = scipy_min(c, A, b)
        assert res.status == "optimal"
        assert res.value == pytest.approx(ref.fun, abs=1e-9)


def test_infeasibility_detected_with_certificate():
    # x0 must equal both 1.0 and 0.3
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b = np.array([1.0, 0.3, 0.2])
    res = minimize([1.0, 1.0], A, b)
    assert res.status == "infeasible"
    assert res.violation_total == pytest.approx(0.7, abs=1e-9)
    assert res.violation_row in (0, 1)
    ref = scipy_min([1.0, 1.0], A, b)
    assert ref.status == 2


def test_infeasible_matches_scipy_on_random_instances(rng):
    found = 0
    for _ in range(200):
        m, n = int(rng.integers(3, 7)), int(rng.integers(2, 6))
        A = np.abs(rng.uniform(0, 1, size=(m, n)))
        b = rng.uniform(-0.2, 1, size=m)
        c = rng.uniform(-1, 1, size=n)
        A = np.vstack([A, np.ones(n)])
        b = np.concatenate([b, [1.0]])
        ref = scipy_min(c, A, b)
        res = minimize(c, A, b)
        if ref.status == 2:
            found += 1
            assert res.status == "infeasible"
            assert res.violation_total > 1e-9
        elif ref.status == 0:
            assert res.status == "optimal"
            assert res.value == pytest.approx(ref.fun, abs=1e-8)
    assert found > 5, "generator never produced infeasible instances"


def test_pair_solve_matches_two_single_solves(rng):
    for _ in range(40):
        m, n = int(rng.integers(2, 8)), int(rng.integers(3, 15))
        A = np.vstack([rng.uniform(0, 1, size=(m, n)), np.ones(n)])
        x0 = rng.uniform(0, 1, size=n)
        b = A @ x0
        c_lo = rng.uniform(-1, 1, size=n)
        c_hi = rng.uniform(-1, 1, size=n)
        lo, hi = minimize_pair(c_lo, c_hi, A, b)
        assert lo.status == hi.status == "optimal"
        assert lo.value == pytest.approx(minimize(c_lo, A, b).value, abs=1e-9)
        assert hi.value == pytest.approx(-minimize(-np.asarray(c_hi), A, b).value, abs=1e-9)
        # one objective on both sides: the interval cannot be inverted
        same_lo, same_hi = minimize_pair(c_lo, c_lo, A, b)
        assert same_lo.value == lo.value
        assert same_lo.value <= same_hi.value + 1e-12


def partition_program(rng, n_cells=6, n_arms=2, n_cols=None):
    """{0,1} incidence with one hit per arm per column, a ones row, and a mixture RHS."""
    n_cols = int(rng.integers(10, 40)) if n_cols is None else n_cols
    A = np.zeros((n_arms * n_cells + 1, n_cols))
    for arm in range(n_arms):
        hit = rng.integers(0, n_cells, size=n_cols)
        A[arm * n_cells + hit, np.arange(n_cols)] = 1.0
    A[-1] = 1.0
    return A, A @ rng.dirichlet(np.ones(n_cols))


def test_partition_structured_programs_match_scipy(rng):
    # the package's workload
    for _ in range(60):
        A, b = partition_program(rng)
        c = rng.choice([-1.0, 0.0, 1.0], size=A.shape[1])
        lo, hi = minimize_pair(c, c, A, b)
        ref_lo = scipy_min(c, A, b)
        ref_hi = scipy_min(-c, A, b)
        assert lo.value == pytest.approx(ref_lo.fun, abs=1e-9)
        assert hi.value == pytest.approx(-ref_hi.fun, abs=1e-9)
        assert lo.value <= hi.value + 1e-12


def test_deterministic_repeat(rng):
    A = np.vstack([rng.uniform(0, 1, size=(4, 9)), np.ones(9)])
    b = A @ rng.dirichlet(np.ones(9))
    c = rng.uniform(-1, 1, size=9)
    first = minimize(c, A, b)
    second = minimize(c, A, b)
    assert first.value == second.value
    assert np.array_equal(first.x, second.x)
    assert first.iterations == second.iterations


def test_shape_validation():
    with pytest.raises(ValueError, match="matrix"):
        minimize([1.0], np.ones(3), np.ones(1))
    with pytest.raises(ValueError, match="shape mismatch"):
        minimize([1.0, 1.0], np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError, match="cost shape"):
        minimize([1.0, 1.0, 1.0], np.ones((2, 2)), np.ones(2))


# ---------------------------------------------------------------------------
# the row-sparse pivot against the dense reference (conftest.DenseTableau)

# the study's shape against a comparator that assigns all three levels, so the reduced
# program keeps every recommendation value: 109 rows × 270 merged columns, 52,488 classes
STUDY = simulation.SimConfig(
    query="cu", guideline=TreatmentRule.from_table({(x,): 2 - x // 2 for x in range(6)}, name="reverse_step")
)


def _program(lp):
    """``(c_lo, c_hi, A, b)`` as ``solve_bounds`` hands them to the simplex."""
    A, c_min, c_max = program_columns(lp)
    return c_min, c_max, A, np.concatenate([lp.rhs.ravel(), [1.0]])


def study_program(index, query):
    """The 52,488-class reduced program of ``STUDY`` on replication ``index``'s observed table."""
    model = simulation.observed_model(STUDY)
    reduced = build_reduced_model(model)
    observed = marginalize(joint_from_scm(simulation.random_scm(STUDY, index)), [v.name for v in model.variables])
    table = reduce_table(model, reduced, observed)
    return _program(lp_bounds.build_lp(enumerate_response_types(reduced), table, query))


def stratum_program(arm_mixtures, level, query="theta_f"):
    """A 3-level instrumented stratum program; arm ``z`` observes class mixture ``arm_mixtures[z]``."""
    space = enumerate_response_types(SpaceShape("stratum", 3, 2))
    cells = class_cells(space)
    rhs = np.stack([np.bincount(cells[z], weights=q, minlength=space.n_cells) for z, q in enumerate(arm_mixtures)])
    return _program(LpProblem(space=space, query=query, rhs=rhs, level=level))


def _pair_states(tableau_cls, c_lo, c_hi, A, b):
    """``(result, basis, T)`` after phase 1 and after each side of a pair solve."""
    tableau = tableau_cls(A, b)
    states = [(None, tableau.basis.copy(), tableau.T.copy())]
    for c in (c_lo, -c_hi):
        res = tableau.solve(c)
        states.append((res, tableau.basis.copy(), tableau.T.copy()))
        if res.status != "optimal":
            break
    return states


def _bland(tableau_cls):
    """``tableau_cls`` pricing by Bland's rule from its first pivot on."""

    class Bland(tableau_cls):
        def _enter_phase1(self):
            self.stall_after = -1
            super()._enter_phase1()

    return Bland


def assert_same_pivots(c_lo, c_hi, A, b, bland=False):
    """The row-sparse tableau takes the dense reference's pivots and reaches its exact numbers."""
    fast_cls, ref_cls = (_bland(simplex._Tableau), _bland(DenseTableau)) if bland else (simplex._Tableau, DenseTableau)
    fast = _pair_states(fast_cls, c_lo, c_hi, A, b)
    ref = _pair_states(ref_cls, c_lo, c_hi, A, b)
    assert len(fast) == len(ref)
    for (res, basis, T), (ref_res, ref_basis, ref_T) in zip(fast, ref):
        assert np.array_equal(basis, ref_basis)
        assert np.array_equal(T, ref_T)
        if res is None:
            continue
        assert res.status == ref_res.status
        assert res.iterations == ref_res.iterations
        assert res.value == ref_res.value
        assert (res.x is None and ref_res.x is None) or np.array_equal(res.x, ref_res.x)
        assert res.violation_row == ref_res.violation_row
        assert res.violation_total == ref_res.violation_total
    return fast


@pytest.mark.parametrize("query", ["cu", "theta_f"])
@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_study_program_pivots_match_dense_reference_and_highs(index, query):
    c_lo, c_hi, A, b = study_program(index, query)
    assert A.shape == (109, 270)
    states = assert_same_pivots(c_lo, c_hi, A, b)
    lo, hi = states[1][0], states[2][0]
    assert lo.status == hi.status == "optimal"
    ref_lo = scipy_min(c_lo, A, b)
    ref_hi = scipy_min(-c_hi, A, b)
    assert lo.value == pytest.approx(ref_lo.fun, abs=1e-9)
    assert -hi.value == pytest.approx(-ref_hi.fun, abs=1e-9)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_instrumented_stratum_program_pivots_match_dense_reference(rng, level):
    n = enumerate_response_types(SpaceShape("stratum", 3, 2)).class_count
    for _ in range(10):
        mix = rng.dirichlet(np.ones(n))
        states = assert_same_pivots(*stratum_program((mix, mix), level))
        assert states[-1][0].status == "optimal"


@pytest.mark.parametrize("bland", [False, True], ids=["dantzig", "bland"])
def test_partition_programs_pivot_like_dense_reference(rng, bland):
    for _ in range(60):
        A, b = partition_program(rng, n_cells=int(rng.integers(2, 8)), n_arms=int(rng.integers(1, 4)))
        c_lo = rng.choice([-1.0, 0.0, 1.0], size=A.shape[1])
        c_hi = np.maximum(c_lo, rng.choice([-1.0, 0.0, 1.0], size=A.shape[1]))
        assert_same_pivots(c_lo, c_hi, A, b, bland=bland)


def test_degenerate_and_infeasible_programs_pivot_like_dense_reference(rng):
    n = enumerate_response_types(SpaceShape("stratum", 3, 2)).class_count
    # zero-mass cells: a mixture of three classes leaves most of the RHS at zero
    sparse = np.zeros(n)
    sparse[rng.choice(n, size=3, replace=False)] = rng.dirichlet(np.ones(3))
    degenerate = stratum_program((sparse, sparse), 1)
    assert np.count_nonzero(degenerate[3] == 0.0) >= 6
    assert assert_same_pivots(*degenerate)[-1][0].status == "optimal"
    # whole strata at zero mass, as in test_degenerate_rhs_zeros
    A = np.vstack([np.eye(4).repeat(2, axis=1), np.ones(8)])
    b = np.array([0.0, 0.5, 0.0, 0.5, 1.0])
    for _ in range(10):
        c = rng.uniform(-1, 1, size=8)
        assert_same_pivots(c, c, A, b)
    # each arm puts all its mass on a different class: no single mixture explains both
    first, second = np.zeros(n), np.zeros(n)
    space = enumerate_response_types(SpaceShape("stratum", 3, 2))
    cells = class_cells(space)
    first[0] = 1.0
    second[np.flatnonzero(cells[1] != cells[1][0])[0]] = 1.0
    infeasible = assert_same_pivots(*stratum_program((first, second), 0))
    assert infeasible[-1][0].status == "infeasible"


def test_pivot_allocates_only_the_rows_it_updates():
    # the dense update built an outer product as large as the whole tableau on every pivot
    c_lo, c_hi, A, b = study_program(0, "cu")
    peaks, touched = [], []

    class Traced(simplex._Tableau):
        def _pivot(self, i, j):
            touched.append(np.count_nonzero(self.T[:, j]))
            tracemalloc.start()
            try:
                super()._pivot(i, j)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

    tableau = Traced(A, b)
    tableau.solve(c_lo)
    tableau.solve(-c_hi)
    assert tableau.T.shape == (110, 380)
    assert np.median(peaks) < tableau.T.nbytes / 4
    row_bytes = tableau.T[0].nbytes
    assert all(peak <= 2 * rows * row_bytes + 4096 for peak, rows in zip(peaks, touched))


@pytest.mark.parametrize(
    "config,indices",
    [(STUDY, (0, 1, 2)), (simulation.SimConfig(query="theta_f"), (0, 3))],
    ids=["cu", "theta_f"],
)
def test_study_replications_are_equal_on_the_dense_reference(request, config, indices):
    # warm reduced solves, warm zero-cost strata and cold strata, every endpoint to the bit
    fast = [simulation.run_replication(config, i).to_dict() for i in indices]
    request.getfixturevalue("dense_simplex")
    assert simplex._Tableau is DenseTableau
    assert [simulation.run_replication(config, i).to_dict() for i in indices] == fast


def test_strata_request_is_equal_on_the_dense_reference(request):
    # a request shaped like the strata benchmark's: 1,000 strata, binary instrument, ternary treatment
    gen = load_perfbench("gen")
    variables = (
        (VariableSpec("z", 2, "instrument"),)
        + tuple(VariableSpec(f"x{i}", c, "rule_covariate") for i, c in enumerate(gen.STRATA_X_CARDS))
        + (VariableSpec("a", 3, "treatment"), VariableSpec("y", 2, "outcome"))
    )
    levels = gen.strata_rule_levels(1, 0)
    rule = TreatmentRule.from_table({x: int(levels[x]) for x in np.ndindex(levels.shape)})
    strata_request = StrategyRequest(CausalModel(variables, rule), JointTable(variables, gen.strata_table(1)), "theta_f")
    fast = conditioning_bounds(strata_request)
    request.getfixturevalue("dense_simplex")
    dense = conditioning_bounds(strata_request)
    assert len(dense.diagnostics["strata"]) == 1000
    assert dense.to_dict() == fast.to_dict()
