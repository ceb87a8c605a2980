"""Self-contained two-phase tableau simplex for equality-form programs.

Solves min c.x subject to A x = b, x >= 0, on a dense tableau with Dantzig
pricing, simple to audit. Programs have a few hundred rows and columns, or
thousands for the direct oracle over a wide covariate domain;
``lp_bounds`` refuses one whose tableau would exceed
``MAX_TABLEAU_BYTES``. Once a tableau has made ``stall_after`` pivots in
total it prices by Bland's rule instead, which guarantees termination; the
switch counts pivots, it does not detect stalling. Infeasibility is
reported with the most-violated row taken from the phase-1 basis, which
minimizes the total constraint violation; of rows tied to within
``VIOLATION_TIE_TOL``, the first is reported.

A pivot updates only the rows whose entry in the pivot column is non-zero
(a handful in the package's partition-structured programs), and its two
temporaries (those rows' copy and the outer-product update that becomes the
difference) span only those rows. Every entry it changes gets the same
arithmetic as the full rank-one update ``T -= outer(col, T[i])``, so the
pivot sequence and the results do not depend on the sparsity. Pricing
allocates nothing: the tableau's one ``priced`` buffer receives the reduced
costs plus the ``barred`` row, 0.0 where a column may enter and +inf where
it may not (an artificial that has left the basis, and every artificial
after phase 1).

Bound pairs share one tableau: phase 1 runs once, then the lower and upper
objectives are optimized back to back, the second starting from the
first's optimal basis.

A program solved many times with only ``b`` changing can skip phase 1.
``warm_start`` solves its lower side once, cold, at the canonical
right-hand side ``b = A·1/n`` (which ``x = 1/n`` makes feasible for every
``A``) and keeps that optimal tableau. ``minimize_pair(..., start=...)``
then copies it, sets its right-hand side to ``B⁻¹b`` (the artificial
columns hold ``B⁻¹``) and, since changing ``b`` leaves the basis dual
feasible, restores primal feasibility by dual simplex pivots (Lemke 1954):
the most negative row leaves, and the entering column wins the ratio test
on the reduced costs, ties going to the lowest index. The upper side is
then optimized from that basis, as in a cold pair. The basis depends on
the program alone, never on what was solved before. The pair goes the
cold way instead when the dual finds no entering column (``b`` is
infeasible, and phase 1 names the most violated row), when an artificial
parked on a redundant row reads nonzero, or after ``max_pivots`` dual
pivots.

Zero costs need no case of their own: every basis is optimal for them, so
the kept tableau is the phase-1 one, every dual pivot takes the lowest
index (every ratio is zero), and the upper solve makes no pivot. Both
endpoints are ``0.0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SolverError

OPT_TOL = 1e-11   # reduced-cost threshold for optimality
PIV_TOL = 1e-10   # smallest pivot magnitude accepted
RATIO_TIE_TOL = 1e-12
FEAS_TOL = 1e-9   # phase-1 total violation above which the program is infeasible
PRIMAL_TOL = 1e-12  # a warm re-solve's basic values must be at least -PRIMAL_TOL
# phase-1 violations within this of the largest tie for most violated, so rounding noise
# does not decide which row an infeasible program reports
VIOLATION_TIE_TOL = 1e-12


@dataclass(frozen=True)
class SimplexResult:
    status: str                      # "optimal" or "infeasible"
    value: Optional[float]
    x: Optional[np.ndarray]
    iterations: int
    violation_row: Optional[int] = None
    violation_total: Optional[float] = None
    solve: str = "cold"              # "warm" when re-solved from a WarmStart without phase 1


class _Tableau:
    """One feasibility session over fixed (A, b); supports repeated objectives."""

    def __init__(self, A, b):
        A = np.asarray(A, dtype=float)  # read only: the tableau is the one copy
        b = np.asarray(b, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a matrix")
        m, n = A.shape
        if b.shape != (m,):
            raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
        sign = np.where(b < 0, -1.0, 1.0)[:, np.newaxis]
        self.m, self.n = m, n
        # columns: [0, n) real variables, [n, n+m) artificials, last column RHS
        T = np.zeros((m + 1, n + m + 1))
        np.multiply(A, sign, out=T[:m, :n])
        np.fill_diagonal(T[:m, n : n + m], 1.0)
        T[:m, -1] = sign[:, 0] * b
        self.T = T
        self.basis = np.arange(n, n + m)
        self.barred = np.zeros(n + m)  # added to the reduced costs: 0.0 may enter, +inf may not
        self.priced = np.empty(n + m)
        self.stall_after = 20 * (m + n) + 200
        self.max_iter = 200 * (m + n) + 5000
        self.iterations = 0
        self.infeasible: Optional[tuple[int, float]] = None
        self._enter_phase1()

    def _pivot(self, i: int, j: int) -> None:
        T = self.T
        row, col = T[i], T[:, j]
        row /= row[j]
        col[i] = 0.0  # keeps row i itself out of the update below
        rows = col.nonzero()[0]
        # col's entries copied along each row: the product then needs no iterator buffers, and keeps its bits;
        # out is passed by position, which costs less dispatch than the keyword on the small stratum tableaux
        update = np.empty((rows.size, row.size))
        update.T[...] = col[rows]
        np.multiply(update, row, update)
        np.subtract(T.take(rows, axis=0), update, update)
        T[rows] = update
        col.fill(0.0)
        col[i] = 1.0
        leaving = self.basis[i]
        self.basis[i] = j
        if leaving >= self.n:
            self.barred[leaving] = np.inf  # artificials never re-enter
        self.iterations += 1

    def _optimize(self) -> bool:
        """Pivot until the loaded cost row is optimal; False on unboundedness."""
        T, m, priced = self.T, self.m, self.priced
        red, rhs = T[-1, :-1], T[:m, -1]
        while True:
            if self.iterations > self.max_iter:
                raise SolverError(
                    f"simplex exceeded {self.max_iter} pivots (m={m}, n={self.n})"
                )
            np.add(red, self.barred, out=priced)
            j = int(priced.argmin())
            if not priced[j] < -OPT_TOL:
                return True
            if self.iterations > self.stall_after:
                # Bland: lowest improving index, ensures termination
                j = int((priced < -OPT_TOL).argmax())
            col = T[:m, j]
            rows = (col > PIV_TOL).nonzero()[0]
            if rows.size == 0:
                return False
            ratios = rhs[rows] / col[rows]
            ties = rows[ratios <= np.minimum.reduce(ratios) + RATIO_TIE_TOL]
            i = int(ties[0]) if ties.size == 1 else int(ties[np.argmin(self.basis[ties])])
            self._pivot(i, j)

    def _load_cost(self, cost: np.ndarray) -> None:
        """Install a cost row and reduce it against the current basis."""
        T = self.T
        T[-1, :-1] = cost
        T[-1, -1] = 0.0
        weights = T[-1, self.basis].copy()
        nz = np.flatnonzero(weights)
        if nz.size:
            T[-1, :] -= weights[nz] @ T[nz, :]

    def _enter_phase1(self) -> None:
        phase1 = np.zeros(self.n + self.m)
        phase1[self.n :] = 1.0
        self._load_cost(phase1)
        if not self._optimize():
            raise SolverError("phase-1 objective unbounded; constraint setup is broken")
        art_rows = np.flatnonzero(self.basis >= self.n)
        total = float(self.T[art_rows, -1].sum()) if art_rows.size else 0.0
        if total > FEAS_TOL:
            violations = self.T[art_rows, -1]
            worst = art_rows[np.flatnonzero(violations >= violations.max() - VIOLATION_TIE_TOL)[0]]
            self.infeasible = (int(self.basis[worst] - self.n), total)
            return
        # pivot lingering artificials out of the basis; rows with no usable
        # column are redundant constraints and stay parked at zero
        for i in np.flatnonzero(self.basis >= self.n):
            usable = np.flatnonzero(np.abs(self.T[i, : self.n]) > PIV_TOL)
            if usable.size:
                self._pivot(i, int(usable[0]))
        self.barred[self.n :] = np.inf

    def solve(self, c) -> SimplexResult:
        """Optimize ``c`` over the (already established) feasible region."""
        c = np.asarray(c, dtype=float)
        if c.shape != (self.n,):
            raise ValueError(f"cost shape {c.shape}, expected ({self.n},)")
        if self.infeasible is not None:
            row, total = self.infeasible
            return SimplexResult(
                status="infeasible",
                value=None,
                x=None,
                iterations=self.iterations,
                violation_row=row,
                violation_total=total,
            )
        cost = np.zeros(self.n + self.m)
        cost[: self.n] = c
        self._load_cost(cost)
        if not self._optimize():
            raise SolverError("objective unbounded below; expected a bounded feasible set")
        return self._vertex(c)

    def _vertex(self, c: np.ndarray, solve: str = "cold") -> SimplexResult:
        """The current basic solution, valued at ``c``."""
        x = np.zeros(self.n)
        real = self.basis < self.n
        x[self.basis[real]] = self.T[: self.m, -1][real]
        np.clip(x, 0.0, None, out=x)
        return SimplexResult(
            status="optimal", value=float(c @ x), x=x, iterations=self.iterations, solve=solve
        )

    def _copy(self) -> "_Tableau":
        twin = object.__new__(type(self))
        twin.__dict__ = dict(self.__dict__)
        twin.T, twin.basis, twin.barred = self.T.copy(), self.basis.copy(), self.barred.copy()
        twin.priced = np.empty_like(self.priced)
        return twin

    def _resolve(self, b: np.ndarray, max_pivots: int) -> bool:
        """Re-optimize the loaded cost for a new right-hand side by dual pivots.

        False when the pair must go the cold way: a parked artificial reads
        nonzero, a row has no entering column, or ``max_pivots`` is reached.
        """
        T, m, n = self.T, self.m, self.n
        T[:, -1] = T[:, n : n + m] @ b
        rhs = T[:m, -1]
        if np.any(np.abs(rhs[self.basis >= n]) > PRIMAL_TOL):
            return False
        while True:
            i = int(rhs.argmin())
            if not rhs[i] < -PRIMAL_TOL:
                return True
            # after phase 1 the columns that may enter are exactly the real ones
            cols = (T[i, :n] < -PIV_TOL).nonzero()[0]
            if cols.size == 0 or self.iterations >= max_pivots:
                return False
            # the smallest ratio keeps every reduced cost nonnegative; argmin takes the lowest index of a tie
            j = int(cols[(T[-1, cols] / -T[i, cols]).argmin()])
            self._pivot(i, j)


def minimize(c, A, b) -> SimplexResult:
    """Two-phase simplex; returns an optimal vertex or an infeasibility certificate."""
    return _Tableau(A, b).solve(c)


@dataclass(frozen=True, eq=False)
class WarmStart:
    """The lower side's optimal tableau of one program at its canonical right-hand side."""

    c_lo: np.ndarray         # the costs warm_start was given, not copies: minimize_pair knows them by identity
    c_hi: np.ndarray
    sign: np.ndarray         # row signs the canonical tableau applied to A and b
    tableau: _Tableau        # read-only: each re-solve pivots a copy
    max_pivots: int          # dual pivots before the cold path takes over


def warm_start(c_lo, c_hi, A) -> WarmStart:
    """Solve the lower side once, cold, at ``b = A·1/n`` and keep its optimal tableau."""
    c_lo, c_hi = np.asarray(c_lo, dtype=float), np.asarray(c_hi, dtype=float)
    b = np.asarray(A, dtype=float).mean(axis=1)
    tableau = _Tableau(A, b)
    if tableau.solve(c_lo).status != "optimal":
        raise SolverError("canonical right-hand side A·1/n found infeasible; constraint setup is broken")
    for array in (tableau.T, tableau.basis, tableau.barred):
        array.setflags(write=False)
    # m bounds the drift: uncapped, a 289-row reduction's 759 dual pivots missed A x = b by 1.5e-5
    return WarmStart(c_lo, c_hi, np.where(b < 0, -1.0, 1.0), tableau, max_pivots=tableau.m)


def minimize_pair(c_lo, c_hi, A, b, start: Optional[WarmStart] = None):
    """min of ``c_lo`` and max of ``c_hi`` over one shared feasible region.

    Returns (lower_result, upper_result) where the upper result reports the
    maximum of ``c_hi`` directly. Phase 1 runs once; the upper solve starts
    from the lower's optimal basis. With ``start``, built by ``warm_start``
    from the same ``c_lo``, ``c_hi`` and ``A``, the lower side is re-solved
    from a copy of its canonical tableau by dual pivots instead; when that
    fails the pair is solved cold, and the lower result's ``iterations``
    counts the dual pivots too.
    """
    spent = 0
    if start is not None:
        if not ((start.c_lo is c_lo or np.array_equal(start.c_lo, c_lo))
                and (start.c_hi is c_hi or np.array_equal(start.c_hi, c_hi))):
            raise ValueError("warm start was built for other costs")
        b = np.asarray(b, dtype=float)
        if b.shape != start.sign.shape:
            raise ValueError(f"shape mismatch: warm start has {start.sign.size} rows, b {b.shape}")
        tableau = start.tableau._copy()
        tableau.iterations = 0
        if tableau._resolve(start.sign * b, start.max_pivots):
            return tableau._vertex(start.c_lo, solve="warm"), _upper(tableau, start.c_hi, "warm")
        spent = tableau.iterations
        del tableau  # the given-up copy is freed before the cold tableau is built
    tableau = _Tableau(A, b)
    lo = tableau.solve(np.asarray(c_lo, dtype=float))
    if spent:
        lo = SimplexResult(lo.status, lo.value, lo.x, lo.iterations + spent, lo.violation_row, lo.violation_total)
    if lo.status != "optimal":
        return lo, lo
    return lo, _upper(tableau, np.asarray(c_hi, dtype=float), "cold")


def _upper(tableau: _Tableau, c_hi: np.ndarray, solve: str) -> SimplexResult:
    """The maximum of ``c_hi``, optimized from the tableau's lower-optimal basis, with the pivots it took."""
    before = tableau.iterations
    hi_neg = tableau.solve(-c_hi)
    # not -value: a zero maximum is 0.0, never -0.0
    return SimplexResult("optimal", 0.0 - hi_neg.value, hi_neg.x, tableau.iterations - before, solve=solve)
