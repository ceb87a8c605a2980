"""Self-contained two-phase tableau simplex for small equality-form programs.

Solves min c.x subject to A x = b, x >= 0. Problem sizes in this package
stay below a few hundred rows and columns, so a dense tableau with Dantzig
pricing is fast and simple to audit. Once a tableau has made
``stall_after`` pivots in total it prices by Bland's rule instead, which
guarantees termination; the switch counts pivots, it does not detect
stalling. Infeasibility is reported with the most-violated row taken from
the phase-1 basis, which minimizes the total constraint violation.

A pivot updates only the rows whose entry in the pivot column is non-zero
(a handful in the package's partition-structured programs) and builds no
tableau-sized temporary. Every entry it changes gets the same arithmetic
as the full rank-one update ``T -= outer(col, T[i])``, so the pivot
sequence and the results do not depend on the sparsity.

Bound pairs share one tableau: phase 1 runs once, then the lower and upper
objectives are optimized back to back, the second warm-starting from the
first's optimal basis.
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


@dataclass(frozen=True)
class SimplexResult:
    status: str                      # "optimal" or "infeasible"
    value: Optional[float]
    x: Optional[np.ndarray]
    iterations: int
    violation_row: Optional[int] = None
    violation_total: Optional[float] = None


class _Tableau:
    """One feasibility session over fixed (A, b); supports repeated objectives."""

    def __init__(self, A, b):
        A = np.array(A, dtype=float)
        b = np.array(b, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a matrix")
        m, n = A.shape
        if b.shape != (m,):
            raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
        neg = b < 0
        A[neg] *= -1.0
        b[neg] *= -1.0
        self.m, self.n = m, n
        # columns: [0, n) real variables, [n, n+m) artificials, last column RHS
        T = np.zeros((m + 1, n + m + 1))
        T[:m, :n] = A
        T[:m, n : n + m] = np.eye(m)
        T[:m, -1] = b
        self.T = T
        self.basis = np.arange(n, n + m)
        self.allowed = np.ones(n + m, dtype=bool)
        self.stall_after = 20 * (m + n) + 200
        self.max_iter = 200 * (m + n) + 5000
        self.iterations = 0
        self.infeasible: Optional[tuple[int, float]] = None
        self._enter_phase1()

    def _pivot(self, i: int, j: int) -> None:
        T = self.T
        row = T[i]
        row /= row[j]
        T[i, j] = 0.0  # keeps row i itself out of the update below
        rows = T[:, j].nonzero()[0]
        T[rows] -= T[rows, j, None] * row
        T[:, j] = 0.0
        T[i, j] = 1.0
        leaving = self.basis[i]
        self.basis[i] = j
        if leaving >= self.n:
            self.allowed[leaving] = False  # artificials never re-enter
        self.iterations += 1

    def _optimize(self) -> bool:
        """Pivot until the loaded cost row is optimal; False on unboundedness."""
        T, m = self.T, self.m
        while True:
            if self.iterations > self.max_iter:
                raise SolverError(
                    f"simplex exceeded {self.max_iter} pivots (m={m}, n={self.n})"
                )
            red = T[-1, :-1]
            priced = np.where(self.allowed, red, np.inf)
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
            ratios = T[rows, -1] / col[rows]
            ties = rows[ratios <= ratios.min() + RATIO_TIE_TOL]
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
            worst = art_rows[np.argmax(self.T[art_rows, -1])]
            self.infeasible = (int(self.basis[worst] - self.n), total)
            return
        # pivot lingering artificials out of the basis; rows with no usable
        # column are redundant constraints and stay parked at zero
        for i in np.flatnonzero(self.basis >= self.n):
            usable = np.flatnonzero(np.abs(self.T[i, : self.n]) > PIV_TOL)
            if usable.size:
                self._pivot(i, int(usable[0]))
        self.allowed[self.n :] = False

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
        x = np.zeros(self.n)
        real = self.basis < self.n
        x[self.basis[real]] = self.T[: self.m, -1][real]
        np.clip(x, 0.0, None, out=x)
        return SimplexResult(status="optimal", value=float(c @ x), x=x, iterations=self.iterations)


def minimize(c, A, b) -> SimplexResult:
    """Two-phase simplex; returns an optimal vertex or an infeasibility certificate."""
    return _Tableau(A, b).solve(c)


def minimize_pair(c_lo, c_hi, A, b):
    """min of ``c_lo`` and max of ``c_hi`` over one shared feasible region.

    Returns (lower_result, upper_result) where the upper result reports the
    maximum of ``c_hi`` directly. Phase 1 runs once; the second solve reuses
    the first's final basis.
    """
    tableau = _Tableau(A, b)
    lo = tableau.solve(np.asarray(c_lo, dtype=float))
    if lo.status != "optimal":
        return lo, lo
    before = tableau.iterations
    hi_neg = tableau.solve(-np.asarray(c_hi, dtype=float))
    hi = SimplexResult(
        status="optimal",
        value=-hi_neg.value,
        x=hi_neg.x,
        iterations=hi_neg.iterations - before,
    )
    return lo, hi
