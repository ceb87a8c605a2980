"""Dense probability tables: joints, conditionals, CPTs, and small SCMs.

A ``JointTable`` stores a full joint over named discrete variables as one
ndarray whose axes follow the variable declaration order. All operations
return new tables; arrays are marked read-only on construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import DataError
from .model import VariableSpec

SUM_TOL = 1e-12
NEG_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class JointTable:
    """Joint distribution over ``variables``; ``probs.shape`` matches their cardinalities."""

    variables: tuple[VariableSpec, ...]
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        arr = np.array(self.probs, dtype=float)
        expected = tuple(v.cardinality for v in self.variables)
        if arr.shape != expected:
            raise ValueError(
                f"probs shape {arr.shape} does not match cardinalities {expected}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("probabilities must be finite, found NaN or infinity")
        if arr.size and arr.min() < -NEG_TOL:
            raise ValueError(f"negative probability entry: {arr.min()!r}")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        arr[arr < 0.0] = 0.0  # an entry within NEG_TOL below zero is zero, so every table is a distribution
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no variable named {name!r}; table has {self.names}") from None


def marginalize(table: JointTable, keep: Sequence[str]) -> JointTable:
    """Sum out everything not in ``keep``; axis order of the result follows the table."""
    keep_set = set(keep)
    unknown = keep_set - set(table.names)
    if unknown:
        raise KeyError(f"unknown variables {sorted(unknown)}; table has {table.names}")
    drop_axes = tuple(i for i, v in enumerate(table.variables) if v.name not in keep_set)
    kept = tuple(v for v in table.variables if v.name in keep_set)
    probs = table.probs.sum(axis=drop_axes) if drop_axes else table.probs
    return JointTable(kept, probs)


def condition(table: JointTable, assignments: Mapping[str, int]) -> tuple[Optional[JointTable], float]:
    """Condition on ``assignments``, returning the conditional table and the event mass.

    A zero-mass event has no conditional table: it yields ``(None, 0.0)`` so
    the caller can decide whether to skip or fail.
    """
    if not assignments:
        raise ValueError("assignments must name at least one variable")
    indexer: list = [slice(None)] * len(table.variables)
    for name, value in assignments.items():
        ax = table.axis(name)
        card = table.variables[ax].cardinality
        if not 0 <= int(value) < card:
            raise ValueError(f"{name}={value} outside range(0, {card})")
        indexer[ax] = int(value)
    sliced = table.probs[tuple(indexer)]
    mass = float(sliced.sum())
    if mass <= 0.0:
        return None, 0.0
    kept = tuple(v for v in table.variables if v.name not in assignments)
    return JointTable(kept, sliced / mass), mass


def axes_in(table: JointTable, names: Sequence[str]) -> np.ndarray:
    """``table.probs`` with its axes in the order ``names``, a permutation: a read-only view, not a table."""
    if sorted(names) != sorted(table.names):
        raise ValueError(f"{list(names)} is not a permutation of {table.names}")
    return table.probs.transpose([table.axis(n) for n in names])


def reorder(table: JointTable, names: Sequence[str]) -> JointTable:
    """Transpose axes into the order ``names``, a permutation; a table already in it is returned itself."""
    if tuple(names) == table.names:
        return table
    return JointTable(tuple(table.variables[table.axis(n)] for n in names), axes_in(table, names))


def with_variables(table: JointTable, new_vars: Sequence[VariableSpec]) -> JointTable:
    """Replace variable specs (for example, to canonical names); cardinalities must match."""
    new_vars = tuple(new_vars)
    if tuple(v.cardinality for v in new_vars) != tuple(v.cardinality for v in table.variables):
        raise ValueError("replacement specs must match existing cardinalities")
    return JointTable(new_vars, table.probs)


@dataclass(frozen=True, eq=False)
class Cpt:
    """Conditional probability table: one row per parent configuration.

    Rows are ordered lexicographically over parent values (row-major, first
    parent slowest). A parentless CPT has a single row.
    """

    child: VariableSpec
    parents: tuple[VariableSpec, ...]
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        arr = np.array(self.rows, dtype=float)
        n_rows = int(np.prod([p.cardinality for p in self.parents], dtype=np.int64)) if self.parents else 1
        if arr.shape != (n_rows, self.child.cardinality):
            raise ValueError(
                f"CPT for {self.child.name!r}: rows shape {arr.shape}, "
                f"expected {(n_rows, self.child.cardinality)}"
            )
        if arr.size and arr.min() < -NEG_TOL:
            raise ValueError(f"CPT for {self.child.name!r}: negative entry {arr.min()!r}")
        bad = np.abs(arr.sum(axis=1) - 1.0) > SUM_TOL
        if bad.any():
            raise ValueError(
                f"CPT for {self.child.name!r}: rows {np.flatnonzero(bad)[:5].tolist()} do not sum to 1"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    def row_index(self, parent_values: Sequence[int]) -> int:
        idx = 0
        for spec, value in zip(self.parents, parent_values):
            idx = idx * spec.cardinality + int(value)
        return idx


@dataclass(frozen=True, eq=False)
class Scm:
    """A fully parameterized discrete model: CPTs in topological order."""

    cpts: tuple[Cpt, ...]

    def __post_init__(self):
        object.__setattr__(self, "cpts", tuple(self.cpts))
        seen: dict[str, VariableSpec] = {}
        for cpt in self.cpts:
            for p in cpt.parents:
                if p.name not in seen:
                    raise ValueError(
                        f"CPT for {cpt.child.name!r}: parent {p.name!r} not defined earlier"
                    )
                if seen[p.name] != p:
                    raise ValueError(f"parent spec mismatch for {p.name!r}")
            if cpt.child.name in seen:
                raise ValueError(f"duplicate CPT for {cpt.child.name!r}")
            seen[cpt.child.name] = cpt.child

    @property
    def variables(self) -> tuple[VariableSpec, ...]:
        return tuple(c.child for c in self.cpts)

    def cpt_for(self, name: str) -> Cpt:
        for c in self.cpts:
            if c.child.name == name:
                return c
        raise KeyError(f"no CPT for variable {name!r}")

    def by_role(self, role: str) -> tuple[VariableSpec, ...]:
        return tuple(v for v in self.variables if v.role == role)


def cpt_product(scm: Scm, rows: Optional[Mapping[str, np.ndarray]] = None) -> np.ndarray:
    """The CPTs multiplied in order into a C-ordered array over ``scm.variables``; ``rows`` replaces rows by child."""
    rows = rows or {}
    position = {v.name: i for i, v in enumerate(scm.variables)}
    operands = []  # each CPT's rows shaped (parents..., child), subscripted by those variables' positions
    for cpt in scm.cpts:
        axes = cpt.parents + (cpt.child,)
        operands += [rows.get(cpt.child.name, cpt.rows).reshape([v.cardinality for v in axes]),
                     [position[v.name] for v in axes]]
    # sums no index; numpy sums an array in memory order, so C order keeps the bits of every sum over the product
    return np.einsum(*operands, list(range(len(position))), order="C")


def joint_from_scm(scm: Scm) -> JointTable:
    """The exact joint over all model variables: ``cpt_product`` as a table."""
    return JointTable(scm.variables, cpt_product(scm))


def empirical_joint(records, variables: Sequence[VariableSpec]) -> JointTable:
    """Cell frequencies of integer-coded records."""
    variables = tuple(variables)
    arr = np.asarray(records)
    if arr.ndim != 2 or arr.shape[1] != len(variables):
        raise DataError(
            f"records must be an (n, {len(variables)}) table, got shape {arr.shape}"
        )
    if arr.shape[0] == 0:
        raise DataError("records are empty")
    integral = np.issubdtype(arr.dtype, np.integer)
    if not integral and not np.all(arr == np.floor(arr)):
        raise DataError("records must contain integer codes")
    # range first, so an infinite or huge float code is named as it is, not as its integer cast
    for j, v in enumerate(variables):
        col = arr[:, j]
        bad = np.flatnonzero((col < 0) | (col >= v.cardinality))
        if bad.size:
            value = col[bad[0]]
            raise DataError(
                f"variable {v.name!r}: value {int(value) if np.isfinite(value) else value} "
                f"at record {int(bad[0])} outside range(0, {v.cardinality}) ({bad.size} offending records)"
            )
    shape = tuple(v.cardinality for v in variables)
    cells = np.ravel_multi_index(tuple(arr.T.astype(np.intp, copy=False)), shape)
    counts = np.bincount(cells, minlength=int(np.prod(shape))).reshape(shape)
    return JointTable(variables, counts / arr.shape[0])
