"""Response-type linear programs yielding sharp bounds on rule values.

Each problem shape induces a finite set of latent response classes: a
joint choice of root-node values, a treatment response function over the
treatment's observed parents, and an outcome response function over the
outcome's observed parents. Any observed distribution compatible with the
shape is a mixture over classes, each class pinning down one observed cell
per instrument arm. Sharp bounds on a counterfactual query are then the
extrema of a linear objective over the mixture polytope.

Classes with identical observed behavior in every arm are merged into one
column, keeping the extreme objective coefficient per group (Balke and
Pearl's response-function partition); this is exact and keeps the tableaus
small. A class's cells and coefficient depend only on its root
configuration and its *response profile* there: the treatment level it
gives in each arm and the outcome it gives at each level. Each arm and
each level reads a distinct parent configuration, so every profile is some
class's, and merging the profiles gives the same columns. Each space does
that once (``ResponseTypeSpace.merged``), refusing a program over
``MAX_TABLEAU_BYTES``; no solve walks the classes. The per-class arrays
(``class_cells``, ``LpProblem.cells`` and ``.objective``), broadcast from
three small factor tables, state the unmerged program for reference checks
only.

The programs of one key (a shape, a query and the levels it reads) differ
only in their right-hand side. ``solve_block`` solves every program: it checks
the key and reads its record (``ResponseTypeSpace.program``) once for a block
of rows that ``arm_rows`` normalised, one row per table or stratum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import prod
from typing import NamedTuple, Optional

import numpy as np

from . import simplex
from .errors import DataError, InfeasibleModelError, ProgramTooLargeError, SolverError
from .model import (
    CANON_INSTRUMENT,
    CANON_OUTCOME,
    CANON_RECS,
    CANON_RULE_REC,
    CANON_TREATMENT,
    ROLE_EXTRA_COVARIATE,
    ROLE_RULE_COVARIATE,
    CausalModel,
    SpaceShape,
    int_tuple,
)
from .tables import JointTable, axes_in

# the most any one array of a program may take: its profile arrays, or its dense simplex tableau
# (a solve holds A, pivot temporaries and, for a reduction, its warm starts too: 2.7 to 5 tableaus)
MAX_TABLEAU_BYTES = 256 * 2**20
# response-type spaces kept per process; an evicted space frees whatever it cached: its merge and program records
SPACE_CACHE_SIZE = 32
BOUND_TOL = 1e-9

# each query is a signed sum of rule values: "f" reads the evaluated rule, "g" the guideline
QUERIES = {"theta_f": {"f": 1}, "theta_g": {"g": 1}, "cu": {"f": 1, "g": -1}}

_STRATEGY_BY_KIND = {"reduced": "reduction", "stratum": "conditioning", "full": "direct_oracle"}


def read_levels(query: str, level, guideline_level) -> tuple:
    """``(level, guideline_level)`` with None for a side ``query`` does not read: what its program depends on."""
    sides = QUERIES[query]
    return (level if "f" in sides else None, guideline_level if "g" in sides else None)


def require_guideline(query: str, declared: bool) -> None:
    """Refuse an unknown query, or one that reads the comparator when the model ``declared`` none."""
    if not isinstance(query, str) or query not in QUERIES:
        raise ValueError(f"unknown query {query!r}; expected one of {tuple(QUERIES)}")
    if "g" in QUERIES[query] and not declared:
        raise ValueError(f"query {query!r} needs a guideline, but the model declares none")


def check_request(model: CausalModel, observed: JointTable, query: str) -> None:
    """Refuse a query the model cannot answer, or a table over other variables; the model checked itself when built."""
    require_guideline(query, model.guideline is not None)
    declared = {v.name: v.cardinality for v in model.variables}
    got = {v.name: v.cardinality for v in observed.variables}
    if declared != got:
        raise ValueError(
            f"observed table variables {got} do not match the declared model {declared}"
        )


@dataclass(frozen=True, eq=False)
class ResponseTypeSpace:
    """The class structure for one problem shape.

    Parent configurations are indexed lexicographically with the first
    parent slowest. ``*_rest_root_positions`` say which root supplies each
    non-instrument / non-treatment parent value, and ``cell_sources`` say
    where each observed-cell coordinate comes from ("treatment", "outcome",
    or a root position). ``merged`` is built on first use and lives (and is
    freed) with the space, as do ``records``; no per-class array is kept.
    """

    shape: SpaceShape
    root_names: tuple
    root_cards: tuple
    a_parent_names: tuple
    a_parent_cards: tuple
    y_parent_names: tuple
    y_parent_cards: tuple
    cell_names: tuple
    cell_cards: tuple
    a_rest_root_positions: tuple
    y_rest_root_positions: tuple
    cell_sources: tuple
    class_count: int
    records: dict = field(default_factory=dict, init=False, repr=False)  # kept by ``program``, per (query, levels)

    @property
    def n_arms(self) -> int:
        return self.shape.instrument_card if self.shape.instrument_card else 1

    @property
    def n_cells(self) -> int:
        return prod(self.cell_cards)

    @cached_property
    def merged(self) -> tuple:
        """Read-only ``(A, inverse)``: the merged columns, and the column of each response profile.

        ``inverse[r, t, y]`` is the column of root configuration ``r`` under
        arm profile ``t`` (the level given in each arm, first arm slowest)
        and outcome profile ``y`` (the outcome given at each level, level 0
        slowest). A profile's per-arm cell tuple is ranked arm by arm, first
        arm slowest, so columns come in lexicographic order of their cell
        tuples and no code outgrows the profile count. ``A`` has one row per
        (arm, cell), arm-major, and a last total-mass row. Profile arrays or
        a simplex tableau over ``MAX_TABLEAU_BYTES`` raise
        ``ProgramTooLargeError`` before they are allocated: the profiles are
        counted first, the columns before ``A``.
        """
        k, n_arms = self.shape.treat_card, self.n_arms
        profiles = prod(self.root_cards) * k**n_arms * 2**k
        # each arm's cells, their codes and np.unique's buffers: at most n_arms + 8 int64 arrays over the profiles
        self._check_budget(8 * profiles * (n_arms + 8), f"merging its {profiles:,} response profiles")
        roots = _digits(self.root_cards)
        arm_levels = _digits((k,) * n_arms)
        outcomes = _digits((2,) * k)
        value, cells, inverse = dict(enumerate(roots[:, :, np.newaxis, np.newaxis])), [], 0
        for level in arm_levels:
            value.update(treatment=level[:, np.newaxis], outcome=outcomes[level])
            cells.append(sum(value[src] * s for src, s in zip(self.cell_sources, _strides(self.cell_cards))).ravel())
            inverse = np.unique(inverse * self.n_cells + cells[-1], return_inverse=True)[1]
        rows, columns = n_arms * self.n_cells + 1, int(inverse.max()) + 1  # A is smaller than the tableau
        tableau = 8 * (rows + 1) * (columns + rows + 1)
        self._check_budget(tableau, f"the simplex tableau of its {rows:,} rows × {columns:,} columns")
        first = np.empty(columns, dtype=np.intp)
        first[inverse] = np.arange(inverse.size)  # one profile of each column
        cells = [cell[first] for cell in cells]  # each column's cell per arm; the profile arrays go before A
        A = np.zeros((rows, columns))
        for arm, cell in enumerate(cells):
            A[arm * self.n_cells + cell, np.arange(columns)] = 1.0
        A[-1] = 1.0
        inverse = inverse.reshape(roots.shape[1], arm_levels.shape[1], -1)
        for array in (A, inverse):
            array.setflags(write=False)
        return A, inverse

    def _check_budget(self, needed: int, what: str) -> None:
        """Refuse ``what`` when it needs more than ``MAX_TABLEAU_BYTES``."""
        if needed > MAX_TABLEAU_BYTES:
            raise ProgramTooLargeError(
                f"the {_STRATEGY_BY_KIND[self.shape.kind]} program is too large: {what} needs "
                f"{needed:,} bytes ({needed / 2**20:,.1f} MiB), over the budget of "
                f"{MAX_TABLEAU_BYTES:,} bytes ({MAX_TABLEAU_BYTES / 2**20:g} MiB)",
                needed=needed,
                budget=MAX_TABLEAU_BYTES,
            )

    def program(self, query: str, level=None, guideline_level=None) -> tuple:
        """``(A, c_min, c_max, start)``: the program of ``query`` at the levels ``build_lp`` checked.

        ``A`` is the merged columns, ``c_min`` and ``c_max`` (read-only) each
        column's extreme coefficient over its profiles, and ``start`` the
        ``simplex.WarmStart`` of a reduced program, or of a stratum program
        whose costs are all zero (``cu`` where both rules assign one level),
        else None. The records of reduced and stratum programs are few
        (queries × the levels each query reads) and kept in ``records``; a
        full program's levels span its covariate domain and it is solved once
        per request, so its record is never kept and it never builds a start.
        """
        kept = self.shape.kind != "full"
        level, guideline_level = read_levels(query, level, guideline_level)
        key = (query, level, guideline_level)
        if kept and key in self.records:
            return self.records[key]
        A, inverse = self.merged
        roots, outcomes = _digits(self.root_cards), _digits((2,) * self.shape.treat_card)
        # signed outcomes at the assigned levels, whatever the arm profile; float keeps ufunc.at off its cast path
        obj = sum(
            sign * outcomes[_assigned_levels(self, roots, side, level, guideline_level)]
            for side, sign in QUERIES[query].items()
        )[:, np.newaxis, :].astype(float)
        c_min, c_max = np.full(A.shape[1], np.inf), np.full(A.shape[1], -np.inf)
        np.minimum.at(c_min, inverse, obj)
        np.maximum.at(c_max, inverse, obj)
        for array in (c_min, c_max):
            array.setflags(write=False)
        # a kept record is solved for many b: a reduced program's costs depend on its space and query alone,
        # and a zero-cost stratum pair only asks whether b is feasible. Other stratum costs are solved cold
        warm = self.shape.kind == "reduced" or self.shape.kind == "stratum" and not (c_min.any() or c_max.any())
        start = simplex.warm_start(c_min, c_max, A) if warm else None
        if kept:
            self.records[key] = A, c_min, c_max, start
        return A, c_min, c_max, start

    def row_label(self, row: int) -> str:
        """Human-readable name of an equality constraint row of the space's programs (arm-major order)."""
        if row == self.n_arms * self.n_cells:
            return "total probability mass"
        arm, cell = divmod(row, self.n_cells)
        values = np.unravel_index(cell, self.cell_cards)
        levels = dict(zip(CANON_RECS, self.shape.rec_levels))  # a recommendation's value is its level's position
        inner = ", ".join(f"{n}={levels[n][v] if n in levels else v}" for n, v in zip(self.cell_names, values))
        if self.shape.instrument_card:
            return f"P({inner} | {CANON_INSTRUMENT}={arm})"
        return f"P({inner})"


@lru_cache(maxsize=SPACE_CACHE_SIZE)
def _space(shape: SpaceShape) -> ResponseTypeSpace:
    """The space of ``shape``, wired by name; no per-class arrays are built here.

    Every cell other than the treatment and the outcome is a root. The
    treatment reads the instrument and every root but the rule's
    recommendation; the outcome reads the treatment and every covariate
    root. Cards and root positions are looked up in ``shape.variables``.
    """
    specs = shape.variables
    card = {v.name: v.cardinality for v in specs}
    cells = tuple(n for n in card if n != CANON_INSTRUMENT)
    roots = tuple(n for n in cells if n not in (CANON_TREATMENT, CANON_OUTCOME))
    arm = (CANON_INSTRUMENT,) if shape.instrument_card else ()
    a_parents = arm + tuple(n for n in roots if n != CANON_RULE_REC)
    y_parents = (CANON_TREATMENT,) + tuple(
        v.name for v in specs if v.role in (ROLE_RULE_COVARIATE, ROLE_EXTRA_COVARIATE)
    )

    def cards(names):
        return tuple(card[n] for n in names)

    def positions(names):
        return tuple(roots.index(n) for n in names if n in roots)

    root_cards, a_cards, y_cards = cards(roots), cards(a_parents), cards(y_parents)
    return ResponseTypeSpace(
        shape=shape,
        root_names=roots,
        root_cards=root_cards,
        a_parent_names=a_parents,
        a_parent_cards=a_cards,
        y_parent_names=y_parents,
        y_parent_cards=y_cards,
        cell_names=cells,
        cell_cards=cards(cells),
        a_rest_root_positions=positions(a_parents),
        y_rest_root_positions=positions(y_parents),
        cell_sources=tuple(roots.index(n) if n in roots else n for n in cells),
        class_count=prod(root_cards) * shape.treat_card ** prod(a_cards) * 2 ** prod(y_cards),
    )


def enumerate_response_types(source) -> ResponseTypeSpace:
    """The response-type space of ``source``, a ``SpaceShape`` or a built model carrying one as ``.shape``.

    Nothing is built here, whatever the class count: a space's size is
    guarded where its columns are merged (``ResponseTypeSpace.merged``).
    """
    return _space(source if isinstance(source, SpaceShape) else source.shape)


def _strides(cards) -> list:
    """Place value of each digit of a mixed-radix code over ``cards``, first digit slowest."""
    return [prod(cards[i + 1 :]) for i in range(len(cards))]


def _digits(cards) -> np.ndarray:
    """(len(cards), prod(cards)) digits of every mixed-radix code over ``cards``, first digit slowest."""
    codes = np.arange(prod(cards), dtype=np.int64)
    strides = np.array(_strides(cards), dtype=np.int64)[:, np.newaxis]
    return codes // strides % np.array(cards, dtype=np.int64)[:, np.newaxis]


def _factors(space: ResponseTypeSpace):
    """Factor tables of the class product over ``(r, a, y)``; its C order is the class order.

    ``roots[i, r]`` is root ``i`` in root configuration ``r``, ``treat[c, a]``
    the level treatment function ``a`` gives a-parent configuration ``c``, and
    ``outcome[c, y]`` the outcome function ``y`` gives y-parent configuration ``c``.
    """
    roots = _digits(space.root_cards)
    treat = _digits((space.shape.treat_card,) * prod(space.a_parent_cards))
    outcome = _digits((2,) * prod(space.y_parent_cards))
    return roots, treat, outcome


def _rest_code(space, roots, positions) -> np.ndarray:
    """Per root configuration, the mixed-radix code of the roots at ``positions``, first slowest."""
    out = np.zeros(roots.shape[1], dtype=np.int64)
    for pos in positions:
        out = out * space.root_cards[pos] + roots[pos]
    return out


def class_cells(space: ResponseTypeSpace) -> np.ndarray:
    """(n_arms, n_classes) flat observed-cell index hit by each class per arm.

    Unguarded reference code: its class-length arrays serve checks on small fixed shapes.
    """
    roots, treat, outcome = _factors(space)
    n_a = treat.shape[1]
    r, a = np.divmod(np.arange(roots.shape[1] * n_a), n_a)
    rest_a = _rest_code(space, roots, space.a_rest_root_positions)[r]
    rest_y = _rest_code(space, roots, space.y_rest_root_positions)[r, np.newaxis]
    stride = dict(zip(space.cell_sources, _strides(space.cell_cards)))
    # each cell coordinate broadcast over (row, y); only the outcome's varies along y
    value = dict(enumerate(roots[:, r, np.newaxis]))
    outcome_part = outcome * stride.pop("outcome")
    out = np.empty((space.n_arms, r.size, outcome.shape[1]), dtype=np.int64)
    for z in range(space.n_arms):
        # the instrument, when present, is the slowest a-parent
        cfg = z * prod(space.a_parent_cards[1:]) + rest_a if space.shape.instrument_card else rest_a
        value["treatment"] = treat[cfg, a][:, np.newaxis]
        y_cfg = value["treatment"] * prod(space.y_parent_cards[1:]) + rest_y
        fixed = sum(value[src] * s for src, s in stride.items())
        np.add(fixed, outcome_part[y_cfg, np.arange(outcome.shape[1])], out=out[z])
    out = out.reshape(space.n_arms, -1)
    out.setflags(write=False)
    return out


def _assigned_levels(space, roots, query_side, level, guideline_level):
    """Treatment level the evaluated (or comparator) rule assigns in each root configuration."""
    if space.shape.kind == "reduced":
        # a recommendation root holds the position of its level; an aliased comparator reads the rule's
        rec = 1 if query_side == "g" and space.shape.guideline_mode == "separate" else 0
        return np.array(space.shape.rec_levels[rec])[roots[rec]]
    # a stratum space has one root configuration; a full space's roots are the covariates, first slowest
    return np.ravel(level if query_side == "f" else guideline_level)


def _coefficients(space, query, level, guideline_level) -> np.ndarray:
    """(n_roots, n_outcome_functions) objective coefficients; a class's ignores its treatment function."""
    roots, _, outcome = _factors(space)
    rest_y = _rest_code(space, roots, space.y_rest_root_positions)

    def theta_coef(side):
        lvl = _assigned_levels(space, roots, side, level, guideline_level)
        return outcome[lvl * prod(space.y_parent_cards[1:]) + rest_y]

    return sum(sign * theta_coef(side) for side, sign in QUERIES[query].items())


@dataclass(frozen=True, eq=False)
class LpProblem:
    """A fully assembled program: the query, its levels, and the arm RHS.

    ``solve_bounds`` checks its levels against ``build_lp``'s contract.

    The per-class ``objective`` and ``cells`` state the unmerged program,
    for reference checks that re-solve it; they are built when first read,
    kept only on the program, and never read by ``solve_bounds``. Each is
    a class-length array that no budget guards.
    """

    space: ResponseTypeSpace
    query: str
    rhs: np.ndarray            # (n_arms, n_cells) conditional cell probabilities
    level: object = None       # an int for a stratum program, int64 of shape ``x_cards`` for a full one
    guideline_level: object = None

    @cached_property
    def objective(self) -> np.ndarray:
        """(n_classes,) read-only coefficients, values in {-1, 0, 1}; unguarded reference code."""
        coef = _coefficients(self.space, self.query, self.level, self.guideline_level)
        obj = np.empty(self.space.class_count)
        obj.reshape(coef.shape[0], -1, coef.shape[1])[...] = coef[:, np.newaxis, :]
        obj.setflags(write=False)
        return obj

    @cached_property
    def cells(self) -> np.ndarray:
        """(n_arms, n_classes) flat cell index per arm: ``class_cells`` of the space, unguarded reference code."""
        return class_cells(self.space)

    @property
    def n_arms(self) -> int:
        return self.rhs.shape[0]

    @property
    def n_cells(self) -> int:
        return self.rhs.shape[1]


def _checked_levels(space: ResponseTypeSpace, query: str, level, guideline_level) -> tuple:
    """``(level, guideline_level)`` checked for ``query``: none for a reduced program, else ``build_lp``'s."""
    kind = space.shape.kind
    # only a reduced program can lack a comparator; the others are given its level as guideline_level
    require_guideline(query, kind != "reduced" or space.shape.guideline_mode != "none")
    if kind == "reduced":
        if level is not None or guideline_level is not None:
            raise ValueError("a reduced program observes its recommendations; it takes no level or guideline_level")
        return None, None
    checked, k = [], space.shape.treat_card
    sides = (("level", level, "f", "treatment rule"), ("guideline_level", guideline_level, "g", "guideline"))
    for name, value, side, owner in sides:
        if value is None:
            if side in QUERIES[query]:
                raise ValueError(f"{kind} query {query!r} needs the {owner}'s assigned level")
        else:  # a stratum program is the full program over an empty covariate domain: its level is 0-d
            arr, shape = np.asarray(value), space.shape.x_cards
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            entries = int_tuple(tuple(arr.ravel().tolist()), name)  # the entries, not the dtype, are checked
            bad = [entry for entry in entries if not 0 <= entry < k]
            if bad:
                raise ValueError(f"{name}={bad[0]} outside range(0, {k})")
            value = np.array(entries, dtype=np.int64).reshape(shape) if shape else entries[0]
        checked.append(value)
    return tuple(checked)


def arm_rows(space: ResponseTypeSpace, tables: np.ndarray) -> tuple:
    """``(b, empty_arms)``: row ``i`` of ``b`` is ``tables[i]``'s arm rows, then the total mass 1.

    ``tables`` is ``(n, n_arms, n_cells)`` in ``space``'s layout; ``empty_arms`` flags each arm with no
    mass. With an instrument, the other tables are divided by their arms' masses.
    """
    n = len(tables)
    b = np.ones((n, space.n_arms * space.n_cells + 1))
    rows = b[:, :-1].reshape(n, space.n_arms, space.n_cells)  # a view: b is filled through it
    rows[...] = tables
    arm_mass = rows.sum(axis=2)
    empty_arms = arm_mass <= 0.0
    if space.shape.instrument_card:
        divide = ~empty_arms.any(axis=1)
        np.divide(rows, arm_mass[:, :, np.newaxis], out=rows, where=divide[:, np.newaxis, np.newaxis])
    return b, empty_arms


def _arm_rhs(space: ResponseTypeSpace, probs: np.ndarray) -> np.ndarray:
    """``LpProblem.rhs`` of one table, its axes in the layout of ``space``; an empty instrument arm is refused."""
    b, empty_arms = arm_rows(space, probs.reshape(1, space.n_arms, space.n_cells))
    if empty_arms.any():
        raise zero_arm_error(int(np.argmax(empty_arms[0])))
    return b[0, :-1].reshape(space.n_arms, space.n_cells)


def build_lp(
    space: ResponseTypeSpace, observed: JointTable, query: str, *, level=None, guideline_level=None
) -> LpProblem:
    """Assemble the program for ``query`` against an observed table.

    ``level`` and ``guideline_level`` are the treatment levels the rule and
    the comparator assign to each covariate cell: any array-like of shape
    ``x_cards``, ``()`` for a stratum program, whose entries are ints (not
    bools) in ``range(0, treat_card)``. A stratum's is kept as an int, a
    full one's as int64 (``TreatmentRule.levels``). A reduced program
    observes its recommendations instead and refuses both. The
    table must carry the space's canonical variable names (instrument
    included when the shape has one); axis order is normalized here. Each
    instrument arm must have positive probability.
    """
    level, guideline_level = _checked_levels(space, query, level, guideline_level)
    expected = ((CANON_INSTRUMENT,) if space.shape.instrument_card else ()) + space.cell_names
    rhs = _arm_rhs(space, axes_in(observed, expected))
    return LpProblem(space=space, query=query, rhs=rhs, level=level, guideline_level=guideline_level)


def zero_arm_error(arm: int) -> DataError:
    """The error of a table whose instrument arm ``arm`` has no mass to condition on."""
    return DataError(f"instrument arm {CANON_INSTRUMENT}={arm} has zero probability; cannot condition on it")


def infeasible_error(space: ResponseTypeSpace, row: int, total: float) -> InfeasibleModelError:
    """The error of a table no mixture of ``space``'s classes gives: phase 1's most violated ``row`` and ``total``."""
    label = space.row_label(row)
    return InfeasibleModelError(
        f"observed distribution is incompatible with the assumed structure; "
        f"most violated constraint: {label} "
        f"(minimal total violation {total:.3g})",
        worst_constraint=label,
        violation=total,
    )


def check_interval(query: str, lower: float, upper: float) -> None:
    """Refuse an inverted interval, or one outside the admissible range of ``query``, beyond ``BOUND_TOL``."""
    if lower > upper + BOUND_TOL:
        raise SolverError(f"bounds inverted: lower={lower!r} > upper={upper!r}")
    lo_lim, hi_lim = (-1.0 if -1 in QUERIES[query].values() else 0.0), 1.0
    if lower < lo_lim - BOUND_TOL or upper > hi_lim + BOUND_TOL:
        raise SolverError(
            f"bounds [{lower!r}, {upper!r}] escape the admissible "
            f"range [{lo_lim}, {hi_lim}] for query {query!r}"
        )


def contains(outer: tuple, inner: tuple) -> bool:
    """Whether interval ``inner`` lies inside ``outer``, each a ``(lower, upper)`` pair, to ``BOUND_TOL``."""
    return inner[0] >= outer[0] - BOUND_TOL and inner[1] <= outer[1] + BOUND_TOL


@dataclass(frozen=True, eq=False)
class BoundsResult:
    """A lower/upper pair for one query, tagged with how it was computed."""

    query: str
    lower: float
    upper: float
    strategy: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        check_interval(self.query, self.lower, self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "lower": self.lower,
            "upper": self.upper,
            "width": self.width,
            "strategy": self.strategy,
            "diagnostics": self.diagnostics,
        }


class StrataBounds(NamedTuple):
    """What ``solve_block`` found for a block of right-hand sides, one program per row."""

    lower: np.ndarray                  # per row, up to the first infeasible one
    upper: np.ndarray
    pivots: int                        # both sides of every row solved
    solve: str                         # "warm": every row re-solved warm; for no rows, the record has a start
    infeasible: Optional[tuple] = None  # (row index, violation_row, violation_total) of the first infeasible row


def solve_block(shape: SpaceShape, query: str, level, guideline_level, b: np.ndarray) -> StrataBounds:
    """Bounds of every program that shares one key: a shape of any kind, a query and the levels it reads.

    Row ``i`` of ``b``, shaped ``(n_rows, n_arms * n_cells + 1)``, is one
    right-hand side as ``arm_rows`` builds it. The key (as ``build_lp``
    checks it) and the block's width are checked and the record read once.
    Each row is re-solved from the record's warm start when it has one, else
    solved cold. The result stops at the first infeasible row, naming it.
    """
    space = enumerate_response_types(shape)
    level, guideline_level = _checked_levels(space, query, level, guideline_level)
    width = space.n_arms * space.n_cells + 1
    if np.ndim(b) != 2 or np.shape(b)[1] != width:
        raise ValueError(f"b has shape {np.shape(b)}, expected (n_strata, {width})")
    A, c_min, c_max, start = space.program(query, level, guideline_level)
    lower, upper = np.empty(len(b)), np.empty(len(b))
    pivots, warm = 0, start is not None
    for i, row in enumerate(b):
        lo, hi = simplex.minimize_pair(c_min, c_max, A, row, start=start)
        if lo.status == "infeasible":
            infeasible = (i, lo.violation_row, lo.violation_total)
            return StrataBounds(lower[:i], upper[:i], pivots + lo.iterations, "cold", infeasible)
        lower[i], upper[i] = lo.value, hi.value
        pivots += lo.iterations + hi.iterations
        warm = warm and lo.solve == "warm"
    return StrataBounds(lower, upper, pivots, "warm" if warm else "cold")


def solve_bounds(lp: LpProblem) -> BoundsResult:
    """Sharp lower and upper bounds for the program, or an infeasibility error: ``solve_block`` on its one row."""
    b = np.concatenate([lp.rhs.ravel(), [1.0]])
    solved = solve_block(lp.space.shape, lp.query, lp.level, lp.guideline_level, b[np.newaxis])
    if solved.infeasible is not None:
        raise infeasible_error(lp.space, *solved.infeasible[1:])
    A = lp.space.merged[0]
    return BoundsResult(
        query=lp.query,
        lower=float(solved.lower[0]),
        upper=float(solved.upper[0]),
        strategy=_STRATEGY_BY_KIND[lp.space.shape.kind],
        diagnostics={
            "class_count": lp.space.class_count,
            "merged_columns": int(A.shape[1]),
            "constraint_rows": int(A.shape[0]),
            "simplex_iterations": int(solved.pivots),
            "solve": solved.solve,
        },
    )


def direct_sharp_bounds(request) -> BoundsResult:
    """Bounds of a checked ``StrategyRequest`` from the unreduced space over all of its model's variables.

    Exact, and intended as a cross-check of the strategies. The class count
    grows exponentially with the covariate domain, but the solve merges the
    space's response profiles, a few per covariate cell, and never walks the
    classes. Its program grows with the covariate domain: one over
    ``MAX_TABLEAU_BYTES`` raises ``ProgramTooLargeError`` before its arrays
    are built. Extra covariates are not supported.
    """
    model, query = request.model, request.query
    if model.extra_covariates:
        raise ValueError("direct oracle does not support extra covariates")
    shape = SpaceShape(
        "full", model.treatment.cardinality, model.instrument_card, x_cards=model.rule_covariate_cards
    )
    space = enumerate_response_types(shape)
    arm = (model.instrument,) if model.instrument is not None else ()
    source = arm + model.rule_covariates + (model.treatment, model.outcome)
    rhs = _arm_rhs(space, axes_in(request.observed, [v.name for v in source]))
    guideline = model.guideline.levels(shape.x_cards) if model.guideline is not None else None
    return solve_bounds(LpProblem(space, query, rhs, model.rule.levels(shape.x_cards), guideline))
