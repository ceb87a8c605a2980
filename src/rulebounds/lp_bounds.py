"""Response-type linear programs yielding sharp bounds on rule values.

Each problem shape induces a finite set of latent response classes: a
joint choice of root-node values, a treatment response function over the
treatment's observed parents, and an outcome response function over the
outcome's observed parents. Any observed distribution compatible with the
shape is a mixture over classes, each class pinning down one observed cell
per instrument arm. Sharp bounds on a counterfactual query are then the
extrema of a linear objective over the mixture polytope.

Classes are represented by integer codes and expanded with vectorized
arithmetic. Classes with identical observed behavior in every arm are
merged into one column, keeping the extreme objective coefficient per
group; this is exact and keeps the tableaus small. Which classes merge
depends only on the shape, so each space groups its classes once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from math import prod
from typing import Optional

import numpy as np

from . import simplex
from .errors import DataError, EnumerationCapError, InfeasibleModelError, SolverError
from .model import (
    CANON_INSTRUMENT,
    CANON_OUTCOME,
    CANON_RULE_REC,
    CANON_TREATMENT,
    ROLE_EXTRA_COVARIATE,
    ROLE_RULE_COVARIATE,
    CausalModel,
    SpaceShape,
    TreatmentRule,
    _require_valid,
)
from .tables import JointTable, reorder, with_variables

DEFAULT_CAP = 10_000_000
# response-type spaces kept per process; an evicted space frees its cells, grouping and objectives
SPACE_CACHE_SIZE = 32
FEAS_TOL = 1e-9
BOUND_TOL = 1e-9

QUERIES = ("theta_f", "theta_g", "cu")

_GUIDELINE_QUERIES = ("theta_g", "cu")

_STRATEGY_BY_KIND = {"reduced": "reduction", "stratum": "conditioning", "full": "direct_oracle"}


def require_guideline(query: str, declared: bool) -> None:
    """Refuse a query that reads the comparator when the model ``declared`` none."""
    if query in _GUIDELINE_QUERIES and not declared:
        raise ValueError(f"query {query!r} needs a guideline, but the model declares none")


def check_request(model: CausalModel, observed: JointTable, query: str) -> None:
    """Refuse an invalid model, a query it cannot answer, or a table over other variables."""
    _require_valid(model)
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
    or a root position). ``cells``, the class ``grouping`` and the memo of
    non-``full`` objectives depend only on the shape, so they live (and are
    freed) with the space.
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
    objectives: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def cells(self) -> np.ndarray:
        """Read-only ``class_cells`` of this space, built on first use."""
        return class_cells(self)

    @cached_property
    def grouping(self) -> tuple:
        """Read-only ``(inverse, A)``: each class's merged column and the 0/1 matrix.

        Classes hitting the same cell in every arm share a column. Each
        class's per-arm cells are encoded as one integer, first arm slowest,
        so columns come in lexicographic order of their cell tuples. ``A``
        has one row per (arm, cell), arm-major, and a last total-mass row.
        """
        dims = (self.n_cells,) * self.n_arms
        codes, inverse = np.unique(np.ravel_multi_index(tuple(self.cells), dims), return_inverse=True)
        A = np.zeros((self.n_arms * self.n_cells + 1, codes.size))
        cols = np.arange(codes.size)
        for arm, cell in enumerate(np.unravel_index(codes, dims)):
            A[arm * self.n_cells + cell, cols] = 1.0
        A[-1] = 1.0
        inverse.setflags(write=False)
        A.setflags(write=False)
        return inverse, A

    @property
    def n_arms(self) -> int:
        return self.shape.instrument_card if self.shape.instrument_card else 1

    @property
    def n_cells(self) -> int:
        return prod(self.cell_cards)


@lru_cache(maxsize=SPACE_CACHE_SIZE)
def _space(shape: SpaceShape) -> ResponseTypeSpace:
    """The space of ``shape``, wired by name; no arrays are built until ``cells`` is read.

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


def enumerate_response_types(source, cap: int = DEFAULT_CAP) -> ResponseTypeSpace:
    """Fetch the response-type space, refusing if it exceeds ``cap`` classes.

    ``source`` is a ``SpaceShape`` or a built model carrying one as ``.shape``.
    """
    shape = source if isinstance(source, SpaceShape) else source.shape
    space = _space(shape)
    if space.class_count > cap:
        advice = (
            "use the reduction or conditioning strategy instead"
            if shape.kind == "full"
            else "raise it with --cap or the config's 'enumeration_cap'"
        )
        raise EnumerationCapError(
            f"response-type space has {space.class_count} classes, exceeding the cap of {cap}; {advice}",
            count=space.class_count,
            cap=cap,
        )
    return space


def _decode(space: ResponseTypeSpace):
    """Integer code components (r_code, a_code, y_code) for all classes."""
    k = space.shape.treat_card
    n_a = prod(space.a_parent_cards)
    n_y = prod(space.y_parent_cards)
    a_span = k**n_a
    y_span = 2**n_y
    codes = np.arange(space.class_count, dtype=np.int64)
    y_code = codes % y_span
    rest = codes // y_span
    a_code = rest % a_span
    r_code = rest // a_span
    return r_code, a_code, y_code, n_a, n_y


def _root_values(space: ResponseTypeSpace, r_code: np.ndarray, position: int) -> np.ndarray:
    stride = prod(space.root_cards[position + 1 :])
    return (r_code // stride) % space.root_cards[position]


def _rest_code(space, r_code, positions) -> np.ndarray:
    """Mixed-radix code of the root values at ``positions``, first position slowest."""
    out = np.zeros_like(r_code)
    for pos in positions:
        out = out * space.root_cards[pos] + _root_values(space, r_code, pos)
    return out


def _treat_values(space, a_code, z, rest_a, n_a) -> np.ndarray:
    """Treatment level chosen by each class at instrument arm ``z``."""
    k = space.shape.treat_card
    # the instrument, when present, is the slowest a-parent
    cfg = z * prod(space.a_parent_cards[1:]) + rest_a if space.shape.instrument_card else rest_a
    expo = n_a - 1 - cfg
    return (a_code // np.power(np.int64(k), expo)) % k


def _outcome_values(space, y_code, treat, rest_y, n_y) -> np.ndarray:
    """Outcome produced by each class when treatment takes level ``treat``."""
    cfg = treat * prod(space.y_parent_cards[1:]) + rest_y
    return (y_code >> (n_y - 1 - cfg)) & 1


def class_cells(space: ResponseTypeSpace) -> np.ndarray:
    """(n_arms, n_classes) flat observed-cell index hit by each class per arm."""
    r_code, a_code, y_code, n_a, n_y = _decode(space)
    rest_a = _rest_code(space, r_code, space.a_rest_root_positions)
    rest_y = _rest_code(space, r_code, space.y_rest_root_positions)
    out = np.empty((space.n_arms, space.class_count), dtype=np.int64)
    for z in range(space.n_arms):
        treat = _treat_values(space, a_code, z, rest_a, n_a)
        outcome = _outcome_values(space, y_code, treat, rest_y, n_y)
        cell = np.zeros_like(r_code)
        for src, card in zip(space.cell_sources, space.cell_cards):
            if src == "treatment":
                comp = treat
            elif src == "outcome":
                comp = outcome
            else:
                comp = _root_values(space, r_code, src)
            cell = cell * card + comp
        out[z] = cell
    out.setflags(write=False)
    return out


def _assigned_levels(space, r_code, query_side, level, guideline_level, rule, guideline):
    """Per-class treatment level assigned by the evaluated (or comparator) rule."""
    kind = space.shape.kind
    if kind == "stratum":
        lvl = level if query_side == "f" else guideline_level
        return np.full_like(r_code, lvl)
    if kind == "reduced":
        if query_side == "f":
            return _root_values(space, r_code, 0)
        if space.shape.guideline_mode == "separate":
            return _root_values(space, r_code, 1)
        return _root_values(space, r_code, 0)  # comparator aliases the rule
    # full: evaluate the rule on each root (covariate) configuration
    chosen = rule if query_side == "f" else guideline
    n_roots = prod(space.root_cards)
    table = np.empty(n_roots, dtype=np.int64)
    for code, x in enumerate(product(*(range(c) for c in space.root_cards))):
        table[code] = chosen.level_for(x)
    return table[r_code]


def _objective(space, query, level, guideline_level, rule, guideline) -> np.ndarray:
    # full objectives depend on the rule tables, so only the other kinds are memoized
    memo = space.objectives if space.shape.kind != "full" else {}
    key = (query, level, guideline_level)
    if key in memo:
        return memo[key]
    r_code, a_code, y_code, n_a, n_y = _decode(space)
    rest_y = _rest_code(space, r_code, space.y_rest_root_positions)

    def theta_coef(side):
        lvl = _assigned_levels(space, r_code, side, level, guideline_level, rule, guideline)
        return _outcome_values(space, y_code, lvl, rest_y, n_y).astype(float)

    if query == "theta_f":
        obj = theta_coef("f")
    elif query == "theta_g":
        obj = theta_coef("g")
    else:
        obj = theta_coef("f") - theta_coef("g")
    obj.setflags(write=False)
    memo[key] = obj
    return obj


@dataclass(frozen=True, eq=False)
class LpProblem:
    """A fully assembled program: per-class objective, cell incidence, and arm RHS."""

    space: ResponseTypeSpace
    query: str
    objective: np.ndarray      # (n_classes,), values in {-1, 0, 1}
    cells: np.ndarray          # (n_arms, n_classes) flat cell index per arm
    rhs: np.ndarray            # (n_arms, n_cells) conditional cell probabilities

    @property
    def n_arms(self) -> int:
        return self.rhs.shape[0]

    @property
    def n_cells(self) -> int:
        return self.rhs.shape[1]

    def row_label(self, row: int) -> str:
        """Human-readable name of an equality constraint row (arm-major order)."""
        if row == self.n_arms * self.n_cells:
            return "total probability mass"
        arm, cell = divmod(row, self.n_cells)
        values = np.unravel_index(cell, self.space.cell_cards)
        inner = ", ".join(f"{n}={v}" for n, v in zip(self.space.cell_names, values))
        if self.space.shape.instrument_card:
            return f"P({inner} | {CANON_INSTRUMENT}={arm})"
        return f"P({inner})"


def build_lp(
    space: ResponseTypeSpace,
    observed: JointTable,
    query: str,
    *,
    level: Optional[int] = None,
    guideline_level: Optional[int] = None,
    rule: Optional[TreatmentRule] = None,
    guideline: Optional[TreatmentRule] = None,
) -> LpProblem:
    """Assemble the program for ``query`` against an observed table.

    The table must carry the space's canonical variable names (instrument
    included when the shape has one); axis order is normalized here. Each
    instrument arm must have positive probability.
    """
    if query not in QUERIES:
        raise ValueError(f"unknown query {query!r}; expected one of {QUERIES}")
    kind = space.shape.kind
    if kind == "reduced":
        require_guideline(query, space.shape.guideline_mode != "none")
    elif kind == "stratum":
        if level is None and query in ("theta_f", "cu"):
            raise ValueError(f"stratum query {query!r} needs the rule's assigned level")
        if guideline_level is None and query in _GUIDELINE_QUERIES:
            raise ValueError(f"stratum query {query!r} needs the guideline's assigned level")
        for name, lvl in (("level", level), ("guideline_level", guideline_level)):
            if lvl is not None and not 0 <= lvl < space.shape.treat_card:
                raise ValueError(f"{name}={lvl} outside range(0, {space.shape.treat_card})")
    elif kind == "full":
        if rule is None:
            raise ValueError("full-space queries need the treatment rule")
        require_guideline(query, guideline is not None)

    expected = ((CANON_INSTRUMENT,) if space.shape.instrument_card else ()) + space.cell_names
    rhs = reorder(observed, expected).probs.reshape(space.n_arms, space.n_cells)
    if space.shape.instrument_card:
        arm_mass = rhs.sum(axis=1)
        empty = np.flatnonzero(arm_mass <= 0.0)
        if empty.size:
            raise DataError(
                f"instrument arm {CANON_INSTRUMENT}={empty[0]} has zero probability; "
                "cannot condition on it"
            )
        rhs = rhs / arm_mass[:, np.newaxis]

    objective = _objective(space, query, level, guideline_level, rule, guideline)
    return LpProblem(
        space=space,
        query=query,
        objective=objective,
        cells=space.cells,
        rhs=rhs,
    )


@dataclass(frozen=True, eq=False)
class BoundsResult:
    """A lower/upper pair for one query, tagged with how it was computed."""

    query: str
    lower: float
    upper: float
    strategy: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lower > self.upper + BOUND_TOL:
            raise SolverError(
                f"bounds inverted: lower={self.lower!r} > upper={self.upper!r}"
            )
        lo_lim, hi_lim = (-1.0, 1.0) if self.query == "cu" else (0.0, 1.0)
        if self.lower < lo_lim - BOUND_TOL or self.upper > hi_lim + BOUND_TOL:
            raise SolverError(
                f"bounds [{self.lower!r}, {self.upper!r}] escape the admissible "
                f"range [{lo_lim}, {hi_lim}] for query {self.query!r}"
            )

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


def solve_bounds(lp: LpProblem) -> BoundsResult:
    """Sharp lower and upper bounds for the program, or an infeasibility error."""
    inverse, A = lp.space.grouping
    # keep the extreme coefficient of each merged column
    c_min = np.full(A.shape[1], np.inf)
    c_max = np.full(A.shape[1], -np.inf)
    np.minimum.at(c_min, inverse, lp.objective)
    np.maximum.at(c_max, inverse, lp.objective)
    b = np.concatenate([lp.rhs.ravel(), [1.0]])
    res_lo, res_hi = simplex.minimize_pair(c_min, c_max, A, b, feas_tol=FEAS_TOL)
    if res_lo.status == "infeasible":
        label = lp.row_label(res_lo.violation_row)
        raise InfeasibleModelError(
            f"observed distribution is incompatible with the assumed structure; "
            f"most violated constraint: {label} "
            f"(minimal total violation {res_lo.violation_total:.3g})",
            worst_constraint=label,
            violation=res_lo.violation_total,
        )
    return BoundsResult(
        query=lp.query,
        lower=res_lo.value,
        upper=res_hi.value,
        strategy=_STRATEGY_BY_KIND[lp.space.shape.kind],
        diagnostics={
            "class_count": lp.space.class_count,
            "merged_columns": int(A.shape[1]),
            "constraint_rows": int(A.shape[0]),
            "simplex_iterations": int(res_lo.iterations + res_hi.iterations),
        },
    )


def direct_sharp_bounds(
    model: CausalModel,
    observed: JointTable,
    query: str = "theta_f",
    cap: int = DEFAULT_CAP,
) -> BoundsResult:
    """Bounds from the unreduced space over (covariates, treatment, outcome[, instrument]).

    Exact but exponential in the covariate domain, so guarded by ``cap``;
    intended as a cross-check for small models. Extra covariates are not
    supported here.
    """
    check_request(model, observed, query)
    if model.extra_covariates:
        raise ValueError("direct oracle does not support extra covariates")
    shape = SpaceShape(
        "full", model.treatment.cardinality, model.instrument_card, x_cards=model.rule_covariate_cards
    )
    space = enumerate_response_types(shape, cap=cap)

    arm = (model.instrument,) if model.instrument is not None else ()
    source = arm + model.rule_covariates + (model.treatment, model.outcome)
    table = with_variables(reorder(observed, [v.name for v in source]), shape.variables)
    lp = build_lp(space, table, query, rule=model.rule, guideline=model.guideline)
    return solve_bounds(lp)
