"""Response-type linear programs yielding sharp bounds on rule values.

Each problem shape induces a finite set of latent response classes: a
joint choice of root-node values, a treatment response function over the
treatment's observed parents, and an outcome response function over the
outcome's observed parents. Any observed distribution compatible with the
shape is a mixture over classes, each class pinning down one observed cell
per instrument arm. Sharp bounds on a counterfactual query are then the
extrema of a linear objective over the mixture polytope.

The classes are the product of three small factor tables (root
configurations, treatment functions, outcome functions), and per-class
arrays are built by broadcasting over them. Classes with identical
observed behavior in every arm are merged into one column, keeping the
extreme objective coefficient per group; this is exact and keeps the
tableaus small. Which classes merge depends only on the shape, so each
space groups its classes once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import prod

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
    _require_valid,
)
from .tables import JointTable, reorder, with_variables

DEFAULT_CAP = 10_000_000
# response-type spaces kept per process; an evicted space frees its cells, grouping and objectives
SPACE_CACHE_SIZE = 32
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


def _strides(cards) -> list:
    """Place value of each digit of a mixed-radix code over ``cards``, first digit slowest."""
    return [prod(cards[i + 1 :]) for i in range(len(cards))]


def _digits(cards) -> np.ndarray:
    """(len(cards), prod(cards)) table of the digits of every mixed-radix code over ``cards``."""
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
    """(n_arms, n_classes) flat observed-cell index hit by each class per arm."""
    roots, treat, outcome = _factors(space)
    rest_a = _rest_code(space, roots, space.a_rest_root_positions)
    rest_y = _rest_code(space, roots, space.y_rest_root_positions)[:, np.newaxis, np.newaxis]
    stride = dict(zip(space.cell_sources, _strides(space.cell_cards)))
    # each cell coordinate broadcast over (r, a, y); only the outcome's varies along y
    value = dict(enumerate(roots[:, :, np.newaxis, np.newaxis]))
    outcome_part = outcome * stride.pop("outcome")
    out = np.empty((space.n_arms, roots.shape[1], treat.shape[1], outcome.shape[1]), dtype=np.int64)
    for z in range(space.n_arms):
        # the instrument, when present, is the slowest a-parent
        cfg = z * prod(space.a_parent_cards[1:]) + rest_a if space.shape.instrument_card else rest_a
        value["treatment"] = treat[cfg][:, :, np.newaxis]
        y_cfg = value["treatment"] * prod(space.y_parent_cards[1:]) + rest_y
        fixed = sum(value[src] * s for src, s in stride.items())
        np.add(fixed, outcome_part[y_cfg, np.arange(outcome.shape[1])], out=out[z])
    out = out.reshape(space.n_arms, space.class_count)
    out.setflags(write=False)
    return out


def _assigned_levels(space, roots, query_side, level, guideline_level):
    """Treatment level the evaluated (or comparator) rule assigns in each root configuration."""
    if space.shape.kind == "reduced":
        # an aliased comparator reads the rule's recommendation
        return roots[1 if query_side == "g" and space.shape.guideline_mode == "separate" else 0]
    # a stratum space has one root configuration; a full space's roots are the covariates, first slowest
    return np.ravel(level if query_side == "f" else guideline_level)


def _objective(space, query, level, guideline_level) -> np.ndarray:
    # full levels are arrays over the covariate domain, so only the other kinds' int keys are memoized
    key = (query, level, guideline_level) if space.shape.kind != "full" else None
    if key in space.objectives:
        return space.objectives[key]
    roots, _, outcome = _factors(space)
    rest_y = _rest_code(space, roots, space.y_rest_root_positions)

    def theta_coef(side):
        lvl = _assigned_levels(space, roots, side, level, guideline_level)
        return outcome[lvl * prod(space.y_parent_cards[1:]) + rest_y]

    if query == "theta_f":
        coef = theta_coef("f")
    elif query == "theta_g":
        coef = theta_coef("g")
    else:
        coef = theta_coef("f") - theta_coef("g")
    # (n_roots, n_outcome_functions): a coefficient does not depend on the treatment function
    obj = np.empty(space.class_count)
    obj.reshape(coef.shape[0], -1, coef.shape[1])[...] = coef[:, np.newaxis, :]
    obj.setflags(write=False)
    if key is not None:
        space.objectives[key] = obj
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


def _checked_level(space, query, name, value):
    """``value`` checked as a stratum program's int or a full program's int64 array."""
    owner = "treatment rule" if name == "level" else "guideline"
    if value is None:
        if query in (("theta_f", "cu") if name == "level" else _GUIDELINE_QUERIES):
            raise ValueError(f"{space.shape.kind} query {query!r} needs the {owner}'s assigned level")
        return None
    arr, k = np.asarray(value), space.shape.treat_card
    shape = space.shape.x_cards if space.shape.kind == "full" else ()
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{name} has the non-integer value {arr.ravel()[0].item()!r}")
    bad = arr[(arr < 0) | (arr >= k)]
    if bad.size:
        raise ValueError(f"{name}={bad[0]} outside range(0, {k})")
    return arr.astype(np.int64) if space.shape.kind == "full" else int(arr)


def build_lp(
    space: ResponseTypeSpace, observed: JointTable, query: str, *, level=None, guideline_level=None
) -> LpProblem:
    """Assemble the program for ``query`` against an observed table.

    ``level`` and ``guideline_level`` are the treatment levels the rule and
    the comparator assign: an int for a stratum program, an int array of
    shape ``x_cards`` for a full one (``TreatmentRule.levels``). A reduced
    program observes its recommendations instead. The table must carry the
    space's canonical variable names (instrument included when the shape
    has one); axis order is normalized here. Each instrument arm must have
    positive probability.
    """
    if query not in QUERIES:
        raise ValueError(f"unknown query {query!r}; expected one of {QUERIES}")
    if space.shape.kind == "reduced":
        require_guideline(query, space.shape.guideline_mode != "none")
    else:
        level = _checked_level(space, query, "level", level)
        guideline_level = _checked_level(space, query, "guideline_level", guideline_level)

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

    objective = _objective(space, query, level, guideline_level)
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
    res_lo, res_hi = simplex.minimize_pair(c_min, c_max, A, b)
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
    guideline = model.guideline.levels(shape.x_cards) if model.guideline is not None else None
    lp = build_lp(space, table, query, level=model.rule.levels(shape.x_cards), guideline_level=guideline)
    return solve_bounds(lp)
