"""Response-type linear programs yielding sharp bounds on rule values.

Each problem shape induces a finite set of latent response classes: a
joint choice of root-node values, a treatment response function over the
treatment's observed parents, and an outcome response function over the
outcome's observed parents. Any observed distribution compatible with the
shape is a mixture over classes, each class pinning down one observed cell
per instrument arm. Sharp bounds on a counterfactual query are then the
extrema of a linear objective over the mixture polytope.

Classes are represented by integer codes and expanded with vectorized
arithmetic; the explicit function tables are available through
``ResponseTypeSpace.iter_classes`` for inspection. Before solving, classes
with identical observed behavior in every arm are merged, keeping the
extreme objective coefficient per group; this is exact and keeps the
tableaus small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from math import prod
from typing import NamedTuple, Optional

import numpy as np

from . import simplex
from .errors import DataError, EnumerationCapError, InfeasibleModelError, SolverError
from .model import (
    CANON_GUIDELINE_REC,
    CANON_INSTRUMENT,
    CANON_OUTCOME,
    CANON_RULE_REC,
    CANON_TREATMENT,
    CausalModel,
    SpaceShape,
    TreatmentRule,
    _require_valid,
)
from .tables import JointTable, reorder, with_variables

DEFAULT_CAP = 10_000_000
# response-type spaces kept per process; an evicted space frees its cells and objectives
SPACE_CACHE_SIZE = 32
FEAS_TOL = 1e-9
BOUND_TOL = 1e-9

QUERIES = ("theta_f", "theta_g", "cu")

_STRATEGY_BY_KIND = {"reduced": "reduction", "stratum": "conditioning", "full": "direct_oracle"}


class ResponseClass(NamedTuple):
    """Explicit view of one latent class, mainly for tests and inspection."""

    roots: tuple          # values of the root nodes, in root_names order
    a_map: tuple          # treatment level per a-parent configuration (lexicographic)
    y_map: tuple          # outcome value per y-parent configuration (lexicographic)


@dataclass(frozen=True, eq=False)
class ResponseTypeSpace:
    """The class structure for one problem shape.

    Parent configurations are indexed lexicographically with the first
    parent slowest. ``*_rest_root_positions`` say which root supplies each
    non-instrument / non-treatment parent value, and ``cell_sources`` say
    where each observed-cell coordinate comes from ("treatment", "outcome",
    or a root position). ``cells`` and the memo of non-``full`` objectives
    depend only on the shape, so they live (and are freed) with the space.
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

    @property
    def n_arms(self) -> int:
        return self.shape.instrument_card if self.shape.instrument_card else 1

    @property
    def n_cells(self) -> int:
        return prod(self.cell_cards)

    def iter_classes(self):
        """Yield explicit ResponseClass tuples in class-code order."""
        k = self.shape.treat_card
        n_a = prod(self.a_parent_cards) if self.a_parent_cards else 1
        n_y = prod(self.y_parent_cards) if self.y_parent_cards else 1
        root_ranges = [range(c) for c in self.root_cards]
        for roots in product(*root_ranges):
            for a_map in product(range(k), repeat=n_a):
                for y_map in product(range(2), repeat=n_y):
                    yield ResponseClass(roots, a_map, y_map)


def count_classes(shape: SpaceShape) -> int:
    """Exact class count from the shape alone; safe to call before enumerating."""
    space_cards = _structure(shape)
    root_cards, a_parent_cards, y_parent_cards = (
        space_cards["root_cards"],
        space_cards["a_parent_cards"],
        space_cards["y_parent_cards"],
    )
    n_a = prod(a_parent_cards) if a_parent_cards else 1
    n_y = prod(y_parent_cards) if y_parent_cards else 1
    roots = prod(root_cards) if root_cards else 1
    return roots * shape.treat_card ** n_a * 2 ** n_y


def _structure(shape: SpaceShape) -> dict:
    """Names, cards, and wiring for each kind; shared by counting and building."""
    k = shape.treat_card
    has_z = shape.instrument_card > 0
    if shape.kind == "reduced":
        sep = shape.guideline_mode == "separate"
        extra_names = tuple(f"extra{i}" for i in range(len(shape.extra_cards)))
        root_names = (CANON_RULE_REC,) + ((CANON_GUIDELINE_REC,) if sep else ()) + extra_names
        root_cards = (k,) + ((k,) if sep else ()) + tuple(shape.extra_cards)
        extra_root_base = 2 if sep else 1
        extra_positions = tuple(extra_root_base + i for i in range(len(shape.extra_cards)))
        a_parent_names = (
            ((CANON_INSTRUMENT,) if has_z else ())
            + ((CANON_GUIDELINE_REC,) if sep else ())
            + extra_names
        )
        a_parent_cards = (
            ((shape.instrument_card,) if has_z else ())
            + ((k,) if sep else ())
            + tuple(shape.extra_cards)
        )
        a_rest = ((1,) if sep else ()) + extra_positions
        y_parent_names = (CANON_TREATMENT,) + extra_names
        y_parent_cards = (k,) + tuple(shape.extra_cards)
        y_rest = extra_positions
        cell_names = (
            (CANON_TREATMENT, CANON_OUTCOME, CANON_RULE_REC)
            + ((CANON_GUIDELINE_REC,) if sep else ())
            + extra_names
        )
        cell_cards = (k, 2, k) + ((k,) if sep else ()) + tuple(shape.extra_cards)
        cell_sources = ("treatment", "outcome", 0) + ((1,) if sep else ()) + extra_positions
    elif shape.kind == "stratum":
        root_names = root_cards = ()
        a_parent_names = (CANON_INSTRUMENT,) if has_z else ()
        a_parent_cards = (shape.instrument_card,) if has_z else ()
        a_rest = ()
        y_parent_names = (CANON_TREATMENT,)
        y_parent_cards = (k,)
        y_rest = ()
        cell_names = (CANON_TREATMENT, CANON_OUTCOME)
        cell_cards = (k, 2)
        cell_sources = ("treatment", "outcome")
    elif shape.kind == "full":
        x_names = tuple(f"x{i}" for i in range(len(shape.x_cards)))
        x_positions = tuple(range(len(shape.x_cards)))
        root_names = x_names
        root_cards = tuple(shape.x_cards)
        a_parent_names = ((CANON_INSTRUMENT,) if has_z else ()) + x_names
        a_parent_cards = ((shape.instrument_card,) if has_z else ()) + tuple(shape.x_cards)
        a_rest = x_positions
        y_parent_names = (CANON_TREATMENT,) + x_names
        y_parent_cards = (k,) + tuple(shape.x_cards)
        y_rest = x_positions
        cell_names = x_names + (CANON_TREATMENT, CANON_OUTCOME)
        cell_cards = tuple(shape.x_cards) + (k, 2)
        cell_sources = x_positions + ("treatment", "outcome")
    else:
        raise ValueError(f"unknown shape kind {shape.kind!r}")
    return {
        "root_names": root_names,
        "root_cards": root_cards,
        "a_parent_names": a_parent_names,
        "a_parent_cards": a_parent_cards,
        "y_parent_names": y_parent_names,
        "y_parent_cards": y_parent_cards,
        "cell_names": cell_names,
        "cell_cards": cell_cards,
        "a_rest_root_positions": a_rest,
        "y_rest_root_positions": y_rest,
        "cell_sources": cell_sources,
    }


@lru_cache(maxsize=SPACE_CACHE_SIZE)
def _space(shape: SpaceShape) -> ResponseTypeSpace:
    return ResponseTypeSpace(shape=shape, class_count=count_classes(shape), **_structure(shape))


def enumerate_response_types(source, cap: int = DEFAULT_CAP) -> ResponseTypeSpace:
    """Build (or fetch) the response-type space, refusing if it exceeds ``cap`` classes.

    ``source`` is a ``SpaceShape`` or a built model carrying one as ``.shape``.
    """
    shape = source if isinstance(source, SpaceShape) else source.shape
    count = count_classes(shape)
    if count > cap:
        advice = (
            "use the reduction or conditioning strategy instead"
            if shape.kind == "full"
            else "raise it with --cap or the config's 'enumeration_cap'"
        )
        raise EnumerationCapError(
            f"response-type space has {count} classes, exceeding the cap of {cap}; {advice}",
            count=count,
            cap=cap,
        )
    return _space(shape)


def _decode(space: ResponseTypeSpace):
    """Integer code components (r_code, a_code, y_code) for all classes."""
    k = space.shape.treat_card
    n_a = prod(space.a_parent_cards) if space.a_parent_cards else 1
    n_y = prod(space.y_parent_cards) if space.y_parent_cards else 1
    a_span = k**n_a
    y_span = 2**n_y
    codes = np.arange(space.class_count, dtype=np.int64)
    y_code = codes % y_span
    rest = codes // y_span
    a_code = rest % a_span
    r_code = rest // a_span
    return r_code, a_code, y_code, n_a, n_y


def _root_values(space: ResponseTypeSpace, r_code: np.ndarray, position: int) -> np.ndarray:
    stride = prod(space.root_cards[position + 1 :]) if space.root_cards[position + 1 :] else 1
    return (r_code // stride) % space.root_cards[position]


def _rest_code(space, r_code, positions, cards) -> np.ndarray:
    out = np.zeros_like(r_code)
    for pos, card in zip(positions, cards):
        out = out * card + _root_values(space, r_code, pos)
    return out


def _treat_values(space, a_code, z, rest_a, n_a) -> np.ndarray:
    """Treatment level chosen by each class at instrument arm ``z``."""
    k = space.shape.treat_card
    rest_size = prod(space.a_parent_cards[1:]) if space.shape.instrument_card else prod(space.a_parent_cards)
    if not space.a_parent_cards:
        cfg = np.zeros_like(a_code)
    elif space.shape.instrument_card:
        cfg = z * (rest_size if rest_size else 1) + rest_a
    else:
        cfg = rest_a
    expo = n_a - 1 - cfg
    return (a_code // np.power(np.int64(k), expo)) % k


def _outcome_values(space, y_code, treat, rest_y, n_y) -> np.ndarray:
    """Outcome produced by each class when treatment takes level ``treat``."""
    rest_size = prod(space.y_parent_cards[1:]) if space.y_parent_cards[1:] else 1
    cfg = treat * rest_size + rest_y
    return (y_code >> (n_y - 1 - cfg)) & 1


def class_cells(space: ResponseTypeSpace) -> np.ndarray:
    """(n_arms, n_classes) flat observed-cell index hit by each class per arm."""
    r_code, a_code, y_code, n_a, n_y = _decode(space)
    rest_cards_a = space.a_parent_cards[1:] if space.shape.instrument_card else space.a_parent_cards
    rest_a = _rest_code(space, r_code, space.a_rest_root_positions, rest_cards_a)
    rest_y = _rest_code(space, r_code, space.y_rest_root_positions, space.y_parent_cards[1:])
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
    rest_y = _rest_code(space, r_code, space.y_rest_root_positions, space.y_parent_cards[1:])

    def theta_coef(side):
        lvl = _assigned_levels(space, r_code, side, level, guideline_level, rule, guideline)
        return _outcome_values(space, y_code, lvl, rest_y, n_y).astype(float)

    if query == "theta_f":
        obj = theta_coef("f")
    elif query == "theta_g":
        obj = theta_coef("g")
    elif query == "cu":
        obj = theta_coef("f") - theta_coef("g")
    else:
        raise ValueError(f"unknown query {query!r}; expected one of {QUERIES}")
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
    level: Optional[int] = None
    guideline_level: Optional[int] = None

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
        if query in ("theta_g", "cu") and space.shape.guideline_mode == "none":
            raise ValueError(f"query {query!r} needs a guideline, but the model declares none")
    elif kind == "stratum":
        if level is None and query in ("theta_f", "cu"):
            raise ValueError(f"stratum query {query!r} needs the rule's assigned level")
        if guideline_level is None and query in ("theta_g", "cu"):
            raise ValueError(f"stratum query {query!r} needs the guideline's assigned level")
        for name, lvl in (("level", level), ("guideline_level", guideline_level)):
            if lvl is not None and not 0 <= lvl < space.shape.treat_card:
                raise ValueError(f"{name}={lvl} outside range(0, {space.shape.treat_card})")
    elif kind == "full":
        if rule is None:
            raise ValueError("full-space queries need the treatment rule")
        if guideline is None and query in ("theta_g", "cu"):
            raise ValueError(f"query {query!r} needs a guideline rule")

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
        level=level,
        guideline_level=guideline_level,
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


def _aggregate(lp: LpProblem):
    """Merge classes with identical per-arm cells; keep extreme coefficients."""
    sig = lp.cells.T  # (n_classes, n_arms)
    groups, inverse = np.unique(sig, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    n_groups = groups.shape[0]
    c_min = np.full(n_groups, np.inf)
    c_max = np.full(n_groups, -np.inf)
    np.minimum.at(c_min, inverse, lp.objective)
    np.maximum.at(c_max, inverse, lp.objective)
    n_rows = lp.n_arms * lp.n_cells + 1
    A = np.zeros((n_rows, n_groups))
    cols = np.arange(n_groups)
    for arm in range(lp.n_arms):
        A[arm * lp.n_cells + groups[:, arm], cols] = 1.0
    A[-1, :] = 1.0
    b = np.concatenate([lp.rhs.ravel(), [1.0]])
    return A, b, c_min, c_max, n_groups


def solve_bounds(lp: LpProblem) -> BoundsResult:
    """Sharp lower and upper bounds for the program, or an infeasibility error."""
    A, b, c_min, c_max, n_groups = _aggregate(lp)
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
            "merged_columns": int(n_groups),
            "constraint_rows": int(A.shape[0]),
            "simplex_iterations": int(res_lo.iterations + res_hi.iterations),
        },
    )


def closed_form_binary_reduction(
    observed: JointTable,
    *,
    treatment: str = CANON_TREATMENT,
    outcome: str = CANON_OUTCOME,
    recommendation: str = CANON_RULE_REC,
) -> BoundsResult:
    """Closed-form sharp bounds for a binary reduced shape with no instrument.

    The lower bound is the probability that the received treatment matched
    the recommendation and the outcome was good; the upper bound adds all
    mass where treatment and recommendation disagreed.
    """
    table = reorder(observed, (treatment, outcome, recommendation))
    if table.probs.shape != (2, 2, 2):
        raise ValueError(f"expected three binary variables, got shape {table.probs.shape}")
    p = table.probs
    lower = float(p[0, 1, 0] + p[1, 1, 1])
    upper = float(1.0 - p[0, 0, 0] - p[1, 0, 1])
    return BoundsResult(query="theta_f", lower=lower, upper=upper, strategy="closed_form")


def manski_stratum_bounds(
    observed: JointTable,
    level: int,
    *,
    treatment: str = CANON_TREATMENT,
    outcome: str = CANON_OUTCOME,
) -> BoundsResult:
    """No-assumption bounds for one stratum without an instrument.

    ``observed`` is the stratum-conditional (treatment, outcome) table; the
    unobserved counterfactual mass P(treatment != level) widens the bound.
    """
    table = reorder(observed, (treatment, outcome))
    k = table.probs.shape[0]
    if not 0 <= level < k:
        raise ValueError(f"level {level} outside range(0, {k})")
    lower = float(table.probs[level, 1])
    upper = float(lower + (1.0 - table.probs[level, :].sum()))
    return BoundsResult(
        query="theta_f",
        lower=lower,
        upper=upper,
        strategy="closed_form",
        diagnostics={"level": int(level)},
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
    _require_valid(model)
    if model.extra_covariates:
        raise ValueError("direct oracle does not support extra covariates")
    if query in ("theta_g", "cu") and model.guideline is None:
        raise ValueError(f"query {query!r} needs a guideline, but the model declares none")
    shape = SpaceShape(
        "full", model.treatment.cardinality, model.instrument_card, x_cards=model.rule_covariate_cards
    )
    space = enumerate_response_types(shape, cap=cap)

    name_pairs = []
    if model.instrument is not None:
        name_pairs.append((model.instrument.name, CANON_INSTRUMENT))
    for i, v in enumerate(model.rule_covariates):
        name_pairs.append((v.name, f"x{i}"))
    name_pairs.append((model.treatment.name, CANON_TREATMENT))
    name_pairs.append((model.outcome.name, CANON_OUTCOME))
    table = reorder(observed, tuple(orig for orig, _ in name_pairs))
    canon_specs = [
        type(spec)(canon, spec.cardinality, spec.role)
        for (_, canon), spec in zip(name_pairs, table.variables)
    ]
    table = with_variables(table, canon_specs)

    lp = build_lp(space, table, query, rule=model.rule, guideline=model.guideline)
    return solve_bounds(lp)
