"""Shared fixtures and reference implementations used across the suite.

The scipy solver here is a cross-check oracle only; the package itself
must never import it.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import NamedTuple

import numpy as np
import pytest

from rulebounds.model import (
    CANON_OUTCOME,
    CANON_RULE_REC,
    CANON_TREATMENT,
    ROLE_INSTRUMENT,
    ROLE_OUTCOME,
    ROLE_RULE_COVARIATE,
    ROLE_TREATMENT,
    CausalModel,
    TreatmentRule,
    VariableSpec,
)
from rulebounds import simplex
from rulebounds.errors import SolverError
from rulebounds.lp_bounds import (
    QUERIES,
    BoundsResult,
    SpaceShape,
    _assigned_levels,
    _digits,
    _space,
    class_cells,
    enumerate_response_types,
)
from rulebounds.tables import Cpt, JointTable, Scm, reorder


class ResponseClass(NamedTuple):
    """Explicit view of one latent class: the reference the broadcast factor tables are checked against."""

    roots: tuple          # values of the root nodes, in root_names order
    a_map: tuple          # treatment level per a-parent configuration (lexicographic)
    y_map: tuple          # outcome value per y-parent configuration (lexicographic)


def iter_classes(space):
    """Yield the space's explicit ResponseClass tuples in class order: roots slowest, y_map fastest."""
    k = space.shape.treat_card
    n_a = prod(space.a_parent_cards)
    n_y = prod(space.y_parent_cards)
    for roots in product(*(range(c) for c in space.root_cards)):
        for a_map in product(range(k), repeat=n_a):
            for y_map in product(range(2), repeat=n_y):
                yield ResponseClass(roots, a_map, y_map)


def _mixed_radix(code, cards):
    """Digits of ``code`` over ``cards``, first digit slowest."""
    digits = []
    for card in reversed(cards):
        code, digit = divmod(code, card)
        digits.append(digit)
    return tuple(reversed(digits))


def class_at(space, j):
    """The ``j``-th ResponseClass of ``iter_classes(space)``, without enumerating the ones before it."""
    k = space.shape.treat_card
    n_a = prod(space.a_parent_cards)
    n_y = prod(space.y_parent_cards)
    roots, a_code, y_code = _mixed_radix(j, (prod(space.root_cards), k**n_a, 2**n_y))
    return ResponseClass(
        _mixed_radix(roots, space.root_cards), _mixed_radix(a_code, (k,) * n_a), _mixed_radix(y_code, (2,) * n_y)
    )


def random_probs(rng, shape):
    """A strictly positive random joint of the given shape."""
    raw = rng.uniform(0.05, 1.0, size=shape)
    return raw / raw.sum()


def random_joint(rng, specs):
    return JointTable(tuple(specs), random_probs(rng, tuple(s.cardinality for s in specs)))


def feasible_table(rng, model, zero_stratum):
    """A joint over the declared variables that every stratum program accepts.

    Each stratum's P(a, y | [z]) mixes the stratum space's response classes,
    so instrumented strata satisfy the instrumental inequalities by
    construction. The instrument is independent of the covariates, as the
    reduced program requires. With ``zero_stratum`` one random stratum gets
    no mass.
    """
    k = model.treatment.cardinality
    z_card = model.instrument.cardinality if model.instrument is not None else 0
    space = enumerate_response_types(SpaceShape("stratum", k, z_card))
    cells = class_cells(space)
    covariates = model.rule_covariates + model.extra_covariates
    cov_shape = tuple(v.cardinality for v in covariates)
    arm_probs = rng.dirichlet(np.ones(space.n_arms))
    probs = np.zeros(cov_shape + (space.n_arms, space.n_cells))
    for idx in np.ndindex(cov_shape):
        mix = rng.dirichlet(np.ones(space.class_count))
        mass = rng.uniform(0.1, 1.0)
        for arm in range(space.n_arms):
            probs[idx + (arm,)] = mass * arm_probs[arm] * np.bincount(
                cells[arm], weights=mix, minlength=space.n_cells
            )
    if zero_stratum:
        probs[tuple(int(rng.integers(c)) for c in cov_shape)] = 0.0
    arm = (model.instrument,) if z_card else ()
    order = covariates + arm + (model.treatment, model.outcome)
    table = JointTable(order, (probs / probs.sum()).reshape([v.cardinality for v in order]))
    return reorder(table, [v.name for v in model.variables])


def binary_reduced_specs():
    """Canonical (treatment, outcome, rule_rec) specs, all binary."""
    return (
        VariableSpec("treatment", 2, "treatment"),
        VariableSpec("outcome", 2, "outcome"),
        VariableSpec("rule_rec", 2, "recommendation"),
    )


def small_iv_model(x_card=2, treat_card=2, z_card=2, rule_map=None, guideline_map=None):
    """A compact instrumented model for strategy and oracle tests."""
    if rule_map is None:
        rule_map = {(x,): x % treat_card for x in range(x_card)}
    rule = TreatmentRule.from_table(rule_map, name="f")
    guideline = (
        TreatmentRule.from_table(guideline_map, name="g") if guideline_map else None
    )
    return CausalModel(
        variables=(
            VariableSpec("z", z_card, ROLE_INSTRUMENT),
            VariableSpec("x", x_card, ROLE_RULE_COVARIATE),
            VariableSpec("a", treat_card, ROLE_TREATMENT),
            VariableSpec("y", 2, ROLE_OUTCOME),
        ),
        rule=rule,
        guideline=guideline,
    )


def small_noiv_model(x_card=2, treat_card=2, rule_map=None, guideline_map=None):
    if rule_map is None:
        rule_map = {(x,): x % treat_card for x in range(x_card)}
    rule = TreatmentRule.from_table(rule_map, name="f")
    guideline = (
        TreatmentRule.from_table(guideline_map, name="g") if guideline_map else None
    )
    return CausalModel(
        variables=(
            VariableSpec("x", x_card, ROLE_RULE_COVARIATE),
            VariableSpec("a", treat_card, ROLE_TREATMENT),
            VariableSpec("y", 2, ROLE_OUTCOME),
        ),
        rule=rule,
        guideline=guideline,
    )


def reference_costs(space, query, level=None, guideline_level=None) -> tuple:
    """``(c_min, c_max)``: each merged column's extreme coefficient over its profiles, the reference of
    ``ResponseTypeSpace.program``'s costs. Levels are as ``build_lp`` checks them."""
    A, inverse = space.merged
    roots, outcomes = _digits(space.root_cards), _digits((2,) * space.shape.treat_card)
    # signed outcomes at the assigned levels, whatever the arm profile
    obj = sum(
        sign * outcomes[_assigned_levels(space, roots, side, level, guideline_level)]
        for side, sign in QUERIES[query].items()
    )[:, np.newaxis, :].astype(float)
    c_min, c_max = np.full(A.shape[1], np.inf), np.full(A.shape[1], -np.inf)
    np.minimum.at(c_min, inverse, obj)
    np.maximum.at(c_max, inverse, obj)
    return c_min, c_max


def program_columns(lp) -> tuple:
    """``(A, c_min, c_max)`` as ``solve_bounds`` hands them to the simplex, from ``lp``'s program record."""
    return lp.space.program(lp.query, lp.level, lp.guideline_level)[:3]


def scipy_lp_bounds(lp):
    """Reference bounds from scipy on the raw per-class program (no merging)."""
    from scipy import optimize

    n = lp.space.class_count
    rows = lp.n_arms * lp.n_cells
    A = np.zeros((rows + 1, n))
    cols = np.arange(n)
    for arm in range(lp.n_arms):
        A[arm * lp.n_cells + lp.cells[arm], cols] = 1.0
    A[-1] = 1.0
    b = np.concatenate([lp.rhs.ravel(), [1.0]])
    lo = optimize.linprog(lp.objective, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    hi = optimize.linprog(-lp.objective, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if lo.status == 2 or hi.status == 2:
        return None
    assert lo.status == 0 and hi.status == 0, (lo.status, hi.status)
    return float(lo.fun), float(-hi.fun)


class DenseTableau(simplex._Tableau):
    """The tableau with a dense rank-one pivot: the reference for the row-sparse one.

    ``_pivot`` subtracts ``outer(col, T[i])`` from the whole tableau and
    ``_optimize`` prices with an explicit improving mask (the columns whose
    ``barred`` entry is 0.0) and always breaks ratio ties by ``argmin``.
    ``simplex._Tableau`` must take the same pivots and reach array-equal
    tableaus.
    """

    def _pivot(self, i: int, j: int) -> None:
        T = self.T
        T[i, :] /= T[i, j]
        col = T[:, j].copy()
        col[i] = 0.0
        T -= np.outer(col, T[i, :])
        T[:, j] = 0.0
        T[i, j] = 1.0
        leaving = self.basis[i]
        self.basis[i] = j
        if leaving >= self.n:
            self.barred[leaving] = np.inf
        self.iterations += 1

    def _optimize(self) -> bool:
        T, m = self.T, self.m
        while True:
            if self.iterations > self.max_iter:
                raise SolverError(f"simplex exceeded {self.max_iter} pivots (m={m}, n={self.n})")
            red = T[-1, :-1]
            improving = (self.barred == 0.0) & (red < -simplex.OPT_TOL)
            if not improving.any():
                return True
            if self.iterations <= self.stall_after:
                j = int(np.where(improving, red, np.inf).argmin())
            else:
                j = int(improving.argmax())
            col = T[:m, j]
            rows = np.flatnonzero(col > simplex.PIV_TOL)
            if rows.size == 0:
                return False
            ratios = T[rows, -1] / col[rows]
            best = ratios.min()
            ties = rows[ratios <= best + simplex.RATIO_TIE_TOL]
            i = int(ties[np.argmin(self.basis[ties])])
            self._pivot(i, j)


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


def intervene_with_rule(scm, rule):
    """Replace the treatment CPT with the deterministic rule over its covariate parents.

    The intervened model that ``simulation.true_policy_value`` multiplies out
    without building it: its treatment rows come from one indexed assignment.
    """
    treatment = scm.by_role(ROLE_TREATMENT)[0]
    cpt = scm.cpt_for(treatment.name)
    cards = tuple(p.cardinality for p in cpt.parents)
    is_x = [p.role == ROLE_RULE_COVARIATE for p in cpt.parents]
    levels = rule.levels(tuple(c for c, x in zip(cards, is_x) if x))
    # each parent row's level: the rule's grid, constant along the other parents
    per_row = np.broadcast_to(levels.reshape([c if x else 1 for c, x in zip(cards, is_x)]), cards).ravel()
    rows = np.zeros_like(cpt.rows)
    rows[np.arange(rows.shape[0]), per_row] = 1.0
    forced = Cpt(treatment, cpt.parents, rows)
    return Scm(tuple(forced if c is cpt else c for c in scm.cpts))


def intervene_per_row(scm, rule):
    """Per-row reference of ``intervene_with_rule``: the forced treatment rows, one parent row at a time."""
    cpt = scm.cpt_for(scm.by_role(ROLE_TREATMENT)[0].name)
    x_positions = [i for i, p in enumerate(cpt.parents) if p.role == ROLE_RULE_COVARIATE]
    rows = np.zeros_like(cpt.rows)
    for r in range(rows.shape[0]):
        values = _mixed_radix(r, [p.cardinality for p in cpt.parents])
        rows[r, rule.level_for(tuple(values[i] for i in x_positions))] = 1.0
    return rows


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture
def dense_simplex():
    """Every solve of the test runs on ``DenseTableau`` in place of ``simplex._Tableau``.

    A space's program records keep the warm starts built by whichever
    tableau was current, so the space cache is cleared on the way in and out.
    """
    _space.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_Tableau", DenseTableau)
        yield
    _space.cache_clear()
