"""The two bounding strategies and their comparison.

Reduction folds the rule covariates into the latent term and solves one
program over the coarser observed table (recommendations replace
covariates). Conditioning solves a small program inside every covariate
stratum and averages the stratum bounds with the covariate weights. Both,
and the direct oracle that cross-checks them, take one checked request: a
model, a joint table over its declared variables, and a query.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Optional

import numpy as np

from .errors import DataError, InfeasibleModelError, ProgramTooLargeError
from .lp_bounds import (
    BoundsResult,
    arm_rows,
    build_lp,
    check_interval,
    check_request,
    contains,
    direct_sharp_bounds,
    enumerate_response_types,
    infeasible_error,
    read_levels,
    solve_block,
    solve_bounds,
    zero_arm_error,
)
from .model import CausalModel, SpaceShape, build_reduced_model, stratum_shape
from .tables import JointTable, axes_in

AGREE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class StrategyRequest:
    """One bounding job: a model, observed data over its variables, and a query.

    The model checked itself when it was built; the query and the table are
    checked once, here. The strategies and the direct oracle trust all three.
    """

    model: CausalModel
    observed: JointTable
    query: str = "theta_f"

    def __post_init__(self):
        check_request(self.model, self.observed, self.query)


def reduce_table(model: CausalModel, reduced: SpaceShape, observed: JointTable) -> JointTable:
    """Project the observed joint onto the reduced variables.

    Covariate mass moves onto the recommendation values the rules assign,
    so P(..., rule_rec=b, ...) accumulates P(..., x, ...) over all x with
    f(x) = b. A recommendation's value is the position of its level among
    ``reduced.rec_levels``. Extra covariates stay observed.
    """
    arm = (model.instrument,) if model.instrument is not None else ()
    order = arm + (model.treatment, model.outcome) + model.rule_covariates + model.extra_covariates
    probs = axes_in(observed, [v.name for v in order])
    rules = (model.rule, model.guideline)[: len(reduced.rec_levels)]
    recs = tuple(
        np.searchsorted(levels, rule.levels(model.rule_covariate_cards))
        for rule, levels in zip(rules, reduced.rec_levels)
    )
    out = np.zeros(tuple(v.cardinality for v in reduced.variables))
    # the level arrays span the covariate axes; np.add.at adds one cell at a time, in rule_domain() order
    np.add.at(out, (slice(None),) * (len(arm) + 2) + recs, probs)
    return JointTable(reduced.variables, out)


def reduction_bounds(request: StrategyRequest) -> BoundsResult:
    """Bounds from the single program on the reduced observed table."""
    reduced = build_reduced_model(request.model)
    space = enumerate_response_types(reduced)
    table = reduce_table(request.model, reduced, request.observed)
    lp = build_lp(space, table, request.query)
    result = solve_bounds(lp)
    covariates = ", ".join(v.name for v in request.model.rule_covariates)
    result.diagnostics["latent"] = f"confounder x ({covariates})"
    result.diagnostics["observed"] = list(table.names)
    return result


def conditioning_bounds(request: StrategyRequest) -> BoundsResult:
    """Weight-averaged per-stratum bounds over the covariate cells.

    Strata run x-major, w-minor over the rule and extra covariates; each
    solves the no-assumption program on P([instrument,] treatment, outcome
    | stratum) and contributes its bounds times its mass. Zero-mass strata
    are listed as skipped. Strata given the same levels, of those the query
    reads, solve the same program for another right-hand side, so all of
    them are normalised at once and each such key's strata are solved as
    one block (``solve_block``). A ``JointTable`` has no negative entry, so
    each stratum divides into entries in [0, 1]. An error names the first
    stratum, in stratum order, whose program would raise it.
    """
    model, query = request.model, request.query
    covariates = model.rule_covariates + model.extra_covariates
    shape = stratum_shape(model)
    space = enumerate_response_types(shape)
    arm = (model.instrument,) if model.instrument is not None else ()
    order = covariates + arm + (model.treatment, model.outcome)
    cell_shape = tuple(v.cardinality for v in shape.variables)
    probs = axes_in(request.observed, [v.name for v in order]).reshape((-1,) + cell_shape)
    n = probs.shape[0]
    masses = probs.reshape(n, -1).sum(axis=1)
    live = masses > 0.0
    # each stratum's table divided by its mass; arm_rows then divides it by its arms' masses, as any table
    rhs = np.divide(
        probs.reshape(n, space.n_arms, space.n_cells),
        masses[:, np.newaxis, np.newaxis],
        out=np.zeros((n, space.n_arms, space.n_cells)),
        where=live[:, np.newaxis, np.newaxis],
    )
    b, empty_arms = arm_rows(space, rhs)
    zero_arm = live & empty_arms.any(axis=1)
    errors = {}  # stratum index -> the error its program raises: each empty-arm one, each block's first infeasible one
    for i in np.flatnonzero(zero_arm).tolist():
        errors[i] = zero_arm_error(int(np.argmax(empty_arms[i])))

    per_w = prod(model.extra_covariate_cards)
    levels = np.repeat(model.rule.levels(model.rule_covariate_cards).ravel(), per_w).tolist()
    g_levels = [None] * n
    if model.guideline is not None:
        g_levels = np.repeat(model.guideline.levels(model.rule_covariate_cards).ravel(), per_w).tolist()
    keys: dict = {}  # the levels the query reads -> its strata of positive mass and no empty arm, in order
    for i in np.flatnonzero(live & ~zero_arm).tolist():
        keys.setdefault(read_levels(query, levels[i], g_levels[i]), []).append(i)
    bounds = {}
    for (level, g_level), rows in keys.items():
        solved = solve_block(shape, query, level, g_level, b[rows])
        bounds.update(zip(rows, zip(solved.lower.tolist(), solved.upper.tolist())))
        if solved.infeasible is not None:
            index, row, total = solved.infeasible
            errors[rows[index]] = infeasible_error(space, row, total)

    nx = len(model.rule_covariates)
    strata: list[dict] = []
    lower = upper = 0.0
    for i, values in enumerate(product(*(range(v.cardinality) for v in covariates))):
        x, w = values[:nx], (values[nx:] if model.extra_covariates else None)
        label = ", ".join(f"{v.name}={val}" for v, val in zip(covariates, values))
        mass = float(masses[i])
        stratum = {
            "x": list(x),
            "w": list(w) if w is not None else None,
            "label": label,
            "weight": 0.0,
            "level": levels[i],
            "guideline_level": g_levels[i],
            "lower": None,
            "upper": None,
            "skipped": mass <= 0.0,
        }
        strata.append(stratum)
        if mass <= 0.0:
            continue
        if i in errors:
            err = errors[i]
            if isinstance(err, InfeasibleModelError):
                raise InfeasibleModelError(
                    f"stratum ({label}): {err}",
                    worst_constraint=err.worst_constraint,
                    violation=err.violation,
                ) from err
            raise DataError(f"stratum ({label}): {err}") from err
        lo, hi = bounds[i]
        check_interval(query, lo, hi)
        stratum.update(weight=mass, lower=lo, upper=hi)
        lower += mass * lo
        upper += mass * hi
    return BoundsResult(
        query=query,
        lower=lower,
        upper=upper,
        strategy="conditioning",
        diagnostics={
            "strata": strata,
            "stratum_count": len(strata),
            "skipped_strata": sum(s["skipped"] for s in strata),
        },
    )


@dataclass(frozen=True, eq=False)
class StrategyComparison:
    """Both strategies side by side, plus the direct oracle when it runs."""

    query: str
    reduction: BoundsResult
    conditioning: BoundsResult
    oracle: Optional[BoundsResult] = None
    oracle_note: Optional[str] = None
    containment_ok: bool = True
    oracle_matches_conditioning: Optional[bool] = None
    width_difference: float = 0.0

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "reduction": self.reduction.to_dict(),
            "conditioning": self.conditioning.to_dict(),
            "oracle": self.oracle.to_dict() if self.oracle else None,
            "oracle_note": self.oracle_note,
            "containment_ok": self.containment_ok,
            "oracle_matches_conditioning": self.oracle_matches_conditioning,
            "width_difference": self.width_difference,
        }


def compare_strategies(request: StrategyRequest) -> StrategyComparison:
    """Run both strategies and the direct oracle; the oracle's absence is noted.

    The conditioning interval is expected to sit inside the reduction
    interval (it uses strictly finer information); ``containment_ok``
    records whether that held to tolerance. The oracle is skipped, with a
    note, for extra covariates or a program over ``MAX_TABLEAU_BYTES``.
    """
    red = reduction_bounds(request)
    cond = conditioning_bounds(request)
    containment = contains((red.lower, red.upper), (cond.lower, cond.upper))
    oracle = note = None
    if request.model.extra_covariates:
        note = "direct oracle skipped: extra covariates not supported"
    else:
        try:
            oracle = direct_sharp_bounds(request)
        except ProgramTooLargeError as err:
            note = f"direct oracle skipped: {err}"
    matches = None if oracle is None else (
        abs(oracle.lower - cond.lower) <= AGREE_TOL and abs(oracle.upper - cond.upper) <= AGREE_TOL
    )
    return StrategyComparison(
        query=request.query,
        reduction=red,
        conditioning=cond,
        oracle=oracle,
        oracle_note=note,
        containment_ok=containment,
        oracle_matches_conditioning=matches,
        width_difference=red.width - cond.width,
    )
