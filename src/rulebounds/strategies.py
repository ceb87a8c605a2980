"""The two bounding strategies and their comparison.

Reduction folds the rule covariates into the latent term and solves one
program over the coarser observed table (recommendations replace
covariates). Conditioning solves a small program inside every covariate
stratum and averages the stratum bounds with the covariate weights. Both
consume the same request: a model, a joint table over its declared
variables, and a query.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .errors import DataError, EnumerationCapError, InfeasibleModelError
from .lp_bounds import (
    DEFAULT_CAP,
    BoundsResult,
    build_lp,
    check_request,
    direct_sharp_bounds,
    enumerate_response_types,
    solve_bounds,
)
from .model import CausalModel, SpaceShape, build_reduced_model, stratum_shape
from .tables import JointTable, reorder

CONTAINMENT_TOL = 1e-9
AGREE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class StrategyRequest:
    """One bounding job: a model, observed data over its variables, and a query.

    The triple is checked once, here; the strategies trust it.
    """

    model: CausalModel
    observed: JointTable
    query: str = "theta_f"
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        check_request(self.model, self.observed, self.query)


def reduce_table(model: CausalModel, reduced: SpaceShape, observed: JointTable) -> JointTable:
    """Project the observed joint onto the reduced variables.

    Covariate mass moves onto the recommendation values the rules assign,
    so P(..., rule_rec=b, ...) accumulates P(..., x, ...) over all x with
    f(x) = b. Extra covariates stay observed.
    """
    arm = (model.instrument,) if model.instrument is not None else ()
    order = arm + (model.treatment, model.outcome) + model.rule_covariates + model.extra_covariates
    probs = reorder(observed, [v.name for v in order]).probs
    rules = (model.rule, model.guideline) if reduced.guideline_mode == "separate" else (model.rule,)
    recs = tuple(rule.levels(model.rule_covariate_cards) for rule in rules)
    out = np.zeros(tuple(v.cardinality for v in reduced.variables))
    # the level arrays span the covariate axes; np.add.at adds one cell at a time, in rule_domain() order
    np.add.at(out, (slice(None),) * (len(arm) + 2) + recs, probs)
    return JointTable(reduced.variables, out)


def reduction_bounds(request: StrategyRequest) -> BoundsResult:
    """Bounds from the single program on the reduced observed table."""
    reduced = build_reduced_model(request.model)
    space = enumerate_response_types(reduced, cap=request.cap)
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
    are listed as skipped.
    """
    model = request.model
    covariates = model.rule_covariates + model.extra_covariates
    shape = stratum_shape(model)
    cell_specs = shape.variables
    arm = (model.instrument,) if model.instrument is not None else ()
    order = covariates + arm + (model.treatment, model.outcome)
    cell_shape = tuple(v.cardinality for v in cell_specs)
    probs = reorder(request.observed, [v.name for v in order]).probs.reshape((-1,) + cell_shape)
    masses = probs.reshape(probs.shape[0], -1).sum(axis=1)
    space = enumerate_response_types(shape, cap=request.cap)
    nx = len(model.rule_covariates)
    strata: list[dict] = []
    lower = 0.0
    upper = 0.0
    for i, values in enumerate(product(*(range(v.cardinality) for v in covariates))):
        x, w = values[:nx], (values[nx:] if model.extra_covariates else None)
        label = ", ".join(f"{v.name}={val}" for v, val in zip(covariates, values))
        level = model.rule.level_for(x)
        g_level = model.guideline.level_for(x) if model.guideline is not None else None
        mass = float(masses[i])
        stratum = {
            "x": list(x),
            "w": list(w) if w is not None else None,
            "label": label,
            "weight": 0.0,
            "level": level,
            "guideline_level": g_level,
            "lower": None,
            "upper": None,
            "skipped": mass <= 0.0,
        }
        strata.append(stratum)
        if mass <= 0.0:
            continue
        try:
            lp = build_lp(
                space,
                JointTable(cell_specs, probs[i] / mass),
                request.query,
                level=level,
                guideline_level=g_level,
            )
            result = solve_bounds(lp)
        except InfeasibleModelError as err:
            raise InfeasibleModelError(
                f"stratum ({label}): {err}",
                worst_constraint=err.worst_constraint,
                violation=err.violation,
            ) from err
        except DataError as err:
            raise DataError(f"stratum ({label}): {err}") from err
        stratum.update(weight=mass, lower=result.lower, upper=result.upper)
        lower += mass * result.lower
        upper += mass * result.upper
    return BoundsResult(
        query=request.query,
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
    """Both strategies side by side, plus the direct oracle when tractable."""

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


def compare_strategies(
    request: StrategyRequest, oracle_cap: Optional[int] = None
) -> StrategyComparison:
    """Run both strategies; add the direct oracle when the model is small enough.

    The conditioning interval is expected to sit inside the reduction
    interval (it uses strictly finer information); ``containment_ok``
    records whether that held to tolerance.
    """
    red = reduction_bounds(request)
    cond = conditioning_bounds(request)
    containment = (
        cond.lower >= red.lower - CONTAINMENT_TOL
        and cond.upper <= red.upper + CONTAINMENT_TOL
    )
    oracle = None
    note = None
    matches = None
    if oracle_cap is not None:
        if request.model.extra_covariates:
            note = "direct oracle skipped: extra covariates not supported"
        else:
            try:
                oracle = direct_sharp_bounds(
                    request.model, request.observed, request.query, cap=oracle_cap
                )
            except EnumerationCapError as err:
                note = str(err)
        if oracle is not None:
            matches = (
                abs(oracle.lower - cond.lower) <= AGREE_TOL
                and abs(oracle.upper - cond.upper) <= AGREE_TOL
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
