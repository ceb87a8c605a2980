"""Seeded simulation harness validating bounds against known ground truth.

Each replication draws a fully parameterized ground-truth model (every CPT
row is an independent normalized uniform draw), computes the exact observed
joint by marginalizing out the confounder, runs the requested strategies on
that joint, and checks the known rule value against the interval. All
randomness flows from one master seed: replication ``i`` uses the stream
seeded by (master_seed, i), so any replication can be reproduced alone and
parallel runs match serial runs bit for bit.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RuleboundsError
from .model import (
    ROLE_INSTRUMENT,
    ROLE_OUTCOME,
    ROLE_RULE_COVARIATE,
    ROLE_TREATMENT,
    CausalModel,
    TreatmentRule,
    VariableSpec,
)
from .strategies import StrategyRequest, conditioning_bounds, reduction_bounds
from .tables import Cpt, Scm, joint_from_scm, marginalize

VALIDITY_TOL = 1e-9
ROLE_LATENT = "latent_confounder"

_STRATEGY_FUNCS = {"reduction": reduction_bounds, "conditioning": conditioning_bounds}


def default_study_rule(covariate_card: int = 6, treatment_card: int = 3) -> TreatmentRule:
    """Step rule mapping consecutive covariate pairs to increasing treatment levels."""
    return TreatmentRule.from_table(
        {(x,): min(x // 2, treatment_card - 1) for x in range(covariate_card)}, name="step_rule"
    )


@dataclass(frozen=True)
class SimConfig:
    """Shape, rule, seed, and execution options for one study."""

    replications: int = 100
    master_seed: int = 20260824
    card_confounder: int = 2
    card_instrument: int = 2
    card_covariate: int = 6
    card_treatment: int = 3
    rule: Optional[TreatmentRule] = None
    guideline: Optional[TreatmentRule] = None
    query: str = "theta_f"
    strategies: tuple = ("reduction", "conditioning")
    jobs: int = 1

    def resolved_rule(self) -> TreatmentRule:
        if self.rule is not None:
            return self.rule
        return default_study_rule(self.card_covariate, self.card_treatment)

    def validate(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        unknown = set(self.strategies) - set(_STRATEGY_FUNCS)
        if unknown:
            raise ValueError(f"unknown strategies {sorted(unknown)}")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        if self.query not in ("theta_f", "theta_g", "cu"):
            raise ValueError(f"unknown query {self.query!r}")
        if self.query in ("theta_g", "cu") and self.guideline is None:
            raise ValueError(f"query {self.query!r} needs a guideline")
        # surface rule defects before burning replications
        bad = self.resolved_rule().problems((self.card_covariate,), self.card_treatment)
        if self.guideline is not None:
            bad += self.guideline.problems((self.card_covariate,), self.card_treatment)
        if bad:
            raise ValueError("; ".join(bad))

    def to_dict(self) -> dict:
        return {
            "replications": self.replications,
            "master_seed": self.master_seed,
            "card_confounder": self.card_confounder,
            "card_instrument": self.card_instrument,
            "card_covariate": self.card_covariate,
            "card_treatment": self.card_treatment,
            "rule": {",".join(map(str, k)): v for k, v in self.resolved_rule().items},
            "guideline": (
                {",".join(map(str, k)): v for k, v in self.guideline.items}
                if self.guideline
                else None
            ),
            "query": self.query,
            "strategies": list(self.strategies),
            "jobs": self.jobs,
        }


def random_cpt(child: VariableSpec, parents: tuple, rng: np.random.Generator) -> Cpt:
    """One CPT whose rows are independent normalized uniform draws."""
    n_rows = 1
    for p in parents:
        n_rows *= p.cardinality
    raw = rng.uniform(size=(n_rows, child.cardinality))
    return Cpt(child, tuple(parents), raw / raw.sum(axis=1, keepdims=True))


def random_scm(config: SimConfig, index: int) -> Scm:
    """Ground-truth model for replication ``index``.

    Structure: confounder and instrument are roots; the covariate depends
    on the confounder; treatment on instrument, covariate, and confounder;
    outcome on treatment, covariate, and confounder. CPTs are drawn in that
    order from the stream seeded by (master_seed, index).
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, index)))
    u = VariableSpec("confounder", config.card_confounder, ROLE_LATENT)
    z = VariableSpec("instrument", config.card_instrument, ROLE_INSTRUMENT)
    x = VariableSpec("covariate", config.card_covariate, ROLE_RULE_COVARIATE)
    a = VariableSpec("treatment", config.card_treatment, ROLE_TREATMENT)
    y = VariableSpec("outcome", 2, ROLE_OUTCOME)
    return Scm(
        (
            random_cpt(u, (), rng),
            random_cpt(z, (), rng),
            random_cpt(x, (u,), rng),
            random_cpt(a, (z, x, u), rng),
            random_cpt(y, (a, x, u), rng),
        )
    )


def intervene_with_rule(scm: Scm, rule: TreatmentRule) -> Scm:
    """Replace the treatment CPT with the deterministic rule over its covariate parents."""
    treatment = scm.by_role(ROLE_TREATMENT)[0]
    cpt = scm.cpt_for(treatment.name)
    x_positions = [i for i, p in enumerate(cpt.parents) if p.role == ROLE_RULE_COVARIATE]
    cards = [p.cardinality for p in cpt.parents]
    rows = np.zeros_like(cpt.rows)
    for r in range(rows.shape[0]):
        values = list(np.unravel_index(r, cards)) if cards else []
        x = tuple(values[i] for i in x_positions)
        rows[r, rule.level_for(x)] = 1.0
    forced = Cpt(treatment, cpt.parents, rows)
    return Scm(tuple(forced if c is cpt else c for c in scm.cpts))


def true_policy_value(scm: Scm, rule: TreatmentRule) -> float:
    """Exact outcome probability if everyone were treated per the rule."""
    outcome = scm.by_role(ROLE_OUTCOME)[0]
    forced = intervene_with_rule(scm, rule)
    marginal = marginalize(joint_from_scm(forced), [outcome.name])
    return float(marginal.probs[1])


def observed_model(config: SimConfig) -> CausalModel:
    """The analyst's view of the study shape: everything but the confounder."""
    return CausalModel(
        variables=(
            VariableSpec("instrument", config.card_instrument, ROLE_INSTRUMENT),
            VariableSpec("covariate", config.card_covariate, ROLE_RULE_COVARIATE),
            VariableSpec("treatment", config.card_treatment, ROLE_TREATMENT),
            VariableSpec("outcome", 2, ROLE_OUTCOME),
        ),
        rule=config.resolved_rule(),
        guideline=config.guideline,
    )


@dataclass(frozen=True)
class SimRecord:
    """Outcome of one replication: truth, intervals, and the validity checks."""

    index: int
    truth: float
    results: dict            # strategy -> {"lower", "upper", "width", "valid"}
    width_difference: Optional[float]   # reduction width minus conditioning width
    containment_violated: Optional[bool]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "truth": self.truth,
            "results": self.results,
            "width_difference": self.width_difference,
            "containment_violated": self.containment_violated,
        }


def run_replication(config: SimConfig, index: int) -> SimRecord:
    """Draw ground truth, bound from its exact observed joint, check validity."""
    scm = random_scm(config, index)
    model = observed_model(config)
    observed = marginalize(joint_from_scm(scm), [v.name for v in model.variables])
    request = StrategyRequest(model, observed, config.query)
    rule = config.resolved_rule()
    if config.query == "theta_f":
        truth = true_policy_value(scm, rule)
    elif config.query == "theta_g":
        truth = true_policy_value(scm, config.guideline)
    else:
        truth = true_policy_value(scm, rule) - true_policy_value(scm, config.guideline)
    results = {}
    for name in config.strategies:
        try:
            bounds = _STRATEGY_FUNCS[name](request)
        except RuleboundsError as exc:
            # One bad draw costs one replication, never the whole study. The
            # anomaly is kept in the record so the report can surface it.
            results[name] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        results[name] = {
            "lower": bounds.lower,
            "upper": bounds.upper,
            "width": bounds.width,
            "valid": bool(
                bounds.lower - VALIDITY_TOL <= truth <= bounds.upper + VALIDITY_TOL
            ),
        }
    width_difference = None
    containment_violated = None
    if "reduction" in results and "conditioning" in results:
        red, cond = results["reduction"], results["conditioning"]
        if "error" not in red and "error" not in cond:
            width_difference = red["width"] - cond["width"]
            containment_violated = bool(
                cond["lower"] < red["lower"] - VALIDITY_TOL
                or cond["upper"] > red["upper"] + VALIDITY_TOL
            )
    return SimRecord(
        index=index,
        truth=truth,
        results=results,
        width_difference=width_difference,
        containment_violated=containment_violated,
    )


@dataclass(frozen=True, eq=False)
class SimReport:
    """Aggregated study results plus every per-replication record."""

    config: SimConfig
    records: tuple
    validity_rate: dict
    mean_width: dict
    mean_width_difference: Optional[float]
    max_width_difference: Optional[float]
    min_width_difference: Optional[float]
    containment_violations: int
    invalid_indices: dict
    anomaly_indices: dict
    elapsed_seconds: float

    def to_dict(self) -> dict:
        # elapsed_seconds stays out: the serialized report must be identical
        # across reruns of the same seed
        return {
            "config": self.config.to_dict(),
            "validity_rate": self.validity_rate,
            "mean_width": self.mean_width,
            "mean_width_difference": self.mean_width_difference,
            "max_width_difference": self.max_width_difference,
            "min_width_difference": self.min_width_difference,
            "containment_violations": self.containment_violations,
            "invalid_indices": self.invalid_indices,
            "anomaly_indices": self.anomaly_indices,
            "records": [r.to_dict() for r in self.records],
        }


def _worker(args) -> SimRecord:
    config, index = args
    return run_replication(config, index)


def run_study(config: SimConfig) -> SimReport:
    """All replications, serial or process-parallel; results are order-stable."""
    config.validate()
    start = time.perf_counter()
    indices = range(config.replications)
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            records = list(
                pool.map(_worker, [(config, i) for i in indices], chunksize=16)
            )
    else:
        records = [run_replication(config, i) for i in indices]
    records.sort(key=lambda r: r.index)
    validity_rate = {}
    mean_width = {}
    invalid = {}
    anomalies = {}
    for name in config.strategies:
        # an errored replication counts against validity, not silently dropped
        flags = [bool(r.results[name].get("valid", False)) for r in records]
        validity_rate[name] = float(np.mean(flags))
        widths = [r.results[name]["width"] for r in records if "width" in r.results[name]]
        mean_width[name] = float(np.mean(widths)) if widths else None
        invalid[name] = [r.index for r in records if not r.results[name].get("valid", False)]
        anomalies[name] = [r.index for r in records if "error" in r.results[name]]
    diffs = [r.width_difference for r in records if r.width_difference is not None]
    violations = sum(1 for r in records if r.containment_violated)
    return SimReport(
        config=config,
        records=tuple(records),
        validity_rate=validity_rate,
        mean_width=mean_width,
        mean_width_difference=float(np.mean(diffs)) if diffs else None,
        max_width_difference=float(np.max(diffs)) if diffs else None,
        min_width_difference=float(np.min(diffs)) if diffs else None,
        containment_violations=int(violations),
        invalid_indices=invalid,
        anomaly_indices=anomalies,
        elapsed_seconds=time.perf_counter() - start,
    )
