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
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .errors import RuleboundsError
from .lp_bounds import QUERIES, contains, require_guideline
from .model import (
    ROLE_INSTRUMENT,
    ROLE_OUTCOME,
    ROLE_RULE_COVARIATE,
    ROLE_TREATMENT,
    CausalModel,
    TreatmentRule,
    VariableSpec,
    rule_table,
)
from .strategies import StrategyRequest, conditioning_bounds, reduction_bounds
from .tables import Cpt, JointTable, Scm, cpt_product

ROLE_LATENT = "latent_confounder"

_STRATEGY_FUNCS = {"reduction": reduction_bounds, "conditioning": conditioning_bounds}
# smallest admissible value of each integer SimConfig field
_INT_MINIMA = {
    "replications": 1,
    "master_seed": 0,
    "card_confounder": 1,
    "card_instrument": 1,
    "card_covariate": 1,
    "card_treatment": 1,
    "jobs": 1,
}


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

    def __post_init__(self):
        """Refuse a defect before any replication runs: a bad field, an unanswerable query or an invalid rule."""
        for name, low in _INT_MINIMA.items():
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not isinstance(self.strategies, tuple) or not all(isinstance(s, str) for s in self.strategies):
            raise ValueError(f"strategies must be a tuple of strategy names, got {self.strategies!r}")
        unknown = set(self.strategies) - set(_STRATEGY_FUNCS)
        if unknown:
            raise ValueError(f"unknown strategies {sorted(unknown)}")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        repeated = sorted({s for s in self.strategies if self.strategies.count(s) > 1})
        if repeated:
            raise ValueError(f"strategies {repeated} given more than once")
        require_guideline(self.query, self.guideline is not None)
        self.model  # the observed model refuses the rules; built once, with the config, and reused by the study

    @cached_property
    def model(self) -> CausalModel:  # kept on the config, and pickled with it into pool workers
        return observed_model(self)

    def to_dict(self) -> dict:
        return {
            "replications": self.replications,
            "master_seed": self.master_seed,
            "card_confounder": self.card_confounder,
            "card_instrument": self.card_instrument,
            "card_covariate": self.card_covariate,
            "card_treatment": self.card_treatment,
            "rule": rule_table(self.resolved_rule()),
            "guideline": rule_table(self.guideline),
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


def _forced_rows(parents: tuple, card: int, rule: TreatmentRule) -> np.ndarray:
    """One-hot treatment CPT rows: each parent row's level under ``rule``, whatever the other parents."""
    cards = tuple(p.cardinality for p in parents)
    is_x = [p.role == ROLE_RULE_COVARIATE for p in parents]
    levels = rule.levels(tuple(c for c, x in zip(cards, is_x) if x))
    # each parent row's level: the rule's grid, constant along the other parents
    per_row = np.broadcast_to(levels.reshape([c if x else 1 for c, x in zip(cards, is_x)]), cards).ravel()
    rows = np.zeros((per_row.size, card))
    rows[np.arange(per_row.size), per_row] = 1.0
    return rows


def true_policy_value(scm: Scm, rule: TreatmentRule) -> float:
    """Exact outcome probability if everyone were treated per the rule.

    The intervened joint is ``cpt_product`` with the treatment's rows
    replaced by the rule's; every axis but the outcome is then summed out,
    as ``marginalize`` sums it.
    """
    treatment_cpt = scm.cpt_for(scm.by_role(ROLE_TREATMENT)[0].name)
    outcome = scm.by_role(ROLE_OUTCOME)[0]
    forced = _forced_rows(treatment_cpt.parents, treatment_cpt.child.cardinality, rule)
    joint = cpt_product(scm, {treatment_cpt.child.name: forced})
    others = tuple(i for i, v in enumerate(scm.variables) if v.name != outcome.name)
    return float(joint.sum(axis=others)[1])


def observed_model(config: SimConfig) -> CausalModel:
    """The analyst's view of the study shape: everything but the confounder; ``SimConfig.model`` keeps it."""
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
    model = config.model
    # the confounder summed out as ``marginalize`` sums it, so the table is the same bit for bit
    latent = tuple(i for i, v in enumerate(scm.variables) if v.role == ROLE_LATENT)
    observed = JointTable(model.variables, cpt_product(scm).sum(axis=latent))
    request = StrategyRequest(model, observed, config.query)
    rules = {"f": model.rule, "g": model.guideline}
    truth = sum(sign * true_policy_value(scm, rules[side]) for side, sign in QUERIES[config.query].items())
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
            "valid": contains((bounds.lower, bounds.upper), (truth, truth)),
        }
    width_difference = None
    containment_violated = None
    if "reduction" in results and "conditioning" in results:
        red, cond = results["reduction"], results["conditioning"]
        if "error" not in red and "error" not in cond:
            width_difference = red["width"] - cond["width"]
            containment_violated = not contains((red["lower"], red["upper"]), (cond["lower"], cond["upper"]))
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


def run_study(config: SimConfig) -> SimReport:
    """All replications, serial or process-parallel; both return the records in index order."""
    start = time.perf_counter()
    indices = range(config.replications)
    if config.jobs > 1:
        # imported here so a serial study, and every other command, never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # the fork context starts every worker at the first submit, so no wider than the work
        with ProcessPoolExecutor(max_workers=min(config.jobs, config.replications)) as pool:
            records = list(pool.map(partial(run_replication, config), indices, chunksize=16))
    else:
        records = [run_replication(config, i) for i in indices]
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
