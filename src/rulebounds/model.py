"""Model declarations: variables, treatment rules, and derived problem shapes.

A causal model here is a list of discrete variables with roles plus one or
two deterministic rules mapping rule-covariate values to treatment levels.
The two derived shapes are the reduced model (rule covariates folded into
the latent confounder, recommendations kept observed) and the per-stratum
model (everything conditioned on one covariate cell).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Optional

ROLE_TREATMENT = "treatment"
ROLE_OUTCOME = "outcome"
ROLE_INSTRUMENT = "instrument"
ROLE_RULE_COVARIATE = "rule_covariate"
ROLE_EXTRA_COVARIATE = "extra_covariate"
# role of synthesized recommendation nodes in reduced models
ROLE_RECOMMENDATION = "recommendation"

ROLES = frozenset(
    {
        ROLE_TREATMENT,
        ROLE_OUTCOME,
        ROLE_INSTRUMENT,
        ROLE_RULE_COVARIATE,
        ROLE_EXTRA_COVARIATE,
    }
)

# canonical variable names used internally for reduced/stratum tables
CANON_TREATMENT = "treatment"
CANON_OUTCOME = "outcome"
CANON_INSTRUMENT = "instrument"
CANON_RULE_REC = "rule_rec"
CANON_GUIDELINE_REC = "guideline_rec"


@dataclass(frozen=True)
class SpaceShape:
    """Structural key of a response-type space; everything data-independent hangs off it."""

    kind: str                       # "reduced" | "stratum" | "full"
    treat_card: int
    instrument_card: int = 0        # 0 means no instrument
    guideline_mode: str = "none"    # reduced shapes only: "none" | "separate" | "aliased" (comparator equals rule)
    extra_cards: tuple = ()         # reduced shapes only
    x_cards: tuple = ()             # full shapes only


@dataclass(frozen=True)
class VariableSpec:
    """One discrete variable: a name, a cardinality, and a role."""

    name: str
    cardinality: int
    role: str

    def __post_init__(self):
        if not isinstance(self.cardinality, int) or isinstance(self.cardinality, bool) or self.cardinality < 1:
            raise ValueError(
                f"variable {self.name!r}: cardinality must be a positive integer, "
                f"got {self.cardinality!r}"
            )
        if not self.name:
            raise ValueError("variable name must be a non-empty string")

    @property
    def levels(self) -> range:
        return range(self.cardinality)


def _normalize_key(key) -> tuple[int, ...]:
    if isinstance(key, tuple):
        return tuple(int(v) for v in key)
    return (int(key),)


@dataclass(frozen=True)
class TreatmentRule:
    """Deterministic map from rule-covariate values to a treatment level.

    ``items`` is a sorted tuple of (covariate tuple, level) pairs; scalar
    covariate keys are normalized to 1-tuples on construction.
    """

    items: tuple
    name: str = "rule"

    def __post_init__(self):
        norm = tuple(sorted((_normalize_key(k), int(v)) for k, v in self.items))
        object.__setattr__(self, "items", norm)
        object.__setattr__(self, "_map", dict(norm))
        if len(self._map) != len(norm):
            raise ValueError(f"rule {self.name!r}: duplicate covariate keys")

    @classmethod
    def from_table(cls, table: Mapping, name: str = "rule") -> "TreatmentRule":
        return cls(items=tuple(table.items()), name=name)

    @classmethod
    def constant(cls, level: int, covariate_cards: tuple[int, ...], name: str = "rule") -> "TreatmentRule":
        keys = product(*(range(c) for c in covariate_cards))
        return cls(items=tuple((k, level) for k in keys), name=name)

    @property
    def table(self) -> dict:
        return dict(self.items)

    def level_for(self, x) -> int:
        return self._map[_normalize_key(x)]

    def problems(self, covariate_cards: tuple[int, ...], treatment_card: int) -> list[str]:
        """Return a list of defects relative to the given domains."""
        out = []
        domain = set(product(*(range(c) for c in covariate_cards)))
        keys = set(self._map)
        missing = domain - keys
        extra = keys - domain
        if missing:
            out.append(
                f"rule {self.name!r}: no level assigned for covariate values "
                f"{sorted(missing)[:5]}{'...' if len(missing) > 5 else ''}"
            )
        if extra:
            out.append(
                f"rule {self.name!r}: keys outside the covariate domain: "
                f"{sorted(extra)[:5]}{'...' if len(extra) > 5 else ''}"
            )
        bad = {k: v for k, v in self._map.items() if not 0 <= v < treatment_card}
        if bad:
            out.append(
                f"rule {self.name!r}: levels outside range(0, {treatment_card}): {bad}"
            )
        return out


@dataclass(frozen=True)
class CausalModel:
    """Declared variables plus the rule under evaluation and an optional comparator."""

    variables: tuple[VariableSpec, ...]
    rule: TreatmentRule
    guideline: Optional[TreatmentRule] = None

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))

    def _by_role(self, role: str) -> tuple[VariableSpec, ...]:
        return tuple(v for v in self.variables if v.role == role)

    @property
    def treatment(self) -> VariableSpec:
        return self._by_role(ROLE_TREATMENT)[0]

    @property
    def outcome(self) -> VariableSpec:
        return self._by_role(ROLE_OUTCOME)[0]

    @property
    def instrument(self) -> Optional[VariableSpec]:
        found = self._by_role(ROLE_INSTRUMENT)
        return found[0] if found else None

    @property
    def instrument_card(self) -> int:
        """Instrument cardinality, or 0 when the model has no instrument."""
        return self.instrument.cardinality if self.instrument is not None else 0

    @property
    def rule_covariates(self) -> tuple[VariableSpec, ...]:
        return self._by_role(ROLE_RULE_COVARIATE)

    @property
    def extra_covariates(self) -> tuple[VariableSpec, ...]:
        return self._by_role(ROLE_EXTRA_COVARIATE)

    @property
    def rule_covariate_cards(self) -> tuple[int, ...]:
        return tuple(v.cardinality for v in self.rule_covariates)

    @property
    def extra_covariate_cards(self) -> tuple[int, ...]:
        return tuple(v.cardinality for v in self.extra_covariates)

    def rule_domain(self):
        return product(*(range(c) for c in self.rule_covariate_cards))


def validate_model(model: CausalModel) -> list[str]:
    """Return all structural defects of the model; an empty list means valid."""
    out = []
    names = [v.name for v in model.variables]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        out.append(f"duplicate variable names: {dupes}")
    for v in model.variables:
        if v.role not in ROLES:
            out.append(f"variable {v.name!r}: unknown role {v.role!r} (expected one of {sorted(ROLES)})")
    n_treat = len(model._by_role(ROLE_TREATMENT))
    n_out = len(model._by_role(ROLE_OUTCOME))
    n_inst = len(model._by_role(ROLE_INSTRUMENT))
    if n_treat != 1:
        out.append(f"model must declare exactly one treatment variable, found {n_treat}")
    if n_out != 1:
        out.append(f"model must declare exactly one outcome variable, found {n_out}")
    if n_inst > 1:
        out.append(f"model must declare at most one instrument, found {n_inst}")
    if n_out == 1 and model.outcome.cardinality != 2:
        out.append(
            f"outcome {model.outcome.name!r} must be binary, cardinality is {model.outcome.cardinality}"
        )
    if not model.rule_covariates:
        out.append("model must declare at least one rule_covariate")
    if n_treat == 1 and model.rule_covariates:
        cards = model.rule_covariate_cards
        k = model.treatment.cardinality
        out.extend(model.rule.problems(cards, k))
        if model.guideline is not None:
            out.extend(model.guideline.problems(cards, k))
    return out


def _require_valid(model: CausalModel) -> None:
    problems = validate_model(model)
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))


@dataclass(frozen=True)
class ReducedModel:
    """Problem shape after merging rule covariates into the latent term.

    Observed variables use canonical names. When the comparator equals the
    rule, its recommendation node is dropped and the shape's guideline mode
    is "aliased", because the two recommendations would coincide everywhere.
    """

    source: CausalModel
    observed: tuple[VariableSpec, ...]
    shape: SpaceShape
    latent_description: str


def build_reduced_model(model: CausalModel) -> ReducedModel:
    """Fold rule covariates into the latent term, keeping recommendations observed."""
    _require_valid(model)
    k = model.treatment.cardinality
    observed = []
    if model.instrument is not None:
        observed.append(VariableSpec(CANON_INSTRUMENT, model.instrument.cardinality, ROLE_INSTRUMENT))
    observed.append(VariableSpec(CANON_TREATMENT, k, ROLE_TREATMENT))
    observed.append(VariableSpec(CANON_OUTCOME, 2, ROLE_OUTCOME))
    observed.append(VariableSpec(CANON_RULE_REC, k, ROLE_RECOMMENDATION))
    mode = "none"
    if model.guideline is not None:
        if model.guideline.table == model.rule.table:
            mode = "aliased"
        else:
            mode = "separate"
            observed.append(VariableSpec(CANON_GUIDELINE_REC, k, ROLE_RECOMMENDATION))
    for i, v in enumerate(model.extra_covariates):
        observed.append(VariableSpec(f"extra{i}", v.cardinality, ROLE_EXTRA_COVARIATE))
    latent = "confounder x (" + ", ".join(v.name for v in model.rule_covariates) + ")"
    return ReducedModel(
        source=model,
        observed=tuple(observed),
        shape=SpaceShape(
            "reduced", k, model.instrument_card, mode, extra_cards=model.extra_covariate_cards
        ),
        latent_description=latent,
    )


@dataclass(frozen=True)
class StratumModel:
    """Problem shape for one covariate cell under the conditioning strategy."""

    source: CausalModel
    x: tuple[int, ...]
    w: Optional[tuple[int, ...]]
    observed: tuple[VariableSpec, ...]
    assigned: int
    assigned_guideline: Optional[int]
    shape: SpaceShape


def stratum_shape(model: CausalModel) -> SpaceShape:
    """Shape shared by every stratum program of ``model``."""
    return SpaceShape("stratum", model.treatment.cardinality, model.instrument_card)


def stratum_variables(model: CausalModel) -> tuple[VariableSpec, ...]:
    """Canonical [instrument,] treatment, outcome specs of every stratum table."""
    observed = []
    if model.instrument is not None:
        observed.append(VariableSpec(CANON_INSTRUMENT, model.instrument.cardinality, ROLE_INSTRUMENT))
    observed.append(VariableSpec(CANON_TREATMENT, model.treatment.cardinality, ROLE_TREATMENT))
    observed.append(VariableSpec(CANON_OUTCOME, 2, ROLE_OUTCOME))
    return tuple(observed)


def build_stratum_model(model: CausalModel, x, w=None) -> StratumModel:
    """Shape of the conditional problem at rule-covariate cell ``x`` (and ``w``)."""
    _require_valid(model)
    x = _normalize_key(x)
    cards = model.rule_covariate_cards
    if len(x) != len(cards) or not all(0 <= xi < c for xi, c in zip(x, cards)):
        raise ValueError(
            f"stratum {x} outside the rule-covariate domain with cardinalities {cards}"
        )
    if w is not None:
        w = _normalize_key(w)
        wcards = model.extra_covariate_cards
        if len(w) != len(wcards) or not all(0 <= wi < c for wi, c in zip(w, wcards)):
            raise ValueError(
                f"stratum extra values {w} outside the extra-covariate domain "
                f"with cardinalities {wcards}"
            )
    return StratumModel(
        source=model,
        x=x,
        w=w,
        observed=stratum_variables(model),
        assigned=model.rule.level_for(x),
        assigned_guideline=(model.guideline.level_for(x) if model.guideline is not None else None),
        shape=stratum_shape(model),
    )
