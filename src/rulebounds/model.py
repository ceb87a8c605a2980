"""Model declarations: variables, treatment rules, and derived problem shapes.

A causal model here is a list of discrete variables with roles plus one or
two deterministic rules mapping rule-covariate values to treatment levels.
Each program the package solves has a ``SpaceShape``, which owns that
program's canonical variable layout: the reduced program (rule covariates
folded into the latent confounder, recommendations kept observed), the
per-stratum program (everything conditioned on one covariate cell) and the
full program of the direct oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from numbers import Integral
from typing import Mapping, Optional

import numpy as np

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
# a reduced shape's recommendation variables, in axis order
CANON_RECS = (CANON_RULE_REC, CANON_GUIDELINE_REC)


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
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"variable name must be a non-empty string, got {self.name!r}")

    @property
    def levels(self) -> range:
        return range(self.cardinality)


@dataclass(frozen=True)
class SpaceShape:
    """Structural key of a response-type space; everything data-independent hangs off it."""

    kind: str                       # "reduced" | "stratum" | "full"
    treat_card: int
    instrument_card: int = 0        # 0 means no instrument
    guideline_mode: str = "none"    # reduced shapes only: "none" | "separate" | "aliased" (comparator equals rule)
    extra_cards: tuple = ()         # reduced shapes only
    x_cards: tuple = ()             # full shapes only
    rec_levels: tuple = ()          # reduced shapes only: each recommendation's assigned levels; () means every level

    def __post_init__(self):
        """Spell ``rec_levels`` out: one sorted tuple of levels per recommendation, every level by default.

        A recommendation's value ``i`` in the program's table stands for its
        ``i``-th assigned level.
        """
        n_recs = (2 if self.guideline_mode == "separate" else 1) if self.kind == "reduced" else 0
        every = (tuple(range(self.treat_card)),) * n_recs
        object.__setattr__(self, "rec_levels", self.rec_levels or every)

    @property
    def variables(self) -> tuple[VariableSpec, ...]:
        """Canonical specs of the program's table in axis order: the instrument (if any), then the cells.

        The cells are ``treatment, outcome, rule_rec, [guideline_rec], extra{i}``
        for reduced shapes and ``x{i}, treatment, outcome`` for stratum and
        full shapes: a stratum shape is the full shape over no covariate. A
        recommendation takes one value per assigned level.
        """
        k = self.treat_card
        arm = [(CANON_INSTRUMENT, self.instrument_card, ROLE_INSTRUMENT)] if self.instrument_card else []
        act = [(CANON_TREATMENT, k, ROLE_TREATMENT), (CANON_OUTCOME, 2, ROLE_OUTCOME)]
        if self.kind == "reduced":
            recs = zip(CANON_RECS, self.rec_levels)
            cells = act + [(n, len(lv), ROLE_RECOMMENDATION) for n, lv in recs] + [
                (f"extra{i}", c, ROLE_EXTRA_COVARIATE) for i, c in enumerate(self.extra_cards)
            ]
        elif self.kind in ("stratum", "full"):
            cells = [(f"x{i}", c, ROLE_RULE_COVARIATE) for i, c in enumerate(self.x_cards)] + act
        else:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        return tuple(VariableSpec(*spec) for spec in arm + cells)


def int_tuple(key, label: str) -> tuple[int, ...]:
    """``key``, a value or a tuple, as a tuple of ints; a float or bool is refused, named by ``label``."""
    values = key if isinstance(key, tuple) else (key,)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, Integral):
            raise ValueError(f"{label} has the non-integer value {v!r}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class TreatmentRule:
    """Deterministic map from rule-covariate values to a treatment level.

    ``items`` is a sorted tuple of (covariate tuple, level) pairs; scalar
    covariate keys are normalized to 1-tuples on construction.
    """

    items: tuple
    name: str = "rule"

    def __post_init__(self):
        norm = tuple(sorted(self._entry(k, v) for k, v in self.items))
        object.__setattr__(self, "items", norm)
        object.__setattr__(self, "_map", dict(norm))
        if len(self._map) != len(norm):
            raise ValueError(f"rule {self.name!r}: duplicate covariate keys")

    def _entry(self, key, level) -> tuple:
        """One normalized (key, level) pair."""
        label = f"rule {self.name!r}: entry {key!r}: {level!r}"
        return int_tuple(key, label), int_tuple((level,), label)[0]

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
        return self._map[int_tuple(x, f"rule {self.name!r}: key {x!r}")]

    def levels(self, covariate_cards: tuple[int, ...]) -> np.ndarray:
        """Each covariate cell's level: int64 of shape ``covariate_cards``, in ``rule_domain()`` C order."""
        cells = product(*(range(c) for c in covariate_cards))
        return np.array([self._map[x] for x in cells], dtype=np.int64).reshape(covariate_cards)

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


def rule_table(rule: Optional[TreatmentRule]) -> Optional[dict]:
    """A rule's config-file table ("0,2": 1), the inverse of ``io.parse_rule``; None for no rule."""
    return None if rule is None else {",".join(map(str, k)): v for k, v in rule.items}


@dataclass(frozen=True)
class CausalModel:
    """Declared variables plus the rule under evaluation and an optional comparator; valid by construction."""

    variables: tuple[VariableSpec, ...]
    rule: TreatmentRule
    guideline: Optional[TreatmentRule] = None

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        # each role's variables, resolved once; not a field, so eq and hash ignore it and ``replace`` re-derives it
        object.__setattr__(self, "_roles", {r: tuple(v for v in self.variables if v.role == r) for r in ROLES})
        problems = validate_model(self)
        if problems:
            raise ValueError("invalid model: " + "; ".join(problems))

    @property
    def treatment(self) -> VariableSpec:
        return self._roles[ROLE_TREATMENT][0]

    @property
    def outcome(self) -> VariableSpec:
        return self._roles[ROLE_OUTCOME][0]

    @property
    def instrument(self) -> Optional[VariableSpec]:
        found = self._roles[ROLE_INSTRUMENT]
        return found[0] if found else None

    @property
    def instrument_card(self) -> int:
        """Instrument cardinality, or 0 when the model has no instrument."""
        return self.instrument.cardinality if self.instrument is not None else 0

    @property
    def rule_covariates(self) -> tuple[VariableSpec, ...]:
        return self._roles[ROLE_RULE_COVARIATE]

    @property
    def extra_covariates(self) -> tuple[VariableSpec, ...]:
        return self._roles[ROLE_EXTRA_COVARIATE]

    @property
    def rule_covariate_cards(self) -> tuple[int, ...]:
        return tuple(v.cardinality for v in self.rule_covariates)

    @property
    def extra_covariate_cards(self) -> tuple[int, ...]:
        return tuple(v.cardinality for v in self.extra_covariates)

    def rule_domain(self):
        return product(*(range(c) for c in self.rule_covariate_cards))


def role_problem(role) -> Optional[str]:
    """Why ``role`` is not a declarable role (one of the strings in ``ROLES``), or None."""
    if not (isinstance(role, str) and role in ROLES):
        return f"unknown role {role!r} (expected one of {sorted(ROLES)})"


def validate_model(model: CausalModel) -> list[str]:
    """Return all structural defects of the model, which its constructor refuses; an empty list means valid."""
    out = []
    names = [v.name for v in model.variables]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        out.append(f"duplicate variable names: {dupes}")
    for v in model.variables:
        if problem := role_problem(v.role):
            out.append(f"variable {v.name!r}: {problem}")
    n_treat = len(model._roles[ROLE_TREATMENT])
    n_out = len(model._roles[ROLE_OUTCOME])
    n_inst = len(model._roles[ROLE_INSTRUMENT])
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


def build_reduced_model(model: CausalModel) -> SpaceShape:
    """Shape of the program with rule covariates folded into the latent term.

    Recommendations stay observed. When the comparator equals the rule, its
    recommendation node is dropped and the guideline mode is "aliased",
    because the two recommendations would coincide everywhere. Each
    recommendation spans only the levels its rule assigns: a level no
    covariate cell gets has no mass in any reduced table, so the response
    types rooted there are zero and dropping them leaves the bounds as they are.
    """
    mode = "none"
    if model.guideline is not None:
        mode = "aliased" if model.guideline.table == model.rule.table else "separate"
    rules = (model.rule, model.guideline) if mode == "separate" else (model.rule,)
    return SpaceShape(
        "reduced",
        model.treatment.cardinality,
        model.instrument_card,
        mode,
        extra_cards=model.extra_covariate_cards,
        rec_levels=tuple(tuple(sorted({level for _, level in rule.items})) for rule in rules),
    )


@dataclass(frozen=True)
class StratumModel:
    """Problem shape for one covariate cell under the conditioning strategy."""

    x: tuple[int, ...]
    w: Optional[tuple[int, ...]]
    assigned: int
    assigned_guideline: Optional[int]
    shape: SpaceShape


def stratum_shape(model: CausalModel) -> SpaceShape:
    """Shape shared by every stratum program of ``model``."""
    return SpaceShape("stratum", model.treatment.cardinality, model.instrument_card)


def build_stratum_model(model: CausalModel, x, w=None) -> StratumModel:
    """Shape of the conditional problem at rule-covariate cell ``x`` (and ``w``)."""
    x = int_tuple(x, f"stratum {x!r}")
    cards = model.rule_covariate_cards
    if len(x) != len(cards) or not all(0 <= xi < c for xi, c in zip(x, cards)):
        raise ValueError(
            f"stratum {x} outside the rule-covariate domain with cardinalities {cards}"
        )
    if w is not None:
        w = int_tuple(w, f"stratum extra values {w!r}")
        wcards = model.extra_covariate_cards
        if len(w) != len(wcards) or not all(0 <= wi < c for wi, c in zip(w, wcards)):
            raise ValueError(
                f"stratum extra values {w} outside the extra-covariate domain "
                f"with cardinalities {wcards}"
            )
    return StratumModel(
        x=x,
        w=w,
        assigned=model.rule.level_for(x),
        assigned_guideline=(model.guideline.level_for(x) if model.guideline is not None else None),
        shape=stratum_shape(model),
    )
