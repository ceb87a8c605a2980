import pytest
from hypothesis import given
from hypothesis import strategies as st

from rulebounds.model import (
    CANON_GUIDELINE_REC,
    CANON_INSTRUMENT,
    CANON_OUTCOME,
    CANON_RULE_REC,
    CANON_TREATMENT,
    CausalModel,
    TreatmentRule,
    VariableSpec,
    build_reduced_model,
    build_stratum_model,
    validate_model,
)

from conftest import small_iv_model, small_noiv_model


def test_variable_spec_rejects_bad_cardinality():
    with pytest.raises(ValueError, match="cardinality"):
        VariableSpec("x", 0, "rule_covariate")
    with pytest.raises(ValueError, match="cardinality"):
        VariableSpec("x", 2.0, "rule_covariate")
    with pytest.raises(ValueError):
        VariableSpec("", 2, "rule_covariate")
    # Degenerate single-level covariates are legal; only zero and below are not.
    assert VariableSpec("w", 1, "extra_covariate").cardinality == 1


def test_rule_normalizes_scalar_keys():
    rule = TreatmentRule.from_table({0: 1, 1: 0})
    assert rule.level_for(0) == 1
    assert rule.level_for((1,)) == 0
    assert rule.table == {(0,): 1, (1,): 0}


def test_rule_rejects_duplicate_keys():
    with pytest.raises(ValueError, match="duplicate"):
        TreatmentRule(items=((0, 1), ((0,), 0)))


def test_rule_constant_covers_domain():
    rule = TreatmentRule.constant(2, (2, 3))
    assert len(rule.table) == 6
    assert all(v == 2 for v in rule.table.values())
    assert rule.problems((2, 3), 3) == []


def test_rule_problems_reports_missing_and_extra():
    rule = TreatmentRule.from_table({(0,): 0, (2,): 5})
    problems = rule.problems((2,), 2)
    text = " ".join(problems)
    assert "no level assigned" in text
    assert "outside the covariate domain" in text
    assert "outside range" in text


def test_validate_model_happy_path():
    assert validate_model(small_iv_model()) == []
    assert validate_model(small_noiv_model(x_card=3, treat_card=3)) == []


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda vs: [v for v in vs if v.role != "treatment"], "exactly one treatment"),
        (lambda vs: vs + [VariableSpec("a2", 2, "treatment")], "exactly one treatment"),
        (lambda vs: [v for v in vs if v.role != "outcome"], "exactly one outcome"),
        (lambda vs: vs + [VariableSpec("z2", 2, "instrument")], "at most one instrument"),
        (lambda vs: [v for v in vs if v.role != "rule_covariate"], "at least one rule_covariate"),
        (lambda vs: vs + [VariableSpec("x", 2, "extra_covariate")], "duplicate variable names"),
        (
            lambda vs: [
                VariableSpec(v.name, 3, v.role) if v.role == "outcome" else v for v in vs
            ],
            "must be binary",
        ),
        (
            lambda vs: [
                VariableSpec(v.name, v.cardinality, "exposure") if v.role == "treatment" else v
                for v in vs
            ],
            "unknown role",
        ),
    ],
)
def test_validate_model_defects(mutate, fragment):
    base = small_iv_model()
    model = CausalModel(tuple(mutate(list(base.variables))), base.rule, None)
    problems = validate_model(model)
    assert any(fragment in p for p in problems), problems


def test_validate_model_checks_rule_tables():
    model = small_noiv_model(x_card=3, rule_map={(0,): 0, (1,): 1})
    assert any("no level assigned" in p for p in validate_model(model))
    model = small_noiv_model(x_card=2, rule_map={(0,): 0, (1,): 7})
    assert any("outside range" in p for p in validate_model(model))


def test_reduced_model_canonical_order_iv():
    rm = build_reduced_model(small_iv_model())
    assert [v.name for v in rm.observed] == [
        CANON_INSTRUMENT,
        CANON_TREATMENT,
        CANON_OUTCOME,
        CANON_RULE_REC,
    ]
    assert not rm.has_guideline and not rm.guideline_is_rule
    assert "x" in rm.latent_description


def test_reduced_model_with_guideline_and_extras():
    model = CausalModel(
        variables=(
            VariableSpec("x", 2, "rule_covariate"),
            VariableSpec("a", 2, "treatment"),
            VariableSpec("y", 2, "outcome"),
            VariableSpec("w", 3, "extra_covariate"),
        ),
        rule=TreatmentRule.from_table({(0,): 0, (1,): 1}, name="f"),
        guideline=TreatmentRule.from_table({(0,): 1, (1,): 1}, name="g"),
    )
    rm = build_reduced_model(model)
    assert [v.name for v in rm.observed] == [
        CANON_TREATMENT,
        CANON_OUTCOME,
        CANON_RULE_REC,
        CANON_GUIDELINE_REC,
        "extra0",
    ]
    assert rm.has_guideline
    assert rm.observed[-1].cardinality == 3


def test_reduced_model_collapses_equal_guideline():
    # same table under a different name still collapses
    model = small_noiv_model(guideline_map={(0,): 0, (1,): 1})
    rm = build_reduced_model(model)
    assert rm.guideline_is_rule
    assert not rm.has_guideline
    assert [v.name for v in rm.observed] == [CANON_TREATMENT, CANON_OUTCOME, CANON_RULE_REC]


def test_reduced_model_rejects_invalid():
    bad = small_noiv_model(x_card=3, rule_map={(0,): 0})
    with pytest.raises(ValueError, match="invalid model"):
        build_reduced_model(bad)


def test_stratum_model_levels_and_label():
    model = small_iv_model(
        x_card=3, treat_card=3,
        rule_map={(0,): 0, (1,): 2, (2,): 1},
        guideline_map={(0,): 1, (1,): 1, (2,): 1},
    )
    sm = build_stratum_model(model, (1,))
    assert sm.assigned == 2
    assert sm.assigned_guideline == 1
    assert [v.name for v in sm.observed] == [CANON_INSTRUMENT, CANON_TREATMENT, CANON_OUTCOME]


def test_stratum_model_rejects_out_of_domain():
    model = small_iv_model()
    with pytest.raises(ValueError, match="outside the rule-covariate domain"):
        build_stratum_model(model, (5,))
    with pytest.raises(ValueError, match="outside the rule-covariate domain"):
        build_stratum_model(model, (0, 0))


def test_stratum_model_with_extras():
    model = CausalModel(
        variables=(
            VariableSpec("x", 2, "rule_covariate"),
            VariableSpec("a", 2, "treatment"),
            VariableSpec("y", 2, "outcome"),
            VariableSpec("w", 2, "extra_covariate"),
        ),
        rule=TreatmentRule.from_table({(0,): 0, (1,): 1}),
    )
    sm = build_stratum_model(model, (1,), (0,))
    assert sm.w == (0,)
    with pytest.raises(ValueError, match="extra-covariate domain"):
        build_stratum_model(model, (0,), (9,))


@given(
    x_card=st.integers(2, 4),
    treat_card=st.integers(2, 4),
    seed=st.integers(0, 1000),
)
def test_random_valid_models_pass_validation(x_card, treat_card, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    rule = TreatmentRule.from_table(
        {(x,): int(rng.integers(treat_card)) for x in range(x_card)}
    )
    model = small_noiv_model(x_card=x_card, treat_card=treat_card, rule_map=rule.table)
    assert validate_model(model) == []
    rm = build_reduced_model(model)
    assert rm.observed[0].name == CANON_TREATMENT
    for x in range(x_card):
        sm = build_stratum_model(model, (x,))
        assert sm.assigned == rule.level_for((x,))
