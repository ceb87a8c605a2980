import numpy as np
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
from rulebounds.strategies import StrategyRequest, reduction_bounds

from conftest import feasible_table, small_iv_model, small_noiv_model


def test_variable_spec_rejects_bad_cardinality():
    with pytest.raises(ValueError, match="cardinality"):
        VariableSpec("x", 0, "rule_covariate")
    with pytest.raises(ValueError, match="cardinality"):
        VariableSpec("x", 2.0, "rule_covariate")
    with pytest.raises(ValueError):
        VariableSpec("", 2, "rule_covariate")
    # Degenerate single-level covariates are legal; only zero and below are not.
    assert VariableSpec("w", 1, "extra_covariate").cardinality == 1


def test_variable_spec_rejects_a_non_string_name():
    with pytest.raises(ValueError, match="^variable name must be a non-empty string, got 7$"):
        VariableSpec(7, 2, "treatment")


def test_rule_normalizes_scalar_keys():
    rule = TreatmentRule.from_table({0: 1, 1: 0})
    assert rule.level_for(0) == 1
    assert rule.level_for((1,)) == 0
    assert rule.table == {(0,): 1, (1,): 0}


def test_rule_rejects_duplicate_keys():
    with pytest.raises(ValueError, match="duplicate"):
        TreatmentRule(items=((0, 1), ((0,), 0)))


@pytest.mark.parametrize(
    "table,fragment",
    [
        ({(0.9,): 1, (1,): 0}, "entry (0.9,): 1 has the non-integer value 0.9"),
        ({(0,): 1.7, (1,): 0}, "entry (0,): 1.7 has the non-integer value 1.7"),
        ({(0,): 0, (1,): True}, "entry (1,): True has the non-integer value True"),
        ({(False,): 0}, "entry (False,): 0 has the non-integer value False"),
        ({0: 1.0}, "entry 0: 1.0 has the non-integer value 1.0"),
        ({(np.float64(1.0),): 0}, "has the non-integer value"),
        ({(0,): np.True_}, "has the non-integer value"),
    ],
)
def test_rule_rejects_floats_and_bools(table, fragment):
    # int() would truncate these into a different rule
    with pytest.raises(ValueError, match="rule 'f': ") as exc:
        TreatmentRule.from_table(table, name="f")
    assert fragment in str(exc.value)


def test_rule_accepts_numpy_integers():
    rule = TreatmentRule.from_table({(np.int64(0),): np.int32(1), np.uint8(1): np.int16(0)})
    assert rule.items == (((0,), 1), ((1,), 0))
    assert all(type(v) is int for key, level in rule.items for v in key + (level,))
    assert (rule.level_for(np.int64(0)), rule.level_for((np.uint8(1),))) == (1, 0)
    with pytest.raises(KeyError):
        rule.level_for(2)


@pytest.mark.parametrize(
    "key,bad",
    [
        ((0.9,), 0.9),
        (True, True),
        (1.5, 1.5),
        ((np.float64(0.0),), np.float64(0.0)),
        ((np.True_,), np.True_),
        ((0, 1.0), 1.0),
    ],
)
def test_rule_lookups_refuse_non_integer_keys(key, bad):
    # int() would truncate these onto another covariate cell
    rule = TreatmentRule.from_table({(0,): 1, (1,): 0}, name="f")
    with pytest.raises(ValueError) as exc:
        rule.level_for(key)
    assert str(exc.value) == f"rule 'f': key {key!r} has the non-integer value {bad!r}"


def test_rule_levels_follow_the_rule_domain():
    model = CausalModel(
        variables=(
            VariableSpec("x1", 2, "rule_covariate"),
            VariableSpec("x2", 3, "rule_covariate"),
            VariableSpec("a", 3, "treatment"),
            VariableSpec("y", 2, "outcome"),
        ),
        rule=TreatmentRule.from_table({(i, j): (i + 2 * j) % 3 for i in range(2) for j in range(3)}),
    )
    levels = model.rule.levels(model.rule_covariate_cards)
    assert levels.dtype == np.int64 and levels.shape == (2, 3)
    assert levels.ravel().tolist() == [model.rule.level_for(x) for x in model.rule_domain()]


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
    # a model refuses its defects when it is built, naming validate_model's findings
    base = small_iv_model()
    with pytest.raises(ValueError, match="^invalid model: ") as exc:
        CausalModel(tuple(mutate(list(base.variables))), base.rule, None)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("role", [[1], ("instrument",), 1, None, b"instrument"])
def test_validate_model_refuses_a_role_that_is_not_a_role_name(role):
    # an unhashable role used to escape validate_model as a TypeError
    base = small_iv_model()
    variables = tuple(VariableSpec("z", 2, role) if v.name == "z" else v for v in base.variables)
    expected = f"invalid model: variable 'z': unknown role {role!r} (expected one of ["
    with pytest.raises(ValueError) as exc:
        CausalModel(variables, base.rule, None)
    assert str(exc.value).startswith(expected)


def test_validate_model_checks_rule_tables():
    with pytest.raises(ValueError, match="^invalid model: rule 'f': no level assigned"):
        small_noiv_model(x_card=3, rule_map={(0,): 0, (1,): 1})
    with pytest.raises(ValueError, match="^invalid model: rule 'f': levels outside range"):
        small_noiv_model(x_card=2, rule_map={(0,): 0, (1,): 7})
    with pytest.raises(ValueError, match="^invalid model: rule 'g': no level assigned"):
        small_noiv_model(x_card=2, guideline_map={(0,): 0})


def test_reduced_model_canonical_order_iv():
    model = small_iv_model()
    rm = build_reduced_model(model)
    assert [v.name for v in rm.variables] == [
        CANON_INSTRUMENT,
        CANON_TREATMENT,
        CANON_OUTCOME,
        CANON_RULE_REC,
    ]
    assert rm.guideline_mode == "none"
    observed = feasible_table(np.random.default_rng(0), model, zero_stratum=False)
    diagnostics = reduction_bounds(StrategyRequest(model, observed)).diagnostics
    assert diagnostics["latent"] == "confounder x (x)"
    assert diagnostics["observed"] == [v.name for v in rm.variables]


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
    assert [v.name for v in rm.variables] == [
        CANON_TREATMENT,
        CANON_OUTCOME,
        CANON_RULE_REC,
        CANON_GUIDELINE_REC,
        "extra0",
    ]
    assert rm.guideline_mode == "separate"
    assert rm.variables[-1].cardinality == 3


def test_reduced_model_collapses_equal_guideline():
    # same table under a different name still collapses
    model = small_noiv_model(guideline_map={(0,): 0, (1,): 1})
    rm = build_reduced_model(model)
    assert rm.guideline_mode == "aliased"
    assert [v.name for v in rm.variables] == [CANON_TREATMENT, CANON_OUTCOME, CANON_RULE_REC]


def test_reduced_model_rejects_invalid():
    # build_reduced_model trusts its model; the model's constructor is the gate that refuses it
    with pytest.raises(ValueError, match="invalid model"):
        small_noiv_model(x_card=3, rule_map={(0,): 0})


def test_stratum_model_levels_and_label():
    model = small_iv_model(
        x_card=3, treat_card=3,
        rule_map={(0,): 0, (1,): 2, (2,): 1},
        guideline_map={(0,): 1, (1,): 1, (2,): 1},
    )
    sm = build_stratum_model(model, (1,))
    assert sm.assigned == 2
    assert sm.assigned_guideline == 1
    assert [v.name for v in sm.shape.variables] == [CANON_INSTRUMENT, CANON_TREATMENT, CANON_OUTCOME]


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
    assert build_stratum_model(model, (np.int64(1),), np.int8(0)) == sm
    with pytest.raises(ValueError, match="extra-covariate domain"):
        build_stratum_model(model, (0,), (9,))


@pytest.mark.parametrize(
    "x,w,fragment",
    [
        ((0.9,), None, "stratum (0.9,) has the non-integer value 0.9"),
        (True, None, "stratum True has the non-integer value True"),
        ((1,), (0.5,), "stratum extra values (0.5,) has the non-integer value 0.5"),
        ((1,), False, "stratum extra values False has the non-integer value False"),
    ],
)
def test_stratum_keys_refuse_non_integer_values(x, w, fragment):
    model = CausalModel(
        variables=(
            VariableSpec("x", 2, "rule_covariate"),
            VariableSpec("a", 2, "treatment"),
            VariableSpec("y", 2, "outcome"),
            VariableSpec("w", 2, "extra_covariate"),
        ),
        rule=TreatmentRule.from_table({(0,): 0, (1,): 1}),
    )
    with pytest.raises(ValueError) as exc:
        build_stratum_model(model, x, w)
    assert str(exc.value) == fragment


@given(
    x_card=st.integers(2, 4),
    treat_card=st.integers(2, 4),
    seed=st.integers(0, 1000),
)
def test_random_valid_models_pass_validation(x_card, treat_card, seed):
    rng = np.random.default_rng(seed)
    rule = TreatmentRule.from_table(
        {(x,): int(rng.integers(treat_card)) for x in range(x_card)}
    )
    model = small_noiv_model(x_card=x_card, treat_card=treat_card, rule_map=rule.table)
    assert validate_model(model) == []
    rm = build_reduced_model(model)
    assert rm.variables[0].name == CANON_TREATMENT
    for x in range(x_card):
        sm = build_stratum_model(model, (x,))
        assert sm.assigned == rule.level_for((x,))
