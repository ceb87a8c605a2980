"""Key-batched conditioning and the cached-gather truth against their per-object paths, exactly.

``conditioning_bounds`` normalises every stratum at once and solves each
stratum key's strata as one block (``lp_bounds.solve_strata``). The
reference below is the per-stratum path it replaced: a ``JointTable``,
``build_lp`` and ``solve_bounds`` for every stratum, in stratum order. Both
must give ``==`` endpoints, weights, levels and totals, and the same
exception, text, ``worst_constraint`` and ``violation`` when a stratum has
an empty instrument arm or is infeasible. ``true_policy_value`` must equal
the value read off the intervened ``Scm``'s joint.
"""

from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulebounds.simulation as simulation
from rulebounds.errors import DataError, InfeasibleModelError
from rulebounds.lp_bounds import BoundsResult, build_lp, enumerate_response_types, solve_bounds, solve_strata
from rulebounds.model import CausalModel, SpaceShape, TreatmentRule, VariableSpec, stratum_shape
from rulebounds.simplex import minimize_pair
from rulebounds.simulation import random_cpt, true_policy_value
from rulebounds.strategies import StrategyRequest, conditioning_bounds
from rulebounds.tables import JointTable, Scm, joint_from_scm, marginalize, reorder

from conftest import feasible_table, intervene_with_rule, reference_costs


def per_stratum_conditioning(request):
    """Conditioning one stratum at a time: its table, its program and its solve, in stratum order."""
    model = request.model
    covariates = model.rule_covariates + model.extra_covariates
    shape = stratum_shape(model)
    cell_specs = shape.variables
    arm = (model.instrument,) if model.instrument is not None else ()
    order = covariates + arm + (model.treatment, model.outcome)
    cell_shape = tuple(v.cardinality for v in cell_specs)
    probs = reorder(request.observed, [v.name for v in order]).probs.reshape((-1,) + cell_shape)
    masses = probs.reshape(probs.shape[0], -1).sum(axis=1)
    space = enumerate_response_types(shape)
    nx = len(model.rule_covariates)
    strata, lower, upper = [], 0.0, 0.0
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
                space, JointTable(cell_specs, probs[i] / mass), request.query, level=level, guideline_level=g_level
            )
            result = solve_bounds(lp)
        except InfeasibleModelError as err:
            raise InfeasibleModelError(
                f"stratum ({label}): {err}", worst_constraint=err.worst_constraint, violation=err.violation
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


def outcome(run, request):
    """What ``run`` gives for ``request``: its report, or its exception's type, text and attributes."""
    try:
        result = run(request)
    except (DataError, InfeasibleModelError, ValueError) as err:
        return type(err), str(err), getattr(err, "worst_constraint", None), getattr(err, "violation", None)
    return result.to_dict()


def assert_same(request):
    got, want = outcome(conditioning_bounds, request), outcome(per_stratum_conditioning, request)
    if isinstance(want, dict):
        assert isinstance(got, dict), got
        # == on every stratum's endpoints, weight, levels and skipped flag, and on the totals
        assert got == want
        for s, r in zip(got["diagnostics"]["strata"], want["diagnostics"]["strata"]):
            assert type(s["level"]) is type(r["level"]) is int
    else:
        assert got == want
    return got


def random_model(rng, treat_card, with_instrument, x_cards, extra_card, with_guideline):
    variables = [VariableSpec(f"x{i}", c, "rule_covariate") for i, c in enumerate(x_cards)]
    variables += [VariableSpec("a", treat_card, "treatment"), VariableSpec("y", 2, "outcome")]
    if with_instrument:
        variables.append(VariableSpec("z", 2, "instrument"))
    if extra_card:
        variables.append(VariableSpec("w", extra_card, "extra_covariate"))
    variables = [variables[i] for i in rng.permutation(len(variables))]
    domain = list(product(*(range(v.cardinality) for v in variables if v.role == "rule_covariate")))
    rule, guideline = (
        TreatmentRule.from_table({x: int(rng.integers(treat_card)) for x in domain}, name=name) for name in ("f", "g")
    )
    return CausalModel(tuple(variables), rule, guideline if with_guideline else None)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    treat_card=st.integers(2, 3),
    with_instrument=st.booleans(),
    x_cards=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    extra_card=st.integers(0, 2),
    zero_strata=st.integers(0, 2),
    zero_arm=st.booleans(),
    with_guideline=st.booleans(),
    query=st.sampled_from(["theta_f", "theta_g", "cu"]),
    feasible=st.booleans(),
)
def test_batched_conditioning_equals_the_per_stratum_path(
    seed, treat_card, with_instrument, x_cards, extra_card, zero_strata, zero_arm, with_guideline, query, feasible
):
    rng = np.random.default_rng(seed)
    with_guideline = with_guideline or query != "theta_f"
    model = random_model(rng, treat_card, with_instrument, x_cards, extra_card, with_guideline)
    if feasible:
        observed = feasible_table(rng, model, False)
    else:  # concentrated tables: instrumented strata are often infeasible
        probs = rng.dirichlet(np.full(prod(v.cardinality for v in model.variables), 0.3))
        observed = JointTable(model.variables, probs.reshape([v.cardinality for v in model.variables]))
    covariates = model.rule_covariates + model.extra_covariates
    rest = ((model.instrument,) if with_instrument else ()) + (model.treatment, model.outcome)
    ordered = reorder(observed, [v.name for v in covariates + rest])
    probs = ordered.probs.reshape((-1,) + ordered.probs.shape[len(covariates) :]).copy()
    for i in rng.permutation(len(probs))[: min(zero_strata, len(probs) - 1)]:
        probs[i] = 0.0  # a zero-mass stratum, skipped
    if zero_arm and with_instrument:
        probs[rng.integers(len(probs)), rng.integers(2)] = 0.0  # an empty instrument arm
    table = JointTable(ordered.variables, (probs / probs.sum()).reshape(ordered.probs.shape))
    assert_same(StrategyRequest(model, reorder(table, [v.name for v in model.variables]), query))


IV_MODEL = CausalModel(
    variables=(
        VariableSpec("x", 5, "rule_covariate"),
        VariableSpec("z", 2, "instrument"),
        VariableSpec("a", 2, "treatment"),
        VariableSpec("y", 2, "outcome"),
    ),
    rule=TreatmentRule.from_table({(0,): 0, (1,): 1, (2,): 0, (3,): 1, (4,): 1}, name="f"),
    guideline=TreatmentRule.constant(0, (5,), name="g"),
)


def with_defects(rng, defects):
    """A feasible (x, z, a, y) table whose strata ``defects`` maps to "zero_arm" or "infeasible"."""
    probs = feasible_table(rng, IV_MODEL, False).probs.copy()
    for x, defect in defects.items():
        arm = int(rng.integers(2))
        if defect == "zero_arm":
            probs[x, arm] = 0.0
        else:  # treated alike in both arms, with opposite outcomes: no response type gives that
            probs[x] = 0.0
            probs[x, arm, 0, 0] = probs[x, 1 - arm, 0, 1] = 0.05
    return JointTable(IV_MODEL.variables, probs / probs.sum())


@pytest.mark.parametrize(
    "kinds",
    [
        ("zero_arm",),
        ("infeasible",),
        ("zero_arm", "infeasible"),
        ("infeasible", "zero_arm"),
        ("zero_arm", "zero_arm"),
        ("infeasible", "infeasible", "infeasible"),
    ],
)
@pytest.mark.parametrize("seed", range(6))
def test_zero_arm_and_infeasible_strata_raise_as_the_per_stratum_path(kinds, seed):
    rng = np.random.default_rng(seed)
    positions = sorted(rng.choice(5, size=len(kinds), replace=False).tolist())
    table = with_defects(rng, dict(zip(positions, kinds)))
    for query in ("theta_f", "theta_g", "cu"):
        got = assert_same(StrategyRequest(IV_MODEL, table, query))
        exc, text, worst, violation = got
        assert exc is (DataError if kinds[0] == "zero_arm" else InfeasibleModelError)
        assert text.startswith(f"stratum (x={positions[0]}): ")
        assert (worst is None) == (kinds[0] == "zero_arm")


def test_solve_strata_stops_at_the_first_infeasible_row(rng):
    shape = SpaceShape("stratum", 2, instrument_card=2)
    space = enumerate_response_types(shape)
    A = space.merged[0]
    mixtures = (A @ rng.dirichlet(np.ones(A.shape[1]), size=4).T).T  # feasible: mixtures of the columns
    bad = np.zeros(A.shape[0])
    bad[[0, space.n_cells + 1, -1]] = 1.0  # a=0, y=0 in arm 0 and a=0, y=1 in arm 1
    b = np.vstack([mixtures[:2], bad, mixtures[2:]])
    got = solve_strata(shape, "cu", 1, 0, b)
    c_min, c_max = reference_costs(space, "cu", 1, 0)
    assert got.lower.size == got.upper.size == 2
    for i in range(2):
        lo, hi = minimize_pair(c_min, c_max, A, b[i])
        assert (got.lower[i], got.upper[i]) == (lo.value, hi.value)
    lo, _ = minimize_pair(c_min, c_max, A, bad)
    assert got.infeasible == (2, lo.violation_row, lo.violation_total)
    assert solve_strata(shape, "cu", 1, 0, b[3:]).infeasible is None


def test_solve_strata_checks_its_key():
    shape = SpaceShape("stratum", 3, instrument_card=2)
    b = np.full((1, 2 * 6 + 1), 1.0 / 6)
    b[0, -1] = 1.0
    with pytest.raises(ValueError, match=r"level=3 outside range\(0, 3\)"):
        solve_strata(shape, "theta_f", 3, None, b)
    with pytest.raises(ValueError, match="needs the guideline's assigned level"):
        solve_strata(shape, "cu", 1, None, b)
    with pytest.raises(ValueError, match="solves stratum programs, not reduced ones"):
        solve_strata(SpaceShape("reduced", 3, instrument_card=2), "theta_f", None, None, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_x=st.integers(1, 3), constant=st.booleans())
def test_true_policy_value_equals_the_intervened_joint(seed, n_x, constant):
    # rule covariates among latent, instrument and extra parents, in any order; the outcome reads some of them
    rng = np.random.default_rng(seed)
    xs = [VariableSpec(f"x{i}", int(rng.integers(1, 4)), "rule_covariate") for i in range(n_x)]
    others = [VariableSpec("u", 2, "latent_confounder"), VariableSpec("z", 2, "instrument")]
    others += [VariableSpec("w", int(rng.integers(1, 4)), "extra_covariate")] if seed % 2 else []
    a = VariableSpec("a", int(rng.integers(2, 4)), "treatment")
    y = VariableSpec("y", 2, "outcome")
    roots = [random_cpt(v, (), rng) for v in xs + others]
    a_parents = tuple(rng.permutation(np.array(xs + others, dtype=object)))
    y_parents = (a,) + tuple(v for v in xs + others if rng.random() < 0.5)
    scm = Scm((*roots, random_cpt(a, a_parents, rng), random_cpt(y, y_parents, rng)))
    x_cards = tuple(p.cardinality for p in a_parents if p.role == "rule_covariate")
    cells = list(product(*(range(c) for c in x_cards)))
    if constant:
        rule = TreatmentRule.constant(int(rng.integers(a.cardinality)), x_cards)
    else:
        rule = TreatmentRule.from_table({x: int(rng.integers(a.cardinality)) for x in cells})
    want = float(marginalize(joint_from_scm(intervene_with_rule(scm, rule)), ["y"]).probs[1])
    assert true_policy_value(scm, rule) == want
    assert true_policy_value(scm, rule) == want  # again, from the cached rows
    forced = simulation._forced_rows(scm.cpt_for("a").parents, a.cardinality, rule)
    assert not forced.flags.writeable
    assert np.array_equal(forced, intervene_with_rule(scm, rule).cpt_for("a").rows)
    assert simulation._forced_rows.cache_info().maxsize == 2 * simulation.MODEL_CACHE_SIZE


@pytest.mark.parametrize("stratum_mass", [0.3, 1e-12])
def test_negative_entries_within_tolerance_give_the_per_stratum_outcome(stratum_mass):
    # JointTable admits entries down to -NEG_TOL (1e-12): divided by a heavy stratum's mass, -1e-13 stays
    # above it and the stratum is solved; divided by a light one it falls below, and the table is refused
    rng = np.random.default_rng(5)
    probs = feasible_table(rng, IV_MODEL, False).probs.copy()
    probs[3] *= stratum_mass / probs[3].sum()
    probs[3, 0, 0, 0] = -1e-13
    table = JointTable(IV_MODEL.variables, probs / probs.sum())
    for query in ("theta_f", "cu"):
        got = assert_same(StrategyRequest(IV_MODEL, table, query))
        assert isinstance(got, dict) == (stratum_mass == 0.3)
