from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulebounds.errors import DataError
from rulebounds.model import VariableSpec
from rulebounds.tables import (
    Cpt,
    JointTable,
    Scm,
    condition,
    empirical_joint,
    joint_from_scm,
    marginalize,
    reorder,
    sample_records,
    with_variables,
)

from conftest import random_probs


def specs(*pairs):
    return tuple(VariableSpec(n, c, "extra_covariate") for n, c in pairs)


def test_joint_table_validation():
    vs = specs(("a", 2), ("b", 3))
    with pytest.raises(ValueError, match="shape"):
        JointTable(vs, np.ones((2, 2)) / 4)
    bad = np.full((2, 3), 1 / 6)
    bad[0, 0] = -0.1
    bad[1, 2] += 0.1
    with pytest.raises(ValueError, match="negative"):
        JointTable(vs, bad)
    with pytest.raises(ValueError, match="sum to"):
        JointTable(vs, np.full((2, 3), 0.2))
    table = JointTable(vs, np.full((2, 3), 1 / 6))
    with pytest.raises(ValueError):
        table.probs[0, 0] = 0.5  # read-only


def test_degenerate_table_must_be_empty():
    vs = specs(("a", 2),)
    table = JointTable(vs, np.zeros(2), degenerate=True)
    assert table.degenerate
    with pytest.raises(ValueError, match="zero mass"):
        JointTable(vs, np.array([0.5, 0.5]), degenerate=True)


def test_axis_lookup():
    vs = specs(("a", 2), ("b", 3))
    table = JointTable(vs, np.full((2, 3), 1 / 6))
    assert table.axis("b") == 1
    with pytest.raises(KeyError, match="no variable named"):
        table.axis("c")


def test_marginalize_against_nested_loops(rng):
    vs = specs(("a", 2), ("b", 3), ("c", 2), ("d", 2))
    table = JointTable(vs, random_probs(rng, (2, 3, 2, 2)))
    got = marginalize(table, ["b", "d"])
    assert [v.name for v in got.variables] == ["b", "d"]
    expected = np.zeros((3, 2))
    for a, b, c, d in product(range(2), range(3), range(2), range(2)):
        expected[b, d] += table.probs[a, b, c, d]
    assert np.allclose(got.probs, expected, atol=1e-15)
    # keep order follows the table, not the argument
    same = marginalize(table, ["d", "b"])
    assert [v.name for v in same.variables] == ["b", "d"]


def test_marginalize_unknown_name(rng):
    vs = specs(("a", 2), ("b", 3))
    table = JointTable(vs, random_probs(rng, (2, 3)))
    with pytest.raises(KeyError, match="unknown variables"):
        marginalize(table, ["a", "zz"])


def test_condition_against_nested_loops(rng):
    vs = specs(("a", 2), ("b", 3), ("c", 2))
    table = JointTable(vs, random_probs(rng, (2, 3, 2)))
    got, mass = condition(table, {"b": 1})
    expected_mass = table.probs[:, 1, :].sum()
    assert mass == pytest.approx(expected_mass, abs=1e-15)
    for a, c in product(range(2), range(2)):
        assert got.probs[a, c] == pytest.approx(
            table.probs[a, 1, c] / expected_mass, abs=1e-12
        )
    assert [v.name for v in got.variables] == ["a", "c"]


def test_condition_zero_mass_is_degenerate():
    vs = specs(("a", 2), ("b", 2))
    probs = np.array([[0.5, 0.0], [0.5, 0.0]])
    table = JointTable(vs, probs)
    got, mass = condition(table, {"b": 1})
    assert mass == 0.0
    assert got.degenerate
    assert got.probs.sum() == 0.0


def test_condition_validates_values(rng):
    vs = specs(("a", 2), ("b", 2))
    table = JointTable(vs, random_probs(rng, (2, 2)))
    with pytest.raises(ValueError, match="outside range"):
        condition(table, {"b": 5})
    with pytest.raises(ValueError, match="at least one"):
        condition(table, {})


def test_reorder_roundtrip(rng):
    vs = specs(("a", 2), ("b", 3), ("c", 2))
    table = JointTable(vs, random_probs(rng, (2, 3, 2)))
    flipped = reorder(table, ["c", "a", "b"])
    assert [v.name for v in flipped.variables] == ["c", "a", "b"]
    for a, b, c in product(range(2), range(3), range(2)):
        assert flipped.probs[c, a, b] == table.probs[a, b, c]
    with pytest.raises(ValueError, match="permutation"):
        reorder(table, ["a", "b"])


def test_with_variables_checks_cardinalities(rng):
    vs = specs(("a", 2), ("b", 3))
    table = JointTable(vs, random_probs(rng, (2, 3)))
    renamed = with_variables(table, specs(("p", 2), ("q", 3)))
    assert renamed.names == ("p", "q")
    with pytest.raises(ValueError, match="cardinalities"):
        with_variables(table, specs(("p", 3), ("q", 2)))


def test_empirical_joint_counts():
    vs = specs(("a", 2), ("b", 3))
    records = np.array([[0, 0], [0, 0], [1, 2], [0, 1]])
    table = empirical_joint(records, vs)
    assert table.probs[0, 0] == pytest.approx(0.5)
    assert table.probs[1, 2] == pytest.approx(0.25)
    assert table.probs[0, 1] == pytest.approx(0.25)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_empirical_joint_errors():
    vs = specs(("a", 2), ("b", 3))
    with pytest.raises(DataError, match="empty"):
        empirical_joint(np.empty((0, 2), dtype=int), vs)
    with pytest.raises(DataError, match=r"\(n, 2\)"):
        empirical_joint(np.zeros((3, 3), dtype=int), vs)
    with pytest.raises(DataError, match="record 1"):
        empirical_joint(np.array([[0, 0], [0, 3]]), vs)
    with pytest.raises(DataError, match="integer"):
        empirical_joint(np.array([[0.5, 0.0]]), vs)
    # integral floats are accepted
    table = empirical_joint(np.array([[1.0, 2.0]]), vs)
    assert table.probs[1, 2] == 1.0


def test_cpt_validation():
    child = VariableSpec("y", 2, "outcome")
    parent = VariableSpec("a", 3, "treatment")
    with pytest.raises(ValueError, match="shape"):
        Cpt(child, (parent,), np.ones((2, 2)) / 2)
    rows = np.full((3, 2), 0.5)
    rows[1] = [0.9, 0.2]
    with pytest.raises(ValueError, match="sum to 1"):
        Cpt(child, (parent,), rows)
    ok = Cpt(child, (parent,), np.full((3, 2), 0.5))
    assert ok.row_index((2,)) == 2


def test_cpt_row_index_mixed_radix():
    child = VariableSpec("y", 2, "outcome")
    parents = (VariableSpec("a", 3, "treatment"), VariableSpec("b", 2, "extra_covariate"))
    cpt = Cpt(child, parents, np.full((6, 2), 0.5))
    assert cpt.row_index((0, 0)) == 0
    assert cpt.row_index((0, 1)) == 1
    assert cpt.row_index((2, 1)) == 5


def test_scm_requires_topological_order():
    a = VariableSpec("a", 2, "treatment")
    y = VariableSpec("y", 2, "outcome")
    cpt_y = Cpt(y, (a,), np.full((2, 2), 0.5))
    cpt_a = Cpt(a, (), np.array([[0.3, 0.7]]))
    with pytest.raises(ValueError, match="not defined earlier"):
        Scm((cpt_y, cpt_a))
    scm = Scm((cpt_a, cpt_y))
    assert scm.by_role("treatment") == (a,)
    with pytest.raises(ValueError, match="duplicate CPT"):
        Scm((cpt_a, cpt_a))


def chain_rule_joint(scm):
    """Independent oracle: multiply CPT entries configuration by configuration."""
    variables = scm.variables
    shape = tuple(v.cardinality for v in variables)
    out = np.zeros(shape)
    index = {v.name: i for i, v in enumerate(variables)}
    for config in product(*(range(c) for c in shape)):
        p = 1.0
        for cpt in scm.cpts:
            parent_values = tuple(config[index[par.name]] for par in cpt.parents)
            p *= cpt.rows[cpt.row_index(parent_values), config[index[cpt.child.name]]]
        out[config] = p
    return out


def test_joint_from_scm_matches_chain_rule(rng):
    u = VariableSpec("u", 2, "latent")
    z = VariableSpec("z", 2, "instrument")
    a = VariableSpec("a", 3, "treatment")
    y = VariableSpec("y", 2, "outcome")

    def rand_rows(n_rows, card):
        raw = rng.uniform(0.1, 1.0, size=(n_rows, card))
        return raw / raw.sum(axis=1, keepdims=True)

    scm = Scm(
        (
            Cpt(u, (), rand_rows(1, 2)),
            Cpt(z, (), rand_rows(1, 2)),
            Cpt(a, (z, u), rand_rows(4, 3)),
            Cpt(y, (a, u), rand_rows(6, 2)),
        )
    )
    table = joint_from_scm(scm)
    assert table.names == ("u", "z", "a", "y")
    assert np.allclose(table.probs, chain_rule_joint(scm), atol=1e-14)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_sample_records_roundtrip(rng):
    vs = specs(("a", 2), ("b", 3))
    table = JointTable(vs, random_probs(rng, (2, 3)))
    records = sample_records(table, 200_000, rng)
    assert records.shape == (200_000, 2)
    emp = empirical_joint(records, vs)
    assert np.abs(emp.probs - table.probs).max() < 0.01


def test_large_sample_convergence(rng):
    # study-sized table (288 cells) at a million draws: every empirical
    # cell lands within half a percent of the truth
    vs = specs(("u", 2), ("z", 2), ("x", 6), ("a", 3), ("y", 2))
    table = JointTable(vs, random_probs(rng, (2, 2, 6, 3, 2)))
    records = sample_records(table, 1_000_000, rng)
    emp = empirical_joint(records, vs)
    assert np.abs(emp.probs - table.probs).max() < 0.005


def test_joint_from_scm_invariant_under_topological_reordering(rng):
    u = VariableSpec("u", 2, "latent")
    z = VariableSpec("z", 2, "instrument")
    a = VariableSpec("a", 2, "treatment")
    y = VariableSpec("y", 2, "outcome")

    def rand_rows(n_rows, card):
        raw = rng.uniform(0.1, 1.0, size=(n_rows, card))
        return raw / raw.sum(axis=1, keepdims=True)

    cpt_u = Cpt(u, (), rand_rows(1, 2))
    cpt_z = Cpt(z, (), rand_rows(1, 2))
    cpt_a = Cpt(a, (z, u), rand_rows(4, 2))
    cpt_y = Cpt(y, (a, u), rand_rows(4, 2))
    first = joint_from_scm(Scm((cpt_u, cpt_z, cpt_a, cpt_y)))
    second = joint_from_scm(Scm((cpt_z, cpt_u, cpt_a, cpt_y)))
    assert second.names == ("z", "u", "a", "y")
    realigned = reorder(second, first.names)
    assert np.allclose(realigned.probs, first.probs, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_marginalize_is_consistent_under_composition(seed):
    rng = np.random.default_rng(seed)
    vs = specs(("a", 2), ("b", 2), ("c", 3))
    table = JointTable(vs, random_probs(rng, (2, 2, 3)))
    two_step = marginalize(marginalize(table, ["a", "c"]), ["c"])
    one_step = marginalize(table, ["c"])
    assert np.allclose(two_step.probs, one_step.probs, atol=1e-15)
    total = marginalize(table, [])
    assert total.probs.shape == ()
    assert float(total.probs) == pytest.approx(1.0, abs=1e-12)
