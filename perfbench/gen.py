"""Seeded input generators for the benchmark workloads.

Every input is drawn from a latent response-class model, so it is exactly
compatible with the instrumented structure the bounds assume: inside each
covariate cell, the classes (a treatment response over the instrument and
an outcome response over the treatment) have one fixed mixture, and every
instrument arm sees that same mixture. Rows drawn iid from such a joint
would break this exactly (the arms' covariate counts would differ), and the
reduction program would reject the table as infeasible, so count-based
inputs assign integer class counts and repeat them in every arm.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def class_incidence(n_arms: int, treat_card: int) -> np.ndarray:
    """(n_classes, n_arms, treat_card, 2) 0/1 map from a class to its cell in each arm."""
    a_maps = list(product(range(treat_card), repeat=n_arms))
    y_maps = list(product(range(2), repeat=treat_card))
    out = np.zeros((len(a_maps) * len(y_maps), n_arms, treat_card, 2), dtype=np.int64)
    for i, (a_map, y_map) in enumerate(product(a_maps, y_maps)):
        for z, a in enumerate(a_map):
            out[i, z, a, y_map[a]] = 1
    return out


def _allocate(rng: np.random.Generator, total: int, n: int) -> np.ndarray:
    """Integer counts summing to ``total`` over ``n`` slots, every slot positive."""
    if total < n:
        raise ValueError(f"cannot give {n} slots a positive count from {total}")
    extra = rng.multinomial(total - n, rng.dirichlet(np.ones(n)))
    return extra + 1


def latent_counts(rng, n_arms: int, x_cards: tuple, treat_card: int, per_arm: int) -> np.ndarray:
    """Integer counts over (instrument arm, covariates..., treatment, outcome).

    Each arm holds exactly ``per_arm`` rows and the same covariate counts.
    Without an instrument, pass ``n_arms=1``.
    """
    inc = class_incidence(n_arms, treat_card)
    n_x = int(np.prod(x_cards))
    x_counts = _allocate(rng, per_arm, n_x)
    cells = np.zeros((n_x, n_arms, treat_card, 2), dtype=np.int64)
    for x, n in enumerate(x_counts):
        class_counts = rng.multinomial(n, rng.dirichlet(np.ones(inc.shape[0])))
        cells[x] = np.tensordot(class_counts, inc, axes=1)
    cells = cells.reshape(tuple(x_cards) + (n_arms, treat_card, 2))
    # move the instrument axis first
    return np.moveaxis(cells, len(x_cards), 0)


def latent_probs(rng, n_arms: int, x_cards: tuple, treat_card: int) -> np.ndarray:
    """Exact joint over (instrument, covariates..., treatment, outcome), all cells positive."""
    inc = class_incidence(n_arms, treat_card).astype(float)
    n_x = int(np.prod(x_cards))
    p_z = rng.uniform(0.3, 0.7, size=n_arms)
    p_z /= p_z.sum()
    p_x = rng.dirichlet(np.full(n_x, 2.0))
    mix = rng.dirichlet(np.ones(inc.shape[0]), size=n_x)
    cond = np.tensordot(mix, inc, axes=1)  # (n_x, arms, treat, 2), each arm sums to 1
    joint = p_x[:, None, None, None] * cond * p_z[None, :, None, None]
    joint = joint.reshape(tuple(x_cards) + (n_arms, treat_card, 2))
    joint = np.moveaxis(joint, len(x_cards), 0)
    return joint / joint.sum()


def counts_for_model(model, seed: int, rows: int) -> np.ndarray:
    """Exact instrument-compatible counts over the model's variables, in declaration order."""
    if model.extra_covariates:
        raise ValueError("generators do not support extra covariates")
    canon = tuple(model.rule_covariates) + (model.treatment, model.outcome)
    n_arms = 1
    if model.instrument is not None:
        canon = (model.instrument,) + canon
        n_arms = model.instrument.cardinality
    if rows % n_arms:
        raise ValueError(f"{rows} rows do not split evenly over {n_arms} instrument arms")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    counts = latent_counts(
        rng, n_arms, model.rule_covariate_cards, model.treatment.cardinality, rows // n_arms
    )
    if model.instrument is None:
        counts = counts[0]
    names = [v.name for v in canon]
    return np.transpose(counts, [names.index(v.name) for v in model.variables])


def write_csv(path: str, counts: np.ndarray, header: list, seed: int) -> int:
    """Write the rows that ``counts`` tabulates, shuffled; returns the row count.

    Every code must be a single digit, so each row is written as fixed bytes.
    """
    if max(counts.shape) > 10:
        raise ValueError("write_csv needs single-digit codes")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    cells = np.repeat(np.arange(counts.size), counts.ravel())
    rng.shuffle(cells)
    coords = np.unravel_index(cells, counts.shape)
    width = len(coords)
    buf = np.empty((cells.size, 2 * width), dtype=np.uint8)
    buf[:, 1::2] = ord(",")
    buf[:, -1] = ord("\n")
    for j, col in enumerate(coords):
        buf[:, 2 * j] = col + ord("0")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        buf.tofile(fh)
    return int(cells.size)


ORACLE_X_CARD = 6


def oracle_config(seed: int, data_path: str) -> dict:
    """6-level rule covariate, binary treatment, no instrument, query ``cu``.

    The full response-type space has 6 * 2**6 * 2**12 = 1,572,864 classes.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    rule = rng.integers(0, 2, size=ORACLE_X_CARD)
    rule[rng.integers(0, ORACLE_X_CARD)] = 1  # differ from the never-treat guideline
    return {
        "variables": [
            {"name": "x", "cardinality": ORACLE_X_CARD, "role": "rule_covariate"},
            {"name": "a", "cardinality": 2, "role": "treatment"},
            {"name": "y", "cardinality": 2, "role": "outcome"},
        ],
        "rule": {"name": "seeded_rule", "table": {str(x): int(v) for x, v in enumerate(rule)}},
        "guideline": {"name": "never_treat", "table": {str(x): 0 for x in range(ORACLE_X_CARD)}},
        "query": "cu",
        "strategy": "both",
        "data": data_path,
    }


STRATA_X_CARDS = (10, 10, 10)


def strata_table(seed: int) -> np.ndarray:
    """1,000-stratum joint over (z, x0, x1, x2, a, y): binary z, ternary a."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 4)))
    return latent_probs(rng, 2, STRATA_X_CARDS, 3)


def strata_rule_levels(seed: int, request: int) -> np.ndarray:
    """The rule table of one request: a treatment level for each of the 1,000 cells."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 5, request)))
    return rng.integers(0, 3, size=STRATA_X_CARDS)


