"""The two in-process workloads: what one operation is and what it returns.

Both run in a child process (worker.py) so their peak RSS is their own.
``request(i)`` builds operation ``i``'s input and is never timed;
``op(request)`` is the timed call and returns a JSON-able summary that the
parent checks.
"""

from __future__ import annotations

import os

import numpy as np

from rulebounds import simulation, strategies
from rulebounds.errors import RuleboundsError
from rulebounds.model import CausalModel, TreatmentRule, VariableSpec
from rulebounds.tables import JointTable

import gen


def study_config(seed: int) -> simulation.SimConfig:
    """The default study shape, query ``cu`` against an all-zero "never treat" guideline."""
    base = simulation.SimConfig()
    guideline = TreatmentRule.constant(0, (base.card_covariate,), name="never_treat")
    return simulation.SimConfig(master_seed=seed, query="cu", guideline=guideline)


class Study:
    """One replication of the simulation study per operation, indices consecutive."""

    def __init__(self, seed: int, inputs_dir: str):
        self.config = study_config(seed)

    def request(self, i: int) -> int:
        return i

    def op(self, index: int) -> dict:
        rec = simulation.run_replication(self.config, index)
        return {"index": rec.index, "truth": rec.truth, "results": rec.results}


STRATA_VARIABLES = (
    (VariableSpec("z", 2, "instrument"),)
    + tuple(VariableSpec(f"x{i}", c, "rule_covariate") for i, c in enumerate(gen.STRATA_X_CARDS))
    + (VariableSpec("a", 3, "treatment"), VariableSpec("y", 2, "outcome"))
)


def strata_table_path(inputs_dir: str) -> str:
    return os.path.join(inputs_dir, "strata.npy")


def strata_request(table: JointTable, seed: int, i: int) -> strategies.StrategyRequest:
    levels = gen.strata_rule_levels(seed, i)
    rule = TreatmentRule.from_table(
        {x: int(levels[x]) for x in np.ndindex(levels.shape)}, name=f"rule{i}"
    )
    return strategies.StrategyRequest(CausalModel(STRATA_VARIABLES, rule), table, "theta_f")


class Strata:
    """Both strategies on one 1,000-stratum table, a new seeded rule per request."""

    def __init__(self, seed: int, inputs_dir: str):
        self.seed = seed
        self.table = JointTable(STRATA_VARIABLES, np.load(strata_table_path(inputs_dir)))

    def request(self, i: int):
        return i, strata_request(self.table, self.seed, i)

    def op(self, item) -> dict:
        i, request = item
        try:
            red = strategies.reduction_bounds(request)
            cond = strategies.conditioning_bounds(request)
        except RuleboundsError as err:
            return {"request": i, "error": f"{type(err).__name__}: {err}"}
        return {
            "request": i,
            "reduction": [red.lower, red.upper],
            "conditioning": [cond.lower, cond.upper],
            "strata": [
                [s["weight"], s["lower"], s["upper"], s["skipped"]]
                for s in cond.diagnostics["strata"]
            ],
        }


IN_PROCESS = {"study": Study, "strata": Strata}
