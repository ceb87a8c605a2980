"""Nonparametric bounds on the value of individualized treatment rules.

From discrete observational data with unmeasured confounding, this package
computes sharp partial-identification intervals for the population outcome
probability under a covariate-based treatment rule, and for the difference
between two rules, via linear programs over latent response classes.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DataError,
    InfeasibleModelError,
    ProgramTooLargeError,
    RuleboundsError,
    SolverError,
)
from .lp_bounds import (
    BoundsResult,
    build_lp,
    direct_sharp_bounds,
    enumerate_response_types,
    solve_bounds,
)
from .model import CausalModel, TreatmentRule, VariableSpec
from .strategies import (
    StrategyRequest,
    compare_strategies,
    conditioning_bounds,
    reduction_bounds,
)
from .tables import JointTable

__all__ = [
    "BoundsResult",
    "CausalModel",
    "ConfigError",
    "DataError",
    "InfeasibleModelError",
    "JointTable",
    "ProgramTooLargeError",
    "RuleboundsError",
    "SolverError",
    "StrategyRequest",
    "TreatmentRule",
    "VariableSpec",
    "build_lp",
    "compare_strategies",
    "conditioning_bounds",
    "direct_sharp_bounds",
    "enumerate_response_types",
    "reduction_bounds",
    "solve_bounds",
]
