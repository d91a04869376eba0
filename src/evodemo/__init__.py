"""Evolutionary search for small, diverse sets of policy demonstrations.

A fixed decision policy is probed by evolving the initial states it is
launched from.  Each candidate start yields one deterministic rollout; the
population is scored for local state variety, action certainty, and mutual
distance, so the surviving rollouts illustrate distinct behaviours of the
same policy.
"""

from .encoding import BitGenome, EncodingSpec, decode, occurrence_stats, state_value_distance
from .environments import (
    GridSpec,
    GridState,
    ReachSpec,
    ReachState,
    load_layout,
    preset,
)
from .errors import ConfigurationError, ContractViolationError, PolicyFormatError
from .evolution import EvolutionConfig, RunResult, baseline, run
from .fitness import DemonstrationSet, FitnessComponents, joint_fitness
from .policy import (
    GaussianControllerPolicy,
    TabularPolicy,
    load_policy,
    save_policy,
    train_q_learning,
)
from .report import export_bundle, write_comparison_report
from .rollout import Trajectory, generate

__version__ = "0.1.0"

__all__ = [
    "BitGenome",
    "ConfigurationError",
    "ContractViolationError",
    "DemonstrationSet",
    "EncodingSpec",
    "EvolutionConfig",
    "FitnessComponents",
    "GaussianControllerPolicy",
    "GridSpec",
    "GridState",
    "PolicyFormatError",
    "ReachSpec",
    "ReachState",
    "RunResult",
    "TabularPolicy",
    "Trajectory",
    "baseline",
    "decode",
    "export_bundle",
    "generate",
    "joint_fitness",
    "load_layout",
    "load_policy",
    "occurrence_stats",
    "preset",
    "run",
    "save_policy",
    "state_value_distance",
    "train_q_learning",
    "write_comparison_report",
    "__version__",
]
