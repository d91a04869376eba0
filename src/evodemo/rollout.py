"""Demonstration generation: roll a policy out from a start state.

Each environment spec rolls out its own starts, named by their keys
(``GridSpec.rollouts``, ``ReachSpec.rollouts``), and a search calls that
directly for a whole batch.  ``generate`` runs one episode from a start state
through it, and ``trajectory_to_dict`` gives a trajectory's exported form.
"""

from __future__ import annotations

# the trajectory type and its outcome names are also read from this module
from .environments import (
    OUTCOME_FAILED, OUTCOME_REACHED, OUTCOME_TRUNCATED, EnvSpec, Trajectory,
)
from .errors import ContractViolationError


def generate(env_spec: EnvSpec, policy, initial_state) -> Trajectory:
    """One full episode from ``initial_state``: the spec's ``rollouts`` on a batch of its key.

    The state itself is checked first, since a key does not say where the
    effector's coordinates end: an invalid state is a contract violation.
    """
    reason = env_spec.validate_initial(initial_state)
    if reason is not None:
        raise ContractViolationError(f"cannot start an episode at {initial_state}: {reason}")
    return env_spec.rollouts(policy, [initial_state.key])[0]


def trajectory_to_dict(trajectory: Trajectory) -> dict:
    """The exported fields of ``trajectory``; its tuples are written as JSON arrays."""
    return {
        "states": trajectory.states,
        "actions": trajectory.actions,
        "rewards": trajectory.rewards,
        "certainties": trajectory.certainties,
        "raw_length": trajectory.raw_length,
        "episode_return": trajectory.episode_return,
        "outcome": trajectory.outcome,
    }
