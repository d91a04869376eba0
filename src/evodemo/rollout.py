"""Demonstration generation: roll a policy out from a start state.

A trajectory keeps two views of the episode.  ``states`` holds the visited
positions with consecutive duplicates collapsed (a grid agent bumping into a
wall does not stretch its path), while ``actions``, ``rewards``, and
``certainties`` keep one entry per executed step.  Return and mean certainty
therefore still account for steps whose states were collapsed.

``generate_many`` rolls out a batch of starts.  For the reach task with the
Gaussian controller it steps the whole batch at once on arrays; every other
pairing runs ``generate`` per start.  Both give the same trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

# the outcome names are also read from this module, next to ``Trajectory.outcome``
from .environments import (
    OUTCOME_FAILED, OUTCOME_REACHED, OUTCOME_TRUNCATED, OUTCOMES, EnvSpec, ReachSpec, ReachState,
    reach_move,
)
from .errors import ContractViolationError
from .policy import GaussianControllerPolicy, controller_action


@dataclass(frozen=True)
class Trajectory:
    """One deterministic policy demonstration."""

    states: tuple[tuple[float, ...], ...]
    actions: tuple
    rewards: tuple[float, ...]
    certainties: tuple[float, ...]
    raw_length: int
    episode_return: float
    outcome: str

    def __post_init__(self) -> None:
        if not self.states:
            raise ContractViolationError("a trajectory needs at least one state")
        if not len(self.actions) == len(self.rewards) == len(self.certainties) == self.raw_length:
            raise ContractViolationError("per-step records must all have raw_length entries")
        if len(self.states) > self.raw_length + 1:
            raise ContractViolationError("more states than steps plus one")
        if self.outcome not in OUTCOMES:
            raise ContractViolationError(f"unknown outcome {self.outcome!r}")

    @property
    def final_length(self) -> int:
        """Number of states after collapsing consecutive duplicates."""
        return len(self.states)


def generate(env_spec: EnvSpec, policy, initial_state) -> Trajectory:
    """Run one full episode; pure in all arguments.

    The initial state must be valid for the environment (the caller filters
    candidates beforehand); an invalid state is a contract violation.
    """
    if _in_lockstep(env_spec, policy):
        return _controller_rollouts(env_spec, policy, [initial_state])[0]
    env = env_spec.make_env()
    state = env.reset(initial_state)
    positions = [state.position]
    actions: list = []
    rewards: list[float] = []
    certainties: list[float] = []
    # policies are deterministic, so a state revisited within the episode
    # (a grid agent pinned against a wall) reuses its first decision
    decisions: dict = {}
    terminated = truncated = False
    while not (terminated or truncated):
        decision = decisions.get(state)
        if decision is None:
            action = policy.act(state)
            decision = decisions[state] = (action, float(policy.certainty(state, action)))
        action, certainty = decision
        certainties.append(certainty)
        state, reward, terminated, truncated = env.step(action)
        actions.append(action)
        rewards.append(float(reward))
        positions.append(state.position)

    deduped = [positions[0]]
    for point in positions[1:]:
        if point != deduped[-1]:
            deduped.append(point)

    return Trajectory(
        states=tuple(deduped),
        actions=tuple(actions),
        rewards=tuple(rewards),
        certainties=tuple(certainties),
        raw_length=len(actions),
        episode_return=float(sum(rewards)),
        outcome=env_spec.outcome(state, terminated),
    )


def generate_many(env_spec: EnvSpec, policy, starts: Sequence) -> list[Trajectory]:
    """One trajectory per start, in order; each equals ``generate`` on that start.

    The reach controller steps all starts together on arrays; any other
    environment or policy (a subclass may override ``act`` or ``certainty``)
    runs ``generate`` once per start.
    """
    if _in_lockstep(env_spec, policy):
        return _controller_rollouts(env_spec, policy, list(starts))
    return [generate(env_spec, policy, start) for start in starts]


def _in_lockstep(env_spec: EnvSpec, policy) -> bool:
    return isinstance(env_spec, ReachSpec) and type(policy) is GaussianControllerPolicy


def _controller_rollouts(
    spec: ReachSpec, policy: GaussianControllerPolicy, starts: list[ReachState]
) -> list[Trajectory]:
    """Reach episodes of the Gaussian controller, stepped together as ``(B, dims)`` arrays.

    Bit-identical to stepping each start through ``ReachEnv`` with
    ``policy.act``: the arrays go through the same elementwise formulas.
    """
    for start in starts:
        reason = spec.validate_initial(start)
        if reason is not None:
            raise ContractViolationError(f"cannot reset to {start}: {reason}")
    if not starts:
        return []
    # the controller always acts at its own Gaussian mean: every step has a
    # zero offset on every axis and therefore the same certainty mass
    certainties = (float(policy.certainty(starts[0], policy.act(starts[0]))),) * spec.horizon

    lo, hi = np.array(spec.bounds, dtype=float).T
    target = np.array([start.target for start in starts], dtype=float)
    path = [np.array([start.effector for start in starts], dtype=float)]
    actions = []
    while len(actions) < spec.horizon:
        actions.append(controller_action(path[-1], target, policy.gain, policy.step_size))
        path.append(reach_move(path[-1], actions[-1], spec.step_size, lo, hi))
        if np.array_equal(path[-1].view(np.int64), path[-2].view(np.int64)):
            # every effector stayed put bit for bit, so each later step
            # repeats this one exactly: its records are copied, not computed
            break
    repeats = spec.horizon - len(actions)
    path = np.stack(path)  # (steps + 1, B, dims)

    offset = path[1:] - target
    distance = np.sqrt((offset * offset).sum(axis=2))
    inside = distance <= spec.goal_radius
    # the numpy norm may differ from math.dist in the last bit: a distance
    # that is not finite or lies within a relative 1e-9 of the radius is
    # decided by math.dist on Python floats, as ReachEnv.step decides it
    unsure = ~np.isfinite(distance) | (
        np.abs(distance - spec.goal_radius) <= 1e-9 * spec.goal_radius + 1e-150
    )
    paths = path.transpose(1, 0, 2).tolist()
    targets = target.tolist()
    for step, row in zip(*np.nonzero(unsure)):
        inside[step, row] = math.dist(paths[row][step + 1], targets[row]) <= spec.goal_radius

    # a position is kept unless it equals the one before it, as in ``generate``
    keep = np.ones((len(starts), len(path)), dtype=bool)
    keep[:, 1:] = (path[1:] != path[:-1]).any(axis=2).T
    trajectories = []
    for points, kept, steps, rewards in zip(
        paths, keep.tolist(), np.stack(actions, axis=1).tolist(),
        np.where(inside, 0.0, -1.0).T.tolist(),
    ):
        steps = list(map(tuple, steps))
        rewards += rewards[-1:] * repeats
        trajectories.append(Trajectory(
            states=tuple(map(tuple, compress(points, kept))),
            actions=tuple(steps + steps[-1:] * repeats),
            rewards=tuple(rewards),
            certainties=certainties,
            raw_length=spec.horizon,
            episode_return=float(sum(rewards)),
            outcome=OUTCOME_TRUNCATED,
        ))
    return trajectories


def trajectory_to_dict(trajectory: Trajectory) -> dict:
    return {
        "states": [list(s) for s in trajectory.states],
        "actions": [list(a) if isinstance(a, tuple) else a for a in trajectory.actions],
        "rewards": list(trajectory.rewards),
        "certainties": list(trajectory.certainties),
        "raw_length": trajectory.raw_length,
        "episode_return": trajectory.episode_return,
        "outcome": trajectory.outcome,
    }
