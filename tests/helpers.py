"""Test-side constructors and accessors the library does not ship.

Each is a thin composition of public library names, kept here because only
tests need it.
"""

from __future__ import annotations

import numpy as np

from evodemo.encoding import BitGenome
from evodemo.environments import N_ACTIONS, GridSpec
from evodemo.fitness import DemonstrationSet, local_diversity, trajectory_certainty
from evodemo.policy import TabularPolicy
from evodemo.report import BoxplotStats
from evodemo.rollout import Trajectory


def constant_policy(spec: GridSpec, action: int) -> TabularPolicy:
    """A tabular policy for ``spec`` that takes ``action`` in every cell."""
    q = np.zeros((spec.height, spec.width, N_ACTIONS))
    q[:, :, action] = 1.0
    return TabularPolicy(q)


def demo_set(trajectories, env_spec) -> DemonstrationSet:
    """A demonstration set holding ``trajectories``, each with its derived profile."""
    demos = DemonstrationSet()
    for trajectory in trajectories:
        d_l = local_diversity(trajectory, env_spec)
        demos.add(trajectory, d_l, trajectory_certainty(trajectory))
    return demos


def genome_from_string(text: str) -> BitGenome:
    """Inverse of ``BitGenome.as_string``."""
    return BitGenome(tuple(int(c) for c in text))


def trajectory_from_dict(data: dict) -> Trajectory:
    """Inverse of ``rollout.trajectory_to_dict``."""
    return Trajectory(
        states=tuple(tuple(s) for s in data["states"]),
        actions=tuple(tuple(a) if isinstance(a, list) else a for a in data["actions"]),
        rewards=tuple(float(r) for r in data["rewards"]),
        certainties=tuple(float(c) for c in data["certainties"]),
        raw_length=int(data["raw_length"]),
        episode_return=float(data["episode_return"]),
        outcome=str(data["outcome"]),
    )


def iqr(stats: BoxplotStats) -> float:
    return stats.q3 - stats.q1
