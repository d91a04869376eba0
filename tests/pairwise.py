"""Per-pair numpy reference for the set-level fitness terms.

This is the scoring the library did before it scored a batch in one
distance matrix: one small distance matrix per (candidate, member) pair,
with numpy reductions in their default order.  The batch scoring in
``evodemo.fitness`` must agree with it bit for bit (``==``), unlike the
loop oracle in ``bruteforce.py``, which agrees to 1e-12.
"""

from __future__ import annotations

import math

import numpy as np

from evodemo.fitness import (
    EMPTY_SET_GLOBAL_DIVERSITY,
    FitnessComponents,
    empty_set_components,
    local_diversity,
    trajectory_certainty,
)


def points(trajectory) -> np.ndarray:
    return np.asarray(trajectory.states, dtype=float)


def one_way(pu: np.ndarray, pv: np.ndarray) -> float:
    diff = pu[:, None, :] - pv[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return float((dist.min(axis=1).sum() + dist.min(axis=0).sum()) / (len(pu) + len(pv)))


def ordered_sum(values) -> float:
    """``values`` summed one Python addition at a time, in the order
    ``evodemo.fitness._ordered_sums`` states: numpy's pairwise summation."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return ordered_sum(values[:half]) + ordered_sum(values[half:])
    total = 0.0
    if n >= 8:
        lanes = list(values[:8])
        for at in range(8, n - n % 8):
            lanes[at % 8] += values[at]
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
    for value in values[n - n % 8:]:
        total += value
    return total


def one_way_in_order(pu, pv) -> float:
    """``one_way`` in plain Python on two blocks of coordinate tuples: squares
    added over the axes left to right, ``math.sqrt``, and each block's
    minima summed by ``ordered_sum``."""
    dist = [[math.sqrt(_squares(p, q)) for q in pv] for p in pu]
    u_minima = [min(row) for row in dist]
    v_minima = [min(column) for column in zip(*dist)]
    return (ordered_sum(u_minima) + ordered_sum(v_minima)) / (len(pu) + len(pv))


def _squares(p, q) -> float:
    total = 0.0
    for a, b in zip(p, q):
        total += (a - b) * (a - b)
    return total


def global_diversity(trajectory, demos, env_spec) -> float:
    """Normalized distance to the nearest other demonstration (1 when alone)."""
    others = [e for e in demos if e.trajectory is not trajectory]
    if not others:
        return EMPTY_SET_GLOBAL_DIVERSITY
    own = points(trajectory)
    return min(one_way(own, points(e.trajectory)) for e in others) / env_spec.max_state_distance


def joint_fitness(trajectory, demos, env_spec) -> FitnessComponents:
    d_l = local_diversity(trajectory, env_spec)
    certainty = trajectory_certainty(trajectory)
    others = [e for e in demos if e.trajectory is not trajectory]
    if not others:
        return empty_set_components(d_l, certainty)
    d_g = global_diversity(trajectory, demos, env_spec)
    profile_distance = local_distance(trajectory, d_l, certainty, demos)
    return FitnessComponents(d_l, certainty, d_g, profile_distance, d_g + profile_distance)


def local_distance(trajectory, d_l, certainty, demos) -> float:
    """The profile term by a scan over every member other than ``trajectory``."""
    return min(
        math.hypot(d_l - e.local_diversity, certainty - e.certainty)
        for e in demos if e.trajectory is not trajectory
    )
