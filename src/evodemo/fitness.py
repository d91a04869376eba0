"""Trajectory diversity metrics and the joint fitness score.

All distances operate on the agent positions recorded in trajectories (grid
cell coordinates, reach effector coordinates).  For a trajectory ``t`` and a
demonstration set ``T``:

* local diversity: how much of the state space the trajectory covers on its
  own.  Finite spaces count distinct visited states over the state count;
  continuous spaces use the collapsed length over the raw step count plus one
  (a trajectory that never stalls scores 1).
* one-way distance: symmetric average of minimum point-to-trajectory
  distances between two trajectories; value-equal trajectories score 0.
* global diversity: minimum one-way distance from ``t`` to any *other*
  demonstration, normalized by the diameter of the position space so it stays
  in [0, 1].
* certainty: mean probability the policy assigned to its executed actions.
* joint fitness: global diversity plus the Euclidean distance of the
  (local diversity, certainty) pair to the nearest demonstration's pair.
  Adding a value-equal copy of ``t`` to ``T`` drives the score to 0.

Scoring against an empty demonstration set maxes out both context terms
(1 and sqrt(2)); that sentinel lives in ``empty_set_components`` only.

Members being compared against are excluded by object identity, never by
value equality, so an individual's own stored demonstration does not shadow
an identical twin contributed by someone else.

The demonstration set caches each member's position array and (local
diversity, certainty) pair; scoring a candidate never re-derives members.
It also keeps all members' positions packed in one axis-major buffer with
segment offsets, so a candidate is scored against every member with one
distance matrix.  A member that is a value-equal copy of the candidate, with
the same profile, decides the score without any distance work: both context
terms are exactly 0, as the arithmetic would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .environments import EnvSpec
from .errors import ContractViolationError
from .rollout import Trajectory

EMPTY_SET_GLOBAL_DIVERSITY = 1.0
EMPTY_SET_LOCAL_DISTANCE = math.sqrt(2.0)


@dataclass(frozen=True)
class FitnessComponents:
    local_diversity: float
    certainty: float
    global_diversity: float
    local_distance: float
    joint: float


def empty_set_components(local_diversity: float, certainty: float) -> FitnessComponents:
    """Score for a trajectory with nothing to collide with: both maxima."""
    return FitnessComponents(
        local_diversity=local_diversity,
        certainty=certainty,
        global_diversity=EMPTY_SET_GLOBAL_DIVERSITY,
        local_distance=EMPTY_SET_LOCAL_DISTANCE,
        joint=EMPTY_SET_GLOBAL_DIVERSITY + EMPTY_SET_LOCAL_DISTANCE,
    )


@dataclass(frozen=True)
class DemoEntry:
    trajectory: Trajectory
    points: np.ndarray
    local_diversity: float
    certainty: float


class DemonstrationSet:
    """Alive demonstrations with cached positions and (D_l, C) profiles.

    Member ``i``'s positions also sit in columns ``starts[i]`` onwards of one
    ``(dims, capacity)`` buffer, kept in member order on ``add`` and
    ``discard``.  Value-equal members share one position array.
    """

    def __init__(self) -> None:
        self._entries: list[DemoEntry] = []
        self._packed = np.empty((0, 0))
        self._size = 0  # packed columns in use
        self._starts: list[int] = []  # first packed column of each entry
        # entries grouped by their trajectory's states, to find value-equal copies
        self._by_states: dict[tuple, list[DemoEntry]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DemoEntry]:
        return iter(self._entries)

    def trajectories(self) -> tuple[Trajectory, ...]:
        return tuple(e.trajectory for e in self._entries)

    def copies_of(self, trajectory: Trajectory) -> Iterator[DemoEntry]:
        """Members value-equal to ``trajectory`` other than that very object."""
        for entry in self._by_states.get(trajectory.states, ()):
            if entry.trajectory is not trajectory and entry.trajectory == trajectory:
                yield entry

    def add(self, trajectory: Trajectory, local_diversity: float, certainty: float) -> None:
        copy = next(self.copies_of(trajectory), None)
        points = copy.points if copy is not None else _points(trajectory)
        entry = DemoEntry(trajectory, points, float(local_diversity), float(certainty))
        self._pack(points)
        self._entries.append(entry)
        self._by_states.setdefault(trajectory.states, []).append(entry)

    def discard(self, trajectory: Trajectory) -> None:
        # identity-based: value-equal duplicates from other individuals survive
        for index, entry in enumerate(self._entries):
            if entry.trajectory is trajectory:
                break
        else:
            raise ContractViolationError("trajectory is not a member of this demonstration set")
        del self._entries[index]
        start, length = self._starts.pop(index), len(entry.points)
        self._packed[:, start : self._size - length] = self._packed[:, start + length : self._size]
        self._size -= length
        for later in range(index, len(self._starts)):
            self._starts[later] -= length
        # re-key the group by a member still alive, so no dropped trajectory is kept
        group = [e for e in self._by_states.pop(trajectory.states) if e is not entry]
        if group:
            self._by_states[group[0].trajectory.states] = group

    def one_way_distances(self, points: np.ndarray) -> np.ndarray:
        """One-way distance from positions ``points`` to every member, in member order."""
        packed = self._packed[:, : self._size]
        if points.shape[1] != len(packed):
            raise ContractViolationError("positions must share the members' dimensionality")
        return _one_way(points, packed, self._starts, [len(e.points) for e in self._entries])

    def _pack(self, points: np.ndarray) -> None:
        dims, end = points.shape[1], self._size + len(points)
        if self._packed.shape[0] != dims:
            if self._size:
                raise ContractViolationError("members must share one position dimensionality")
            self._packed = np.empty((dims, 0))
        if end > self._packed.shape[1]:
            grown = np.empty((dims, max(end, 2 * self._packed.shape[1])))
            grown[:, : self._size] = self._packed[:, : self._size]
            self._packed = grown
        self._packed[:, self._size : end] = points.T
        self._starts.append(self._size)
        self._size = end

    @classmethod
    def from_trajectories(cls, trajectories: Iterable[Trajectory], env_spec: EnvSpec) -> "DemonstrationSet":
        """Convenience constructor that derives each member's cached profile."""
        demos = cls()
        for trajectory in trajectories:
            demos.add(
                trajectory,
                local_diversity(trajectory, env_spec),
                trajectory_certainty(trajectory),
            )
        return demos


def local_diversity(trajectory: Trajectory, env_spec: EnvSpec) -> float:
    """Fraction of the state space one trajectory covers on its own."""
    count = env_spec.state_count
    if count is None:
        return len(trajectory.states) / (trajectory.raw_length + 1)
    return len(set(trajectory.states)) / count


def trajectory_certainty(trajectory: Trajectory) -> float:
    """Mean policy commitment over every executed step, collapsed or not."""
    if not trajectory.certainties:
        raise ContractViolationError("trajectory has no executed actions")
    return sum(trajectory.certainties) / len(trajectory.certainties)


def one_way_distance(u: Trajectory, v: Trajectory) -> float:
    """Symmetric average minimum point distance between two trajectories."""
    return float(_one_way(_points(u), _points(v).T, [0], [len(v.states)])[0])


def joint_fitness(trajectory: Trajectory, demos: DemonstrationSet, env_spec: EnvSpec) -> FitnessComponents:
    """Full scoring of one trajectory against the current demonstration set."""
    d_l = local_diversity(trajectory, env_spec)
    certainty = trajectory_certainty(trajectory)
    others = [e for e in demos if e.trajectory is not trajectory]
    if not others:
        return empty_set_components(d_l, certainty)
    copies = demos.copies_of(trajectory)
    if any(e.local_diversity == d_l and e.certainty == certainty for e in copies):
        # a copy with the same profile is at distance 0 on both terms
        return FitnessComponents(d_l, certainty, 0.0, 0.0, 0.0)
    distances = demos.one_way_distances(_points(trajectory))
    if len(others) < len(demos):  # the scored trajectory is itself a member
        distances = distances[[e.trajectory is not trajectory for e in demos]]
    d_g = float(distances.min()) / env_spec.max_state_distance
    # math.hypot per member, not np.hypot: the two differ in the last bit on
    # some inputs, and stored scores must not move
    local_distance = min(
        math.hypot(d_l - e.local_diversity, certainty - e.certainty) for e in others
    )
    return FitnessComponents(
        local_diversity=d_l,
        certainty=certainty,
        global_diversity=d_g,
        local_distance=local_distance,
        joint=d_g + local_distance,
    )


def _points(trajectory: Trajectory) -> np.ndarray:
    return np.asarray(trajectory.states, dtype=float)


def _one_way(
    points: np.ndarray, packed: np.ndarray, starts: list[int], lengths: list[int]
) -> np.ndarray:
    """One-way distances from ``points`` (m, dims) to each segment of ``packed`` (dims, N).

    Bit-identical to giving each segment its own distance matrix reduced in
    numpy's default order, as ``tests/pairwise.py`` does; the comments give
    the order each step keeps.
    """
    # squared distances summed over axes left to right, (dx² + dy²) + dz², the
    # order of (diff * diff).sum(axis=2); per-axis (m, N) arrays updated in
    # place keep the peak memory at two candidate-by-members matrices
    dist = np.subtract.outer(points[:, 0], packed[0])
    dist *= dist
    if len(packed) > 1:
        axis_sq = np.empty_like(dist)
        for axis in range(1, len(packed)):
            np.subtract.outer(points[:, axis], packed[axis], out=axis_sq)
            axis_sq *= axis_sq
            dist += axis_sq
    np.sqrt(dist, out=dist)
    # each segment's row minima are summed as one contiguous row, the layout a
    # per-segment dist.min(axis=1).sum() reduces
    row_sums = np.ascontiguousarray(np.minimum.reduceat(dist, starts, axis=1).T).sum(axis=1)
    # column minima are summed per segment with ndarray.sum(), never with
    # np.add.reduceat, whose summation order differs in the last bits
    column_minima = dist.min(axis=0)
    column_sums = np.array([column_minima[s : s + n].sum() for s, n in zip(starts, lengths)])
    return (row_sums + column_sums) / (len(points) + np.array(lengths))
