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

Positions are read as arrays, from each trajectory's ``points``, which a
rollout batch builds up front; no pass builds a trajectory's per-step
records.  The demonstration set caches each member's (local diversity,
certainty) pair; scoring a candidate never re-derives members.  The set
counts its members per distinct profile, so the profile term
(``DemonstrationSet.local_distance``, shared by ``joint_fitness`` and the
bound below) is a minimum over distinct pairs, or one lookup when
another member holds the candidate's own pair, as it does for most
candidates; the term is then exactly 0.  The set keeps no index of
trajectories by value: a value-equal copy of a member is at distance
exactly 0 because every point-to-point distance between equal positions is
0, so it scores 0 on both context terms.  The search never sends such a
copy to the distance pass; it sets the copy's distance to 0 itself
(``evolution.evaluate_offspring``).

``DemonstrationSet.nearest_distances`` is the one distance read of a batch:
it finds the nearest one-way distance for every trajectory at once, each
against the set as it will stand when that trajectory is scored;
``joint_fitness`` takes its answer or, called alone, asks it for a batch of
one.  Given the search's floor, the read first bounds each row's joint score
from above with its distance to one member, bit for bit the entry the exact
pass would give that pair.  A row whose bound is at most the floor keeps that
distance, at which ``joint_fitness`` scores no higher than the bound: the
search skips the exact pass for offspring that cannot survive.

The bound and the exact pass ask one kernel, ``_Blocks.one_way``, for
exactly the pairs of position blocks they need, from one store the read
pads of the members' blocks, in insertion order, and the batch's after
them, so the exact pass works out only the pairs a row can see: the members
and the batch rows before it, a triangle, with no element computed only to
be masked.  Every block's minima are summed in the order ``_ordered_sums``
states, numpy's pairwise summation, so every distance is bit for bit what
numpy gives the pair alone (``tests/pairwise.py``).

On a grid a rollout depends only on the policy and the start cell, so the
search also passes the spec's ``rollout_table`` for the policy.  When every
member and every trajectory of the batch shares that table's tuples, the
pass reads each pair's distance from the table, which holds walked
trajectories and pair distances only.  The pairs it lacks are worked out
once each, with the same kernel over the read's own store, and stored
there.  A table entry is therefore the distance the kernel gives, and a
search scores the same whatever the table held before it.  ``ReachSpec``
answers no table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .environments import EnvSpec, RolloutTable, Trajectory
from .errors import ContractViolationError

EMPTY_SET_GLOBAL_DIVERSITY = 1.0
EMPTY_SET_LOCAL_DISTANCE = math.sqrt(2.0)
# cap on the point pairs one kernel chunk holds (512 KiB of float64, and the
# kernel holds two such arrays at once); a chunk holds at least one pair
MAX_PAIR_ELEMENTS = 2**16
# blocks of up to this many points are padded to one another in the kernel,
# and longer ones up to 128 points are stored as their distinct points
SHORT_BLOCK = 31


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


class DemoEntry(NamedTuple):
    trajectory: Trajectory
    local_diversity: float
    certainty: float


class DemonstrationSet:
    """Alive demonstrations with cached (D_l, C) profiles.

    Members are kept in insertion order, keyed by identity.  The set keeps
    no positions of its own: each distance read builds one ``_Blocks`` of
    the members' positions, in insertion order, and its batch's after them,
    so slot ``k`` of that store is the ``k``-th member's block.
    """

    def __init__(self) -> None:
        self._entries: dict[int, DemoEntry] = {}  # by id(entry), in insertion order
        self._entries_of: dict[int, list[DemoEntry]] = {}  # by id(trajectory), oldest first
        self._profiles: dict[tuple[float, float], int] = {}  # members per distinct pair
        self._axes: int | None = None  # the members' position dimensionality, once read

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DemoEntry]:
        return iter(self._entries.values())

    def trajectories(self) -> tuple[Trajectory, ...]:
        return tuple(e.trajectory for e in self._entries.values())

    def local_distance(self, trajectory: Trajectory, d_l: float, certainty: float) -> float | None:
        """Euclidean distance from ``(d_l, certainty)`` to the nearest (D_l, C)
        pair of a member other than ``trajectory`` itself; ``None`` when there
        is no other member.

        When a member other than ``trajectory`` holds the pair itself, the
        answer is ``0.0`` from one lookup, which is what the scan over
        distinct pairs gives: that pair's term is ``math.hypot(0.0, 0.0)``,
        ``0.0``, and no term is negative.
        """
        profiles = self._profiles
        entries = self._entries_of.get(id(trajectory))
        if entries:  # a member's own pair counts only while another member holds it too
            profiles = dict(profiles)
            for e in entries:
                profiles[e.local_diversity, e.certainty] -= 1
            profiles = {pair: count for pair, count in profiles.items() if count}
        if (d_l, certainty) in profiles:
            return 0.0
        # math.hypot per pair, not np.hypot: the two differ in the last bit on
        # some inputs, and stored scores must not move
        return min((math.hypot(d_l - other_d_l, certainty - c) for other_d_l, c in profiles),
                   default=None)

    def add(self, trajectory: Trajectory, local_diversity: float, certainty: float) -> None:
        if self._entries:  # a lone member's positions are not read until a pass needs them
            if self._axes is None:
                self._axes = next(iter(self)).trajectory.points.shape[1]
            if trajectory.points.shape[1] != self._axes:
                raise ContractViolationError("members must share one position dimensionality")
        entry = DemoEntry(trajectory, float(local_diversity), float(certainty))
        self._entries[id(entry)] = entry
        self._entries_of.setdefault(id(trajectory), []).append(entry)
        pair = (entry.local_diversity, entry.certainty)
        self._profiles[pair] = self._profiles.get(pair, 0) + 1

    def discard(self, trajectory: Trajectory) -> None:
        # identity-based: value-equal duplicates from other individuals survive
        entries = self._entries_of.get(id(trajectory))
        if entries is None:
            raise ContractViolationError("trajectory is not a member of this demonstration set")
        entry = entries.pop(0)
        if not entries:
            del self._entries_of[id(trajectory)]
        del self._entries[id(entry)]
        if not self._entries:
            self._axes = None
        pair = (entry.local_diversity, entry.certainty)
        self._profiles[pair] -= 1
        if not self._profiles[pair]:
            del self._profiles[pair]

    def nearest_distances(
        self,
        trajectories: Sequence[Trajectory],
        table: RolloutTable | None = None,
        env_spec: EnvSpec | None = None,
        floor: float | None = None,
    ) -> list[float]:
        """One-way distance from each trajectory to its nearest other demonstration.

        Trajectory ``k`` is compared with every member and every one of
        ``trajectories[:k]`` but itself (by identity), as though each joined
        the set right after it was scored; ``inf`` when there is nothing to
        compare with.  A value-equal copy of any of those is at distance 0,
        worked out like any other.  The members' blocks fill the first slots
        of one store built for the call, in insertion order, and the batch's
        follow; each row is paired with every slot before its own that belongs
        to another object, and the kernel works out those pairs only, in
        chunks of at most ``MAX_PAIR_ELEMENTS`` point pairs.

        Given a ``floor``, which needs the ``env_spec`` that scores the batch
        (``ContractViolationError`` without it), a row that is neither a
        member nor a repeat of an earlier row (a member would be its own
        partner) is first paired, in the same store, with its partner: the
        member whose first and last positions lie nearest, the oldest on a
        tie.  Its score at that distance, with the profile term over the
        members as they stand, bounds its exact score from above, since the
        rows before it can only lower the profile term.  A row whose bound is
        at most ``floor`` gets its partner's distance; the others go through
        the exact pass.

        ``table`` is the spec's ``rollout_table`` for the policy that rolled
        the trajectories out, if it has one.  When every member and every
        trajectory has a cell in it, each distance is read from the table
        instead, with no bound, after the pairs it lacks are worked out from
        the call's own store, once each, and stored in it.
        """
        if floor is not None and env_spec is None:
            raise ContractViolationError("a floor needs the env_spec that scores the batch")
        members = len(self._entries)
        at = members + np.arange(len(trajectories))  # each row's slot, after the members'
        if not at.any():  # no row, or the first one ever scored, with nothing to compare with
            return [math.inf] * len(at)
        visible = np.arange(at[-1]) < at[:, None]
        ids = list(map(id, trajectories))
        everyone = self.trajectories() + tuple(trajectories)  # each slot's trajectory
        if len(set(ids)) < len(ids) or not self._entries_of.keys().isdisjoint(ids):
            for row, slot in enumerate(at.tolist()):  # a row sees no slot of its own object
                visible[row, [k for k in range(slot) if everyone[k] is everyone[slot]]] = False
        cells = list(map(table.cell, everyone)) if table else [None]
        if None not in cells:
            return _table_distances(table, everyone, np.array(cells), visible).min(axis=1).tolist()
        blocks = _Blocks(everyone)
        distances = np.full(visible.shape, math.inf)
        if floor is not None and members:
            # the rows that see every slot before their own: neither a member nor a repeat
            bounded = np.flatnonzero(visible.sum(axis=1) == at)
            slots = np.arange(len(blocks.counts))
            # each slot's first and last positions, side by side
            last = blocks.points[:, blocks.rows[blocks.lengths - 1, slots], slots]
            ends = np.concatenate((blocks.points[:, 0], last))
            offsets = ends[:, at[bounded], None] - ends[:, None, :members]
            partners = np.einsum("krm,krm->rm", offsets, offsets).argmin(axis=1)
            bounds = blocks.one_way(at[bounded], partners)
            profiles = [self.local_distance(t, local_diversity(t, env_spec), trajectory_certainty(t))
                        for t in map(trajectories.__getitem__, bounded.tolist())]
            # one mask: a pruned row sees its partner only, at its bound distance
            pruned = bounds / env_spec.max_state_distance + np.array(profiles) <= floor
            visible[bounded[pruned]] = False
            distances[bounded[pruned], partners[pruned]] = bounds[pruned]
        asked, slots = np.nonzero(visible)
        distances[asked, slots] = blocks.one_way(at[asked], slots)
        return distances.min(axis=1).tolist()


class _Blocks:
    """Position blocks padded to one width, one slot each, for ``one_way``.

    Slot ``k`` holds a block of ``lengths[k]`` points, of which ``points``
    (axes, width, slots) stores ``counts[k]``, padded by repeating the last;
    ``rows`` (width, slots) gives each point's row among them.  A block of
    more than ``SHORT_BLOCK`` and at most 128 points is stored as its distinct
    points (a looping grid path has few).  The store holds exactly the slots
    of the trajectories it was built from, in order, and never grows: each
    distance read builds its own.
    """

    def __init__(self, trajectories: Sequence[Trajectory]) -> None:
        blocks = [trajectory.points for trajectory in trajectories]
        lengths = np.fromiter(map(len, blocks), np.intp, len(blocks))
        rows = np.minimum(np.arange(lengths.max())[:, None], lengths - 1)
        self.distinct = False  # some block was stored as its distinct points
        for k in np.flatnonzero((SHORT_BLOCK < lengths) & (lengths <= 128)).tolist():
            blocks[k], rows[: lengths[k], k] = trajectories[k].distinct_points
            rows[lengths[k]:, k] = rows[lengths[k] - 1, k]
            self.distinct = True
        if len({points.shape[1] for points in blocks}) > 1:
            raise ContractViolationError("demonstrations must share one position dimensionality")
        counts = np.fromiter(map(len, blocks), np.intp, len(blocks))
        # each block's stored points, then its last again up to the width
        at = np.cumsum(counts) - counts + np.minimum(np.arange(counts.max())[:, None], counts - 1)
        self.points = np.concatenate(blocks)[at].transpose(2, 0, 1)
        self.rows, self.counts, self.lengths = rows, counts, lengths

    def one_way(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The one-way distance of the blocks of slots ``left[k]`` and
        ``right[k]``, for each ``k``.

        Stored blocks of up to ``SHORT_BLOCK`` points are one size, and each
        longer count its own.  A pair is turned smaller block first (the
        distance is symmetric bit for bit) and worked out with the pairs of
        its sizes, in chunks of at most ``MAX_PAIR_ELEMENTS`` point pairs,
        each side padded to its longest stored block.
        """
        counts, lengths = self.counts, self.lengths
        distances = np.empty(len(left))
        if not len(left):
            return distances
        if counts.max() <= SHORT_BLOCK:  # one size, as on reach and most grid calls
            groups = [(None, left, right)]
        else:
            sizes = np.where(counts <= SHORT_BLOCK, SHORT_BLOCK, counts)
            turned = sizes[left] > sizes[right]
            left, right = np.where(turned, right, left), np.where(turned, left, right)
            keys = sizes[left] * (int(sizes.max()) + 1) + sizes[right]
            groups = [(pairs, left[pairs], right[pairs])
                      for pairs in (np.flatnonzero(keys == key) for key in sorted(set(keys.tolist())))]
        for pairs, u_slots, v_slots in groups:
            u_width = int(counts[u_slots].max())
            v_width = int(counts[v_slots].max())
            step = max(1, MAX_PAIR_ELEMENTS // (u_width * v_width))
            for begin in range(0, len(u_slots), step):
                u = u_slots[begin : begin + step]
                v = v_slots[begin : begin + step]
                minima = _chunk_minima(self.points[:, :u_width].take(u, axis=2),
                                       self.points[:, :v_width].take(v, axis=2))
                if self.distinct:
                    minima = [np.take_along_axis(side, self.rows[: lengths[slots].max(), slots], 0)
                              for side, slots in zip(minima, (u, v))]
                # both sides' minima side by side, as columns of one pass
                values = np.zeros((max(map(len, minima)), 2 * len(u)))
                values[: len(minima[0]), : len(u)] = minima[0]
                values[: len(minima[1]), len(u) :] = minima[1]
                sums = _ordered_sums(values, np.concatenate((lengths[u], lengths[v])))
                at = slice(begin, begin + step) if pairs is None else pairs[begin : begin + step]
                distances[at] = (sums[: len(u)] + sums[len(u) :]) / (lengths[u] + lengths[v])
        return distances


def local_diversity(trajectory: Trajectory, env_spec: EnvSpec) -> float:
    """Fraction of the state space one trajectory covers on its own."""
    count = env_spec.state_count
    if count is None:
        return trajectory.final_length / (trajectory.raw_length + 1)
    return len(trajectory.distinct_points[0]) / count


def trajectory_certainty(trajectory: Trajectory) -> float:
    """Mean policy commitment over every executed step, collapsed or not."""
    return trajectory.mean_certainty


def joint_fitness(
    trajectory: Trajectory,
    demos: DemonstrationSet,
    env_spec: EnvSpec,
    nearest_distance: float | None = None,
) -> FitnessComponents:
    """Full scoring of one trajectory against the current demonstration set.

    ``nearest_distance`` is its entry of ``demos.nearest_distances`` for a
    batch scored in order; left out, it is worked out for a batch of one.
    """
    d_l = local_diversity(trajectory, env_spec)
    certainty = trajectory_certainty(trajectory)
    local_distance = demos.local_distance(trajectory, d_l, certainty)
    if local_distance is None:
        return empty_set_components(d_l, certainty)
    if nearest_distance is None:
        (nearest_distance,) = demos.nearest_distances([trajectory])
    d_g = float(nearest_distance) / env_spec.max_state_distance
    return FitnessComponents(
        local_diversity=d_l,
        certainty=certainty,
        global_diversity=d_g,
        local_distance=local_distance,
        joint=d_g + local_distance,
    )


def _table_distances(
    table: RolloutTable, everyone: Sequence[Trajectory], cells: np.ndarray, visible: np.ndarray
) -> np.ndarray:
    """The one-way distance of each asked row to each slot it sees, ``inf``
    where it sees none, read from ``table``.

    ``everyone`` holds every slot's trajectory, the rows' last, and ``cells``
    each slot's cell; ``visible`` is (rows, slots).  A pair is keyed by its
    unordered cells, and each pair the table lacks is worked out once, from
    one row and slot that pair it (any gives the same bits: every trajectory
    from one cell shares its ``points``), by one ``_Blocks.one_way`` call over
    a store of ``everyone`` built for the read, and stored.
    """
    first = len(everyone) - len(visible)  # the first row's slot
    rows = cells[first:, None]
    columns = cells[: visible.shape[1]]
    low = np.minimum(rows, columns)
    # one key per unordered pair: the one-way distance is symmetric bit for bit,
    # as the sum of the same two block sums
    keys = low * table.size + (rows + columns - low)
    distances = np.full(visible.shape, math.inf)
    distances[visible] = list(map(table.distances.get, keys[visible].tolist()))  # None is NaN
    lacking = np.isnan(distances)
    if lacking.any():
        lacking_keys = keys[lacking].tolist()
        picks = dict(zip(lacking_keys, range(len(lacking_keys))))  # each key's last lacking entry
        asked, slots = (side[list(picks.values())] for side in np.nonzero(lacking))
        found = _Blocks(everyone).one_way(first + asked, slots).tolist()
        table.distances.update(zip(picks, found))
        distances[lacking] = list(map(table.distances.__getitem__, lacking_keys))
    return distances


def _chunk_minima(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each pair of padded blocks ``u[:, :, k]`` and ``v[:, :, k]``
    (axes, width, pairs), each point's distance to the nearest point of the
    other block: (u width, pairs) and (v width, pairs)."""
    # squared distances summed over axes left to right, (dx² + dy²) + dz², the
    # order of (diff * diff).sum(axis=2) in tests/pairwise.py, in place
    squares = u[0][:, None] - v[0][None]
    squares *= squares
    axis_sq = np.empty_like(squares)
    for axis in range(1, len(u)):
        np.subtract(u[axis][:, None], v[axis][None], out=axis_sq)
        axis_sq *= axis_sq
        squares += axis_sq
    # minima are exact in any order, and a correctly rounded square root keeps
    # the order of its arguments, so the root of the least square is the least
    return np.sqrt(squares.min(axis=1)), np.sqrt(squares.min(axis=0))


def _ordered_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The sum of the first ``lengths[k]`` values of each column ``k`` of
    ``values`` (width, columns), in the one order every distance sum runs
    in: numpy's pairwise summation of ``n`` float64 values in a row.

    * Fewer than 8 values are added left to right.
    * 8 to 128 values go to eight lanes, lane ``j`` adding values ``j``,
      ``j + 8``, ... left to right over the first ``n - n % 8``; the lanes
      are added as ``((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))``,
      and the ``n % 8`` left over are added to that, left to right.
    * More than 128 values are split after the first ``n // 2`` rounded down
      to a multiple of 8, and the two parts' sums are added.

    numpy starts from +0.0, which leaves a non-negative sum as it is.
    Finite values past a column's length count for nothing.
    """
    width, columns = values.shape
    if width > 128 and (lengths != width).any():  # a pass per length above 128, one for the rest
        sums = np.empty(columns)
        keys = np.where(lengths > 128, lengths, 0)
        for key in set(keys.tolist()):
            at = np.flatnonzero(keys == key)
            sums[at] = _ordered_sums(values[: key or 128, at], lengths[at])
        return sums
    if width > 128:
        half = width // 2 - width // 2 % 8
        return (_ordered_sums(values[:half], np.full_like(lengths, half))
                + _ordered_sums(values[half:], lengths - half))
    at = np.arange(width)[:, None]
    if width < 8:
        total, *rest = values * (at < lengths)
    else:  # lane j adds values j, j + 8, ... of each column's first n - n % 8
        laned = lengths - lengths % 8
        lanes = np.zeros((8, columns))
        for start in range(0, width - width % 8, 8):
            lanes += values[start : start + 8] * (start < laned)
        lanes = lanes[0::2] + lanes[1::2]  # l0 + l1, l2 + l3, l4 + l5, l6 + l7
        lanes = lanes[0::2] + lanes[1::2]
        after = laned + at[:7]  # each column's up to 7 values after the lanes
        total = lanes[0] + lanes[1]
        rest = values[np.minimum(after, width - 1), range(columns)]
        rest *= after < lengths
    for row in rest:  # added one after another; a zero leaves a non-negative sum as it is
        total = total + row
    return total
