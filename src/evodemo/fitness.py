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
certainty) pair; scoring a candidate never re-derives members.
The set counts its members per distinct profile, so the profile term
(``DemonstrationSet.local_distance``, shared by ``joint_fitness`` and
``joint_bounds``) is a minimum over distinct pairs, or one lookup when
another member holds the candidate's own pair, as it does for most
candidates; the term is then exactly 0.  The set keeps no index of
trajectories by value: a value-equal copy of a member is at distance
exactly 0 because every point-to-point distance between equal positions is
0, so it scores 0 on both context terms.  The search never sends such a
copy to the distance pass; it sets the copy's distance to 0 itself
(``evolution.evaluate_offspring``).

``DemonstrationSet.nearest_distances`` finds the nearest one-way distance
for a whole batch of trajectories at once, each against the set as it will
stand when that trajectory is scored; ``joint_fitness`` takes its answer or,
called alone, asks it for a batch of one.  Asked for some rows only, the
pass works out just those, each still against every column before it.
``DemonstrationSet.joint_bounds`` gives the search a cheap upper bound on
each joint score of a batch: the one-way distance to a single member,
bit for bit the entry the pass would give that pair (``_paired_one_way``),
and the profile term over the members as they stand.  ``joint_fitness`` at
that distance scores no higher than the bound, which is what lets the search
skip the exact pass for offspring that cannot survive.

On a grid a rollout depends only on the policy and the start cell, so the
search also passes the spec's ``rollout_table`` for the policy.  When every
member and every trajectory of the batch shares that table's tuples, the
pass reads each pair's distance from the table, working out only the pairs
it lacks with the same kernel and storing them there.  A table entry is
therefore the distance the kernel gives, and a search scores the same
whatever the table held before it.  ``ReachSpec`` answers no table.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .environments import EnvSpec, RolloutTable, Trajectory
from .errors import ContractViolationError

EMPTY_SET_GLOBAL_DIVERSITY = 1.0
EMPTY_SET_LOCAL_DISTANCE = math.sqrt(2.0)
# cap on the elements of one rows-by-columns distance matrix (512 KiB of
# float64, and the kernel holds two at once); a chunk holds at least one
# trajectory's rows, however long
MAX_MATRIX_ELEMENTS = 2**16
# numpy sums up to this many values strictly left to right; from 8 on its
# pairwise summation adds them in another order
SEQUENTIAL_SUM_MAX = 7


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
    local_diversity: float
    certainty: float


class DemonstrationSet:
    """Alive demonstrations with cached (D_l, C) profiles.

    Members are kept in insertion order, keyed by identity; each member's
    position array (``Trajectory.points``) is one column block of the
    distance matrix ``nearest_distances`` builds, even where members are
    value-equal.
    """

    def __init__(self) -> None:
        self._entries: dict[int, DemoEntry] = {}  # by id(entry), in insertion order
        self._entries_of: dict[int, list[DemoEntry]] = {}  # by id(trajectory), oldest first
        self._profiles: dict[tuple[float, float], int] = {}  # members per distinct pair

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
        own: dict[tuple[float, float], int] = {}  # its entries per pair, if a member
        for e in self._entries_of.get(id(trajectory), ()):
            pair = (e.local_diversity, e.certainty)
            own[pair] = own.get(pair, 0) + 1
        pair = (d_l, certainty)
        if self._profiles.get(pair, 0) > own.get(pair, 0):
            return 0.0
        # math.hypot per pair, not np.hypot: the two differ in the last bit on
        # some inputs, and stored scores must not move; an own pair stays
        # while another member holds it too
        return min(
            (math.hypot(d_l - other_d_l, certainty - c)
             for (other_d_l, c), count in self._profiles.items()
             if count > own.get((other_d_l, c), 0)),
            default=None,
        )

    def add(self, trajectory: Trajectory, local_diversity: float, certainty: float) -> None:
        if self._entries and (
            trajectory.points.shape[1] != next(iter(self)).trajectory.points.shape[1]
        ):
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
        pair = (entry.local_diversity, entry.certainty)
        self._profiles[pair] -= 1
        if not self._profiles[pair]:
            del self._profiles[pair]

    def joint_bounds(
        self, trajectories: Sequence[Trajectory], partners: Sequence[Trajectory], env_spec: EnvSpec
    ) -> list[tuple[float, float]]:
        """An upper bound on each trajectory's joint score in a batch scored in
        order, as ``(distance, joint)``: the score at ``distance``.

        ``partners[k]`` is a member; the distance is the one-way distance
        from trajectory ``k`` to it, bit for bit the entry of that pair in
        ``nearest_distances``, so never below the nearest distance.  The
        profile term is ``local_distance`` over the members as they stand,
        and the batch's earlier trajectories, joining the set before
        trajectory ``k`` is scored, can only lower it.  So ``joint_fitness``
        at ``distance`` scores no higher than the bound, and at the nearest
        distance no higher than that.
        """
        distances = _paired_one_way(
            [trajectory.points for trajectory in trajectories],
            [partner.points for partner in partners],
        )
        bounds = []
        for trajectory, distance in zip(trajectories, distances):
            d_l, certainty = local_diversity(trajectory, env_spec), trajectory_certainty(trajectory)
            profile = self.local_distance(trajectory, d_l, certainty)
            bounds.append((distance, distance / env_spec.max_state_distance + profile))
        return bounds

    def nearest_distances(
        self,
        trajectories: Sequence[Trajectory],
        table: RolloutTable | None = None,
        rows: Sequence[int] | None = None,
    ) -> list[float]:
        """One-way distance from each trajectory to its nearest other demonstration.

        Trajectory ``k`` is compared with every member and every one of
        ``trajectories[:k]`` but itself (by identity), as though each joined
        the set right after it was scored; ``inf`` when there is nothing to
        compare with.  ``rows``, increasing indices into ``trajectories``,
        asks for those trajectories' distances only, each still against
        everything before it; left out, it asks for all.  A value-equal copy
        of any of those is at distance 0, worked out like any other.  The
        column blocks are the members' position arrays in insertion order,
        then the batch's; each asked trajectory is a row block of one
        distance matrix, masked to the column blocks before its own that
        belong to other objects.  The rows are split into consecutive chunks
        whose matrix holds at most ``MAX_MATRIX_ELEMENTS`` elements.

        ``table`` is the spec's ``rollout_table`` for the policy that rolled
        the trajectories out, if it has one.  When every member and every
        trajectory has a cell in it, each distance is read from the table
        instead, after the pairs it lacks are worked out in one such pass
        and stored in it.
        """
        if rows is None:
            rows = range(len(trajectories))
        if not rows:
            return []
        # each block's owner, the members in insertion order and then the batch
        everyone = [e.trajectory for e in self._entries.values()] + list(trajectories)
        at = len(self._entries) + np.asarray(rows)  # each asked row's block
        # owners by id, which is identity while the members and the batch are alive
        owners = np.array(list(map(id, everyone)), dtype=np.uint64)
        # a row sees no block from its own on, and no block of its own object
        hidden = np.arange(len(owners)) >= at[:, None]
        hidden |= owners == owners[at, None]
        if table is not None:
            cells = list(map(table.cell, everyone))
            if None not in cells:
                distances = _table_distances(
                    table, np.array(cells), at, ~hidden, lambda block: everyone[block].points
                )
                return distances.min(axis=1).tolist()
        blocks = [trajectory.points for trajectory in everyone[: at[-1] + 1]]
        if len({points.shape[1] for points in blocks}) > 1:
            raise ContractViolationError("demonstrations must share one position dimensionality")
        # only the first trajectory ever scored sits at block 0, with nothing
        # to compare with
        skip = int(at[0] == 0)
        nearest = [math.inf] * skip
        sees = at[skip:].tolist()
        if not sees:
            return nearest
        row_blocks = [blocks[block] for block in sees]
        for begin, end, chunk in _one_way_chunks(row_blocks, blocks[: sees[-1]], sees):
            chunk[hidden[skip + begin : skip + end, : chunk.shape[1]]] = math.inf
            nearest += chunk.min(axis=1).tolist()
        return nearest


def local_diversity(trajectory: Trajectory, env_spec: EnvSpec) -> float:
    """Fraction of the state space one trajectory covers on its own."""
    count = env_spec.state_count
    if count is None:
        return trajectory.final_length / (trajectory.raw_length + 1)
    return len(set(trajectory.states)) / count


def trajectory_certainty(trajectory: Trajectory) -> float:
    """Mean policy commitment over every executed step, collapsed or not."""
    if not trajectory.certainties:
        raise ContractViolationError("trajectory has no executed actions")
    return sum(trajectory.certainties) / len(trajectory.certainties)


def joint_fitness(
    trajectory: Trajectory,
    demos: DemonstrationSet,
    env_spec: EnvSpec,
    nearest_distance: float | None = None,
) -> FitnessComponents:
    """Full scoring of one trajectory against the current demonstration set.

    ``nearest_distance`` is the trajectory's entry of
    ``demos.nearest_distances`` for a batch scored in order; left out, it is
    computed here for a batch of one.
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
    table: RolloutTable,
    cells: np.ndarray,
    at: np.ndarray,
    visible: np.ndarray,
    points: Callable[[int], np.ndarray],
) -> np.ndarray:
    """The one-way distance of each batch row to each block it sees, ``inf``
    where it sees none, read from ``table``.

    ``cells`` holds every block's cell, ``at`` each row's own block, in
    increasing order, ``visible`` is (rows, blocks), and ``points(block)``
    is a block's position array.
    The pairs the table lacks are worked out in one ``_one_way_chunks`` pass
    and stored: its rows are the batch rows that lack a pair, in order, and
    its columns the cells they lack, in the order of their first block.
    Every block a row sees comes before it, so each row needs only a prefix
    of the columns.
    """
    rows = cells[at, None]
    low = np.minimum(rows, cells)
    # one key per unordered pair: the one-way distance is symmetric bit for bit,
    # as the sum of the same two block sums
    keys = low * table.size + (rows + cells - low)
    distances = np.full(visible.shape, math.inf)
    distances[visible] = list(map(table.distances.get, keys[visible].tolist()))  # None is NaN
    lacking = np.isnan(distances)
    if not lacking.any():
        return distances
    pass_rows = np.flatnonzero(lacking.any(axis=1)).tolist()
    cell_list = cells.tolist()
    column_of: dict[int, int] = {}
    firsts = []  # each column's first block
    for block in np.flatnonzero(lacking.any(axis=0)).tolist():
        if cell_list[block] not in column_of:
            column_of[cell_list[block]] = len(firsts)
            firsts.append(block)
    # by batch row and column; NaN outside the rows and prefixes the pass works out
    matrix = np.full((len(visible), len(firsts)), math.nan)
    blocks = at[pass_rows].tolist()
    for begin, end, chunk in _one_way_chunks(
        list(map(points, blocks)),
        list(map(points, firsts)),
        [bisect.bisect_left(firsts, block) for block in blocks],
    ):
        matrix[pass_rows[begin:end], : chunk.shape[1]] = chunk
    found = matrix[:, [column_of.get(cell, 0) for cell in cell_list]][lacking]
    table.distances.update(zip(keys[lacking].tolist(), found.tolist()))
    distances[lacking] = found
    return distances


def _paired_one_way(rows: Sequence[np.ndarray], columns: Sequence[np.ndarray]) -> list[float]:
    """The one-way distance of each pair of blocks ``rows[k]``, ``columns[k]``,
    bit for bit the entry ``_one_way_matrix`` gives that pair.

    Pairs whose blocks both hold at most ``SEQUENTIAL_SUM_MAX`` points are
    worked out together, pair by pair along the last axis.  Each block is
    padded to the longest by repeating its last point, which moves no
    minimum; the padded minima are zeroed, and each sum runs left to right
    by ``np.cumsum``, the order numpy sums so few values in, since adding
    +0.0 to a sum of non-negative distances leaves its bits.  Any other pair
    gets its own ``_one_way_matrix``.
    """
    distances = [0.0] * len(rows)
    short = []
    for k, (u, v) in enumerate(zip(rows, columns)):
        if max(len(u), len(v)) <= SEQUENTIAL_SUM_MAX:
            short.append(k)
        else:
            distances[k] = float(_one_way_matrix(u, np.array([len(u)]), v.T, np.array([len(v)]))[0, 0])
    if not short:
        return distances
    u, u_lengths = _padded([rows[k] for k in short])
    v, v_lengths = _padded([columns[k] for k in short])
    # (axes, row points, column points, pairs); the squares are summed over
    # the axes left to right, as _one_way_matrix sums them
    squares = u[:, :, None] - v[:, None]
    squares *= squares
    dist = squares[0]
    for axis_sq in squares[1:]:
        dist += axis_sq
    np.sqrt(dist, out=dist)
    row_minima = dist.min(axis=1)
    column_minima = dist.min(axis=0)
    row_minima[np.arange(len(row_minima))[:, None] >= u_lengths] = 0.0
    column_minima[np.arange(len(column_minima))[:, None] >= v_lengths] = 0.0
    sums = np.cumsum(row_minima, axis=0)[-1] + np.cumsum(column_minima, axis=0)[-1]
    for k, distance in zip(short, (sums / (u_lengths + v_lengths)).tolist()):
        distances[k] = distance
    return distances


def _padded(blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``blocks`` as one (axes, longest, blocks) array, each padded by
    repeating its last point, and their lengths."""
    lengths = np.fromiter(map(len, blocks), int, len(blocks))
    at = np.cumsum(lengths) - lengths + np.minimum(np.arange(lengths.max())[:, None], lengths - 1)
    return np.concatenate(blocks).T[:, at], lengths


def _one_way_chunks(
    rows: Sequence[np.ndarray], columns: Sequence[np.ndarray], sees: Sequence[int]
) -> Iterator[tuple[int, int, np.ndarray]]:
    """One-way distances of the row blocks ``rows`` to the column blocks
    ``columns``, by ``_one_way_matrix`` over consecutive chunks of rows.

    Row block ``k`` needs the first ``sees[k]`` column blocks: at least one,
    and no fewer than the row block before it.  Each chunk yields
    ``(begin, end, distances)`` for ``rows[begin:end]`` against the first
    ``sees[end - 1]`` column blocks.  Row blocks join a chunk while its
    matrix holds at most ``MAX_MATRIX_ELEMENTS`` elements; a chunk holds at
    least one, however long.
    """
    row_lengths = np.array([len(points) for points in rows])
    column_lengths = np.array([len(points) for points in columns])
    column_ends = np.concatenate([[0], np.cumsum(column_lengths)])  # columns of the first v blocks
    stacked = np.ascontiguousarray(np.concatenate(columns).T)
    begin = 0
    while begin < len(rows):
        end, height = begin + 1, row_lengths[begin]
        while end < len(rows):
            height += row_lengths[end]
            if height * column_ends[sees[end]] > MAX_MATRIX_ELEMENTS:
                break
            end += 1
        visible = sees[end - 1]
        yield begin, end, _one_way_matrix(
            np.concatenate(rows[begin:end]),
            row_lengths[begin:end],
            stacked[:, : column_ends[visible]],
            column_lengths[:visible],
        )
        begin = end


def _one_way_matrix(
    rows: np.ndarray, row_lengths: np.ndarray, columns: np.ndarray, column_lengths: np.ndarray
) -> np.ndarray:
    """One-way distances between the row blocks of ``rows`` (R, dims) and the
    column blocks of ``columns`` (dims, C), as a (row blocks, column blocks) array.

    Each entry is bit-identical to giving its two blocks their own distance
    matrix reduced in numpy's default order, as ``tests/pairwise.py`` does;
    the comments give the order each step keeps.
    """
    # squared distances summed over axes left to right, (dx² + dy²) + dz², the
    # order of (diff * diff).sum(axis=2); per-axis (R, C) arrays updated in
    # place keep the peak memory at two such matrices
    dist = np.subtract.outer(rows[:, 0], columns[0])
    dist *= dist
    if len(columns) > 1:
        axis_sq = np.empty_like(dist)
        for axis in range(1, len(columns)):
            np.subtract.outer(rows[:, axis], columns[axis], out=axis_sq)
            axis_sq *= axis_sq
            dist += axis_sq
        del axis_sq  # freed before the reductions below allocate theirs
    np.sqrt(dist, out=dist)
    row_starts = np.cumsum(row_lengths) - row_lengths
    column_starts = np.cumsum(column_lengths) - column_lengths
    # minima are exact in any order, so each is taken the way numpy runs it
    # fastest on the row-major dist: each row's minimum within each column
    # block, (column blocks, R), in one reduceat along the rows, and each
    # column's minimum within each row block, (row blocks, C), one row block
    # at a time, since a reduceat across rows walks column by column
    row_minima = np.minimum.reduceat(dist.T, column_starts, axis=0)
    column_minima = np.empty((len(row_lengths), dist.shape[1]))
    for block, (start, length) in enumerate(zip(row_starts.tolist(), row_lengths.tolist())):
        dist[start : start + length].min(axis=0, out=column_minima[block])
    row_sums = _block_sums(row_minima, row_starts, row_lengths).T
    column_sums = _block_sums(column_minima, column_starts, column_lengths)
    return (row_sums + column_sums) / np.add.outer(row_lengths, column_lengths)


def _block_sums(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum of each block ``values[:, start : start + length]``, one column per block.

    Each block of each row of a C-contiguous array is one contiguous run,
    the layout a one-block ``ndarray.sum()`` reduces, so every sum is
    bit-identical to it; ``np.add.reduceat`` sums in another order.
    """
    values = np.ascontiguousarray(values)
    sums = np.empty((len(values), len(starts)))
    for block, (start, length) in enumerate(zip(starts.tolist(), lengths.tolist())):
        sums[:, block] = values[:, start : start + length].sum(axis=1)
    return sums
