"""Deterministic evaluation environments.

Two families are provided:

* rectangular gridworlds read from plain-text layout files, with a reward for
  reaching the single target cell, a penalty for falling into a hole, and a
  per-step cost;
* a kinematic point-reach task where an effector moves inside a bounded box
  toward a per-episode target position.

Layout file format (one character per cell): ``#`` wall, ``.`` floor,
``O`` hole, ``T`` target.  Layouts must be rectangular, have walls along the
whole perimeter, and contain exactly one target.  The canonical start cell of
a layout (used for policy training) is its first floor cell in row-major
order.

Both environments are strictly deterministic: a state and an action fully
determine the successor and the reward.

Each spec class is the one place that answers questions about its
environment, so the search, scoring, export and CLI code never switch on the
spec type: ``rollouts``, ``validate_initial``, ``max_state_distance``,
``state_count``, ``grid_shape``, ``encoding_spec``, ``starts_from_vectors``,
``start_state``, ``search_defaults``, ``policy_kind``, ``check_policy`` and
``rollout_table``.
A start is named by its ``key``, the decoded genome vector: ``(row, col)``,
or the effector's coordinates then the target's.  ``starts_from_vectors``
answers each valid decoded vector as its key, ``start_state(key)`` makes the
state a key names, and ``rollouts(policy, starts)``, the only way an episode
is produced, takes keys: it checks that the policy fits (``check_policy``)
and that ``validate_initial`` accepts every start, then records the fixed
policy's episode from each as a ``Trajectory``.  A ``GridSpec`` also
answers, built once per layout and indexed by cell ``row * width + col``:
``transitions``, the dynamics that ``rollouts`` and the Q-learning trainer
walk, and ``positions``, the coordinates ``rollouts`` records for each cell.
A grid rollout walks ``transitions`` side by side with the tabular policy's
``decisions``, which use the same indexing.  Its ``startable`` set of keys
is what ``starts_from_vectors`` and ``rollouts`` check starts by.

Every trajectory carries its positions as an array, ``Trajectory.points``,
which is what the search reads.  A grid builds it, with the distinct points
and the mean certainty that scoring reads, once per walked cell, and the
copies ``rollouts`` returns share them.  A reach trajectory builds its
per-step records from its batch when they are first read (``Trajectory``),
so the search, which reads positions, certainties and step counts only,
never builds those of the many offspring it drops.  That laziness lives in
this module alone: no other module makes a ``Trajectory`` field by field or
reads its instance dict.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .encoding import CONTINUOUS, DISCRETE, EncodingSpec
from .errors import (
    ConfigurationError, ContractViolationError, is_finite_number, is_int,
)

WALL = "#"
FLOOR = "."
HOLE = "O"
TARGET = "T"
_CELL_CHARS = frozenset((WALL, FLOOR, HOLE, TARGET))
_BLOCKED_CELLS = {WALL: "wall cell", HOLE: "hole cell", TARGET: "target cell"}

# action order is also the tie-break order for greedy policies
ACTION_NAMES = ("up", "right", "down", "left")
ACTION_DELTAS = ((-1, 0), (0, 1), (1, 0), (0, -1))
N_ACTIONS = len(ACTION_NAMES)

OUTCOME_REACHED = "reached_target"
OUTCOME_FAILED = "failed"
OUTCOME_TRUNCATED = "truncated"
OUTCOMES = (OUTCOME_REACHED, OUTCOME_FAILED, OUTCOME_TRUNCATED)

# the kind of policy each environment runs, as policy files name it
KIND_TABULAR = "tabular"
KIND_CONTROLLER = "gaussian_controller"


@dataclass(frozen=True)
class GridState:
    row: int
    col: int

    def __post_init__(self) -> None:  # the decoded vector naming this start, a plain tuple
        object.__setattr__(self, "key", (self.row, self.col))


@dataclass(frozen=True)
class ReachState:
    effector: tuple[float, float, float]
    target: tuple[float, float, float]

    def __post_init__(self) -> None:  # the decoded vector naming this start, a plain tuple
        object.__setattr__(self, "key", tuple(self.effector) + tuple(self.target))


# the per-step records a reach batch builds only for a trajectory someone reads
_RECORDS = frozenset(("states", "actions", "rewards", "episode_return"))


@dataclass(frozen=True)
class Trajectory:
    """One deterministic policy demonstration.

    A trajectory keeps two views of the episode.  ``states`` holds the visited
    positions with consecutive duplicates collapsed (a grid agent bumping into a
    wall does not stretch its path), while ``actions``, ``rewards``, and
    ``certainties`` keep one entry per executed step.  Return and mean certainty
    therefore still account for steps whose states were collapsed.

    ``points`` is ``states`` as a read-only float array, the form the search
    reads positions in; it is built on first read, or up front by the spec
    that rolled the episode out, and so are ``distinct_points`` and
    ``mean_certainty``, which scoring reads; a ``copy`` made after shares
    them.  A trajectory from ``ReachSpec.rollouts`` starts out as that
    array, its actions and its target: ``states``,
    ``actions``, ``rewards`` and ``episode_return`` are built from them the
    first time one of them is read, once, with the values an eager
    construction gives.  Equality, hashing, ``repr``,
    ``dataclasses.replace`` and pickling read the fields, and ``copy``
    shares the row, so a lazy trajectory behaves as an eager one with the
    same values; a pickle holds the field values only.
    """

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

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: the records of a
        # reach trajectory nobody has read yet, built by its batch
        source = self.__dict__.get("_source") if name in _RECORDS else None
        if source is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        batch, row = source
        self.__dict__.update(batch.records(row))
        del self.__dict__["_source"]  # the batch is no longer needed for this one
        return self.__dict__[name]

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in _FIELDS}

    @cached_property
    def points(self) -> np.ndarray:
        """``states`` as a read-only ``(final_length, dims)`` float array."""
        points = np.array(self.states, dtype=float)
        points.flags.writeable = False
        return points

    @cached_property
    def distinct_points(self) -> tuple[np.ndarray, np.ndarray]:
        """``points`` without repeats, in order of first visit, and each point's row there."""
        rows: dict[tuple[float, ...], int] = {}
        inverse = [rows.setdefault(point, len(rows)) for point in map(tuple, self.points.tolist())]
        return np.array(list(rows)), np.array(inverse, dtype=np.intp)

    @cached_property
    def mean_certainty(self) -> float:
        """Mean of ``certainties``, worked out once."""
        if not self.certainties:
            raise ContractViolationError("trajectory has no executed actions")
        return sum(self.certainties) / len(self.certainties)

    @property
    def final_length(self) -> int:
        """Number of states after collapsing consecutive duplicates."""
        return len(self.points)

    def copy(self) -> Trajectory:
        """A new object holding these field values, as ``copy.copy`` makes
        it, without that function's dispatch or a second ``__post_init__``,
        which checked the values when this trajectory was made.  It shares
        this trajectory's tuples and ``points``, and records not built yet
        are built once for both."""
        twin = object.__new__(Trajectory)
        twin.__dict__.update(self.__dict__)
        return twin


_FIELDS = tuple(field.name for field in fields(Trajectory))


class _ReachRecords:
    """The per-step records of one ``ReachSpec.rollouts`` batch, built per
    row when a trajectory of that row is first read, and kept for its copies."""

    def __init__(self, goal_radius: float, path: np.ndarray, actions: np.ndarray,
                 target: np.ndarray, repeats: int, points: list[np.ndarray]) -> None:
        self.goal_radius = goal_radius
        self.path = path  # (rows, steps + 1, dims): every position, start included
        self.actions = actions  # (rows, steps, dims)
        self.target = target  # (rows, dims)
        self.repeats = repeats  # steps after the batch settled, which repeat the last
        self.points = points  # each row's positions, consecutive duplicates collapsed
        self.built: dict[int, dict] = {}

    def records(self, row: int) -> dict:
        built = self.built.get(row)
        if built is None:
            built = self.built[row] = self._build(row)
        return built

    def _build(self, row: int) -> dict:
        goal = self.target[row].tolist()
        # each reward by math.dist on Python floats, as the reward is defined
        rewards = [0.0 if math.dist(point, goal) <= self.goal_radius else -1.0
                   for point in self.path[row, 1:].tolist()]
        rewards += rewards[-1:] * self.repeats
        steps = list(map(tuple, self.actions[row].tolist()))
        return {
            "states": tuple(map(tuple, self.points[row].tolist())),
            "actions": tuple(steps + steps[-1:] * self.repeats),
            "rewards": tuple(rewards),
            "episode_return": float(sum(rewards)),
        }


def _check_starts(spec: EnvSpec, starts: Sequence, valid: Sequence[bool]) -> None:
    """Raise for the first start key not marked ``valid``, naming it and
    ``validate_initial``'s reason for the state ``start_state`` makes of it."""
    for key in (key for key, ok in zip(starts, valid) if not ok):
        try:
            reason = spec.validate_initial(spec.start_state(key))
        except TypeError:  # no state of this spec has such a key
            reason = f"not a start key of a {type(spec).__name__}"
        if reason is not None:  # a valid key beside keys of another shape
            raise ContractViolationError(f"cannot start an episode at {key}: {reason}")


class RolloutTable:
    """What one tabular policy does on one layout, kept while both live.

    On a grid an episode depends only on the policy's ``decisions`` and its
    start cell, and so does the one-way distance between two episodes.
    ``GridSpec.rollout_table`` keeps one table per policy and fills it lazily:

    * ``trajectories``: the episode from each cell ``row * width + col`` that
      ``rollouts`` was asked for, walked once;
    * ``cells``: the cell of each of those episodes, by the identity of its
      ``states`` tuple, which every trajectory ``rollouts`` returns from that
      cell shares;
    * ``distances``: the one-way distance between the episodes of two cells
      ``low <= high``, keyed ``low * size + high``, for each pair
      ``fitness.DemonstrationSet.nearest_distances`` has scored; a read looks
      up one entry per distinct cell a row sees, in plain Python.

    It holds walked trajectories and pair distances only, no store of
    positions: each read works out the pairs it lacks from a store of its
    own.  Its memory grows with the cells walked and the pairs scored, never
    with the square of the layout area.  A dense matrix over the walked
    cells would not: 20 seeds on a 101x101 layout walk 2,933 cells and
    score 67,214 pairs, about 1.6% of the walked pairs, so the matrix
    would be 11-22 times this dict.
    """

    def __init__(self, decisions, size: int) -> None:
        self.decisions = decisions  # held, so an identity check against it is sound
        self.size = size
        self.trajectories: dict[int, Trajectory] = {}
        self.cells: dict[int, int] = {}  # by id(trajectory.states)
        self.distances: dict[int, float] = {}

    def add(self, cell: int, trajectory: Trajectory) -> None:
        self.trajectories[cell] = trajectory
        self.cells[id(trajectory.states)] = cell

    def cell(self, trajectory: Trajectory) -> int | None:
        """The cell ``trajectory`` starts from, or ``None`` unless it shares this table's tuples."""
        return self.cells.get(id(trajectory.states))


@dataclass(frozen=True)
class GridSpec:
    """A gridworld layout plus its reward constants."""

    width: int
    height: int
    cells: tuple[str, ...]
    target_reward: float = 50.0
    hole_penalty: float = -50.0
    step_cost: float = -1.0
    max_steps: int = 100

    policy_kind: ClassVar[str] = KIND_TABULAR

    def __post_init__(self) -> None:
        for name in ("target_reward", "hole_penalty", "step_cost"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        if not is_int(self.max_steps) or self.max_steps < 1:
            raise ConfigurationError(f"max_steps must be a positive integer, got {self.max_steps!r}")
        if self.height < 3 or self.width < 3:
            raise ConfigurationError("grid needs at least a 3x3 footprint")
        if len(self.cells) != self.height or any(len(row) != self.width for row in self.cells):
            raise ConfigurationError("cell rows do not match the declared grid size")
        unknown = {c for row in self.cells for c in row} - _CELL_CHARS
        if unknown:
            raise ConfigurationError(f"unknown layout characters: {sorted(unknown)}")
        targets = sum(row.count(TARGET) for row in self.cells)
        if targets != 1:
            raise ConfigurationError(f"layout must contain exactly one target, found {targets}")
        for r in range(self.height):
            for c in range(self.width):
                on_edge = r in (0, self.height - 1) or c in (0, self.width - 1)
                if on_edge and self.cells[r][c] != WALL:
                    raise ConfigurationError("layout perimeter must be wall")

    @cached_property
    def target_cell(self) -> tuple[int, int]:
        return next((r, row.index(TARGET)) for r, row in enumerate(self.cells) if TARGET in row)

    @cached_property
    def transitions(self) -> tuple[tuple[tuple[int, float, bool], ...], ...]:
        """The grid dynamics: ``(next_cell, reward, terminated)`` per cell ``row * width + col``
        and action, walked by ``rollouts`` and by the Q-learning trainer alike."""
        table = []
        for r in range(self.height):
            for c in range(self.width):
                moves = []
                for dr, dc in ACTION_DELTAS:
                    row, col = r + dr, c + dc
                    inside = 0 <= row < self.height and 0 <= col < self.width
                    cell = self.cells[row][col] if inside else WALL  # only the perimeter looks out
                    reward = self.step_cost
                    if cell == WALL:
                        row, col = r, c
                    elif cell == TARGET:
                        reward += self.target_reward
                    elif cell == HOLE:
                        reward += self.hole_penalty
                    moves.append((row * self.width + col, reward, cell in (TARGET, HOLE)))
                table.append(tuple(moves))
        return tuple(table)

    @cached_property
    def positions(self) -> tuple[tuple[float, float], ...]:
        """The coordinates trajectory distances use, ``(float(row), float(col))``,
        per cell ``row * width + col``."""
        return tuple((float(r), float(c)) for r in range(self.height) for c in range(self.width))

    @cached_property
    def startable(self) -> frozenset[tuple[int, int]]:
        """The ``(row, col)`` key of every cell ``validate_initial`` accepts."""
        cells = ((r, c) for r in range(self.height) for c in range(self.width))
        return frozenset(key for key in cells if self.validate_initial(GridState(*key)) is None)

    @cached_property
    def canonical_start(self) -> GridState:
        """First floor cell in row-major order; training episodes begin here."""
        for r in range(self.height):
            for c in range(self.width):
                if self.cells[r][c] == FLOOR:
                    return GridState(r, c)
        raise ConfigurationError("layout has no floor cell to start from")

    @cached_property
    def max_state_distance(self) -> float:
        """Largest Euclidean distance between two positions of the state space."""
        return math.hypot(self.height - 1.0, self.width - 1.0)

    @property
    def state_count(self) -> int:
        """Number of states (cells) of the finite state space."""
        return self.height * self.width

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Shape of a per-cell state-visit histogram."""
        return (self.height, self.width)

    @property
    def search_defaults(self) -> dict:
        """Search settings the CLI uses where a config gives none."""
        return {"population_size": 10, "generations": 40, "bits_per_dimension": 6}

    def validate_initial(self, state) -> str | None:
        """Check a candidate start state; returns a reason string when invalid."""
        if not isinstance(state, GridState):
            raise ContractViolationError(f"expected GridState, got {type(state).__name__}")
        if not (0 <= state.row < self.height and 0 <= state.col < self.width):
            return "outside the grid"
        return _BLOCKED_CELLS.get(self.cells[state.row][state.col])

    def rollouts(self, policy, starts: Sequence[tuple[int, int]]) -> list[Trajectory]:
        """One episode of ``policy`` per ``(row, col)`` start key, in order; pure in all arguments.

        An episode walks ``transitions`` and the policy's ``decisions`` until
        it enters the target (``reached_target``) or a hole (``failed``), or
        has taken ``max_steps`` steps (``truncated``).  A policy that does not
        fit is a configuration error; every key must be in ``startable``, and
        one that is not is a contract violation.  The episode from each cell is
        walked once per policy and kept in its ``rollout_table``; each call
        returns new ``Trajectory`` objects that share the table's tuples.
        """
        self.check_policy(policy)
        _check_starts(self, starts, [key in self.startable for key in starts])
        table = self.rollout_table(policy)
        walked = table.trajectories
        trajectories = []
        for row, col in starts:
            cell = row * self.width + col
            if cell not in walked:
                table.add(cell, self._walk(table.decisions, cell))
            # a new object per start and call, sharing the table's tuples: the
            # demonstration set tells members apart by identity
            trajectories.append(walked[cell].copy())
        return trajectories

    def _walk(self, decisions, cell: int) -> Trajectory:
        """The episode from ``cell`` under ``decisions``, as ``rollouts`` describes it."""
        transitions, positions = self.transitions, self.positions
        target = self.target_cell[0] * self.width + self.target_cell[1]
        cells = [cell]
        actions: list = []
        rewards: list[float] = []
        certainties: list[float] = []
        terminated = False
        while not terminated and len(actions) < self.max_steps:
            action, certainty = decisions[cell]
            cell, reward, terminated = transitions[cell][action]
            actions.append(action)
            rewards.append(float(reward))
            certainties.append(certainty)
            if cell != cells[-1]:
                cells.append(cell)
        if not terminated:
            outcome = OUTCOME_TRUNCATED
        else:
            outcome = OUTCOME_REACHED if cell == target else OUTCOME_FAILED
        trajectory = Trajectory(
            states=tuple(positions[c] for c in cells),
            actions=tuple(actions),
            rewards=tuple(rewards),
            certainties=tuple(certainties),
            raw_length=len(actions),
            episode_return=float(sum(rewards)),
            outcome=outcome,
        )
        trajectory.points, trajectory.distinct_points, trajectory.mean_certainty  # for every copy
        return trajectory

    @cached_property
    def _rollout_tables(self) -> dict[int, tuple[weakref.ref, RolloutTable]]:
        return {}  # by id(policy): a weak reference to the policy, and its table

    def __getstate__(self) -> dict:
        # a copy or an unpickled layout starts without tables: they hold weak
        # references, and serve the policies of this process only
        return {name: value for name, value in self.__dict__.items() if name != "_rollout_tables"}

    def rollout_table(self, policy) -> RolloutTable:
        """The ``RolloutTable`` of ``policy`` on this layout, made on first use.

        The layout keeps it while ``policy`` lives, holding the policy only by
        a weak reference, and serves it only while the policy's ``decisions``
        are the object the table was made for.  A policy that no weak
        reference can hold gets a new, empty table on every call.
        """
        tables = self._rollout_tables
        held = tables.get(id(policy))
        if held is not None and held[0]() is policy and held[1].decisions is policy.decisions:
            return held[1]
        table = RolloutTable(policy.decisions, self.state_count)
        try:
            ref = weakref.ref(policy, lambda _, key=id(policy): tables.pop(key, None))
        except TypeError:
            return table
        tables[id(policy)] = (ref, table)
        return table

    def encoding_spec(self, bits_per_dim: int) -> EncodingSpec:
        """Encoding over the agent cell within the interior (walls excluded by construction)."""
        try:
            return EncodingSpec(
                dims=2,
                bits_per_dim=bits_per_dim,
                bounds=((1, self.height - 2), (1, self.width - 2)),
                kind=DISCRETE,
            )
        except ContractViolationError as exc:
            raise ConfigurationError(f"bits_per_dimension {bits_per_dim!r}: {exc}") from exc

    def starts_from_vectors(self, vectors: Sequence[tuple[int, int]]) -> list[tuple | None]:
        """Each decoded ``(row, col)`` vector as its start's key, ``None`` if not ``startable``."""
        return [vector if vector in self.startable else None for vector in vectors]

    def start_state(self, key: tuple[int, int]) -> GridState:
        """The start state a ``(row, col)`` key names."""
        return GridState(*key)

    def check_policy(self, policy) -> None:
        """Raise a ConfigurationError unless ``policy`` is a Q table of this grid's size."""
        if getattr(policy, "kind", None) != KIND_TABULAR:
            raise ConfigurationError(
                f"grid environments need a tabular policy, not {type(policy).__name__}"
            )
        height, width, _ = policy.q_values.shape
        if (height, width) != (self.height, self.width):
            raise ConfigurationError(
                f"policy table is {height}x{width} but the grid is {self.height}x{self.width}"
            )


@dataclass(frozen=True)
class ReachSpec:
    """Bounded-box point-reach task with a sparse distance reward.

    Actions are per-axis displacements in [-1, 1], scaled by ``step_size`` and
    clipped to the box.  A step pays 0 when the effector ends within
    ``goal_radius`` of the target (by ``math.dist``) and -1 otherwise.  The
    episode never terminates on success; it runs to the horizon regardless.
    """

    bounds: tuple[tuple[float, float], ...] = ((-0.15, 0.15),) * 3
    goal_radius: float = 0.05
    horizon: int = 50
    step_size: float = 0.05

    policy_kind: ClassVar[str] = KIND_CONTROLLER
    state_count: ClassVar[None] = None  # continuous: no finite state count
    grid_shape: ClassVar[None] = None  # continuous: no per-cell histogram

    def __post_init__(self) -> None:
        if not self.bounds:
            raise ConfigurationError("reach bounds must not be empty")
        for bound in self.bounds:
            if not (isinstance(bound, (tuple, list)) and len(bound) == 2
                    and all(is_finite_number(x) for x in bound) and bound[0] < bound[1]):
                raise ConfigurationError(
                    f"bounds must be (lo, hi) pairs of finite numbers with lo < hi, got {bound!r}"
                )
        for name in ("goal_radius", "step_size"):
            value = getattr(self, name)
            if not is_finite_number(value) or value <= 0:
                raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
        if not is_int(self.horizon) or self.horizon < 1:
            raise ConfigurationError(f"horizon must be a positive integer, got {self.horizon!r}")

    @property
    def dims(self) -> int:
        return len(self.bounds)

    @cached_property
    def max_state_distance(self) -> float:
        """Largest Euclidean distance between two positions of the state space."""
        return math.sqrt(sum((hi - lo) ** 2 for lo, hi in self.bounds))

    @property
    def search_defaults(self) -> dict:
        """Search settings the CLI uses where a config gives none (the paper's)."""
        return {"population_size": 30, "generations": 1000, "bits_per_dimension": 9}

    def validate_initial(self, state) -> str | None:
        """Check a candidate start state; returns a reason string when invalid."""
        if not isinstance(state, ReachState):
            raise ContractViolationError(f"expected ReachState, got {type(state).__name__}")
        for point in (state.effector, state.target):
            if len(point) != self.dims:
                return "wrong dimensionality"
            for (lo, hi), x in zip(self.bounds, point):
                if not lo <= x <= hi:
                    return "coordinate outside bounds"
        return None

    def rollouts(self, policy, starts: Sequence[tuple[float, ...]]) -> list[Trajectory]:
        """Gaussian-controller episodes, one per start key, stepped as ``(B, dims)`` arrays.

        Reads the controller through ``policy.mean_actions``, once per step
        for the whole batch, and ``policy.step_certainty``, once per call.
        The arrays go through the same elementwise formulas as stepping each
        start alone in plain Python, so the bits are the same.  Each
        trajectory holds its row's collapsed positions as ``points``, and
        builds its per-step records from the batch when they are first read.
        A policy that does not fit is a configuration error; every key must
        name a valid start, and one that does not is a contract violation.
        """
        self.check_policy(policy)
        keys, inside = self._inside(starts)
        _check_starts(self, starts, inside)
        certainties = (policy.step_certainty(self.dims),) * self.horizon

        lo, hi = np.array(self.bounds, dtype=float).T
        target = keys[:, self.dims:]
        path = [keys[:, :self.dims]]
        actions = []
        while len(actions) < self.horizon:
            actions.append(policy.mean_actions(path[-1], target))
            path.append(clip_like_python(path[-1] + self.step_size * actions[-1], lo, hi))
            if np.array_equal(path[-1].view(np.int64), path[-2].view(np.int64)):
                # every effector stayed put bit for bit, so each later step
                # repeats this one exactly: its records are copied, not computed
                break
        repeats = self.horizon - len(actions)

        path = np.stack(path, axis=1)
        # a position is kept unless it equals the one before it
        kept = np.ones(path.shape[:2], dtype=bool)
        kept[:, 1:] = (path[:, 1:] != path[:, :-1]).any(axis=2)
        collapsed = path[kept]
        collapsed.flags.writeable = False
        ends = np.cumsum(kept.sum(axis=1)).tolist()
        points = [collapsed[begin:end] for begin, end in zip([0] + ends, ends)]
        records = _ReachRecords(
            self.goal_radius, path, np.stack(actions, axis=1), target, repeats, points
        )
        fixed = {"certainties": certainties, "raw_length": self.horizon,
                 "outcome": OUTCOME_TRUNCATED}
        trajectories = []
        for row, row_points in enumerate(points):
            trajectory = object.__new__(Trajectory)
            trajectory.__dict__.update(fixed, points=row_points, _source=(records, row))
            trajectories.append(trajectory)
            fixed["mean_certainty"] = trajectory.mean_certainty  # one certainties tuple for all
        return trajectories

    def rollout_table(self, policy) -> None:
        """No table: continuous starts rarely repeat, so one would only hold
        memory (README, "How the search works")."""
        return None

    def encoding_spec(self, bits_per_dim: int) -> EncodingSpec:
        """Encoding over effector and target jointly."""
        return EncodingSpec(
            dims=2 * self.dims,
            bits_per_dim=bits_per_dim,
            bounds=self.bounds + self.bounds,
            kind=CONTINUOUS,
        )

    def starts_from_vectors(self, vectors: Sequence[tuple[float, ...]]) -> list[tuple | None]:
        """Each decoded vector as its start's key, or ``None`` where it leaves the bounds."""
        _, inside = self._inside(vectors)
        return [vector if ok else None for vector, ok in zip(vectors, inside)]

    def start_state(self, key: tuple[float, ...]) -> ReachState:
        """The start state a key names: its first ``dims`` coordinates are the effector's."""
        return ReachState(key[:self.dims], key[self.dims:])

    def _inside(self, keys: Sequence) -> tuple[np.ndarray | None, list[bool]]:
        """``keys`` as one float array, and whether each lies within the bounds, as
        ``validate_initial`` asks, by one comparison; no array and none inside if one is no key."""
        try:
            points = np.array(keys, dtype=float).reshape(len(keys), 2 * self.dims)
        except (TypeError, ValueError):
            return None, [False] * len(keys)
        lo, hi = np.array(self.bounds + self.bounds, dtype=float).T
        return points, ((lo <= points) & (points <= hi)).all(axis=1).tolist()

    def check_policy(self, policy) -> None:
        """Raise a ConfigurationError unless ``policy`` is a reach controller."""
        if getattr(policy, "kind", None) != KIND_CONTROLLER:
            raise ConfigurationError(
                "the reach environment needs a gaussian_controller policy, "
                f"not {type(policy).__name__}"
            )


EnvSpec = GridSpec | ReachSpec


def parse_layout(text: str, **overrides) -> GridSpec:
    """Build a GridSpec from layout text; keyword overrides set reward constants."""
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise ConfigurationError("layout text is empty")
    return GridSpec(width=len(rows[0]), height=len(rows), cells=tuple(rows), **overrides)


def load_layout(path: str | Path, **overrides) -> GridSpec:
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"layout file not found: {path}")
    return parse_layout(path.read_text(encoding="utf-8"), **overrides)


_LAYOUT_DIR = Path(__file__).parent / "layouts"
GRID_PRESETS = {
    "FlatGrid11": "flatgrid11.map",
    "HoleyGrid11": "holeygrid11.map",
}
PRESET_NAMES = tuple(GRID_PRESETS) + ("PointReach",)


def preset(name: str) -> EnvSpec:
    if name == "PointReach":
        return ReachSpec()
    if name in GRID_PRESETS:
        return load_layout(_LAYOUT_DIR / GRID_PRESETS[name])
    raise ConfigurationError(
        f"unknown environment preset {name!r}; known presets: {', '.join(PRESET_NAMES)}"
    )


def clip_like_python(values: np.ndarray, lo, hi) -> np.ndarray:
    """Elementwise ``min(max(v, lo), hi)`` exactly as Python's builtins pick.

    ``np.maximum``/``np.minimum`` pick the other operand on a tie between
    signed zeros; comparing keeps the builtins' choice, so array and scalar
    code yield the same bits.
    """
    raised = np.where(lo > values, lo, values)
    return np.where(hi < raised, hi, raised)

