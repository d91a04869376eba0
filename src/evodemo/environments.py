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
``search_defaults``, ``policy_kind`` and ``check_policy``.
``rollouts(policy, starts)`` is the only way an episode is produced: it first
checks that the policy fits (``check_policy``), then runs the fixed policy
from each start and records the episode as a ``Trajectory``.  A ``GridSpec``
also answers, built once per layout and indexed by cell ``row * width + col``:
``transitions``, the dynamics that ``rollouts`` and the Q-learning trainer
walk, and ``positions``, the coordinates ``rollouts`` records for each cell.
A grid rollout walks ``transitions`` side by side with the tabular policy's
``decisions``, which use the same indexing.  Its ``startable`` table, keyed by
``(row, col)``, is what ``starts_from_vectors`` and ``rollouts`` check starts by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
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


@dataclass(frozen=True)
class ReachState:
    effector: tuple[float, float, float]
    target: tuple[float, float, float]


@dataclass(frozen=True)
class Trajectory:
    """One deterministic policy demonstration.

    A trajectory keeps two views of the episode.  ``states`` holds the visited
    positions with consecutive duplicates collapsed (a grid agent bumping into a
    wall does not stretch its path), while ``actions``, ``rewards``, and
    ``certainties`` keep one entry per executed step.  Return and mean certainty
    therefore still account for steps whose states were collapsed.
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

    @property
    def final_length(self) -> int:
        """Number of states after collapsing consecutive duplicates."""
        return len(self.states)


def _check_starts(spec: EnvSpec, starts: Sequence, flags) -> None:
    """Raise for the first start ``flags()`` marks invalid, with ``validate_initial``'s reason."""
    try:
        valid = flags()
    except (AttributeError, TypeError, ValueError):  # not all starts are states of this spec
        valid = [spec.validate_initial(start) is None for start in starts]
    for start, ok in zip(starts, valid):
        if not ok:
            reason = spec.validate_initial(start)
            raise ContractViolationError(f"cannot start an episode at {start}: {reason}")


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
    def startable(self) -> dict[tuple[int, int], GridState]:
        """The start state of every cell ``validate_initial`` accepts, keyed by ``(row, col)``."""
        states = (GridState(r, c) for r in range(self.height) for c in range(self.width))
        return {(s.row, s.col): s for s in states if self.validate_initial(s) is None}

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

    def rollouts(self, policy, starts: Sequence[GridState]) -> list[Trajectory]:
        """One episode of ``policy`` per start, in order; pure in all arguments.

        An episode walks ``transitions`` and the policy's ``decisions`` until
        it enters the target (``reached_target``) or a hole (``failed``), or
        has taken ``max_steps`` steps (``truncated``).  A policy that does not
        fit is a configuration error; every start must be valid, and an
        invalid one is a contract violation.
        """
        self.check_policy(policy)
        _check_starts(self, starts, lambda: [(s.row, s.col) in self.startable for s in starts])
        width, transitions, positions = self.width, self.transitions, self.positions
        decisions = policy.decisions
        target = self.target_cell[0] * width + self.target_cell[1]
        trajectories = []
        for start in starts:
            cell = start.row * width + start.col
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
            trajectories.append(Trajectory(
                states=tuple(positions[c] for c in cells),
                actions=tuple(actions),
                rewards=tuple(rewards),
                certainties=tuple(certainties),
                raw_length=len(actions),
                episode_return=float(sum(rewards)),
                outcome=outcome,
            ))
        return trajectories

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

    def starts_from_vectors(self, vectors: Sequence[tuple[int, int]]) -> list[GridState | None]:
        """The start state each decoded ``(row, col)`` vector stands for, ``None``
        where ``validate_initial`` would reject it; one ``startable`` lookup each."""
        return list(map(self.startable.get, vectors))

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

    def rollouts(self, policy, starts: Sequence[ReachState]) -> list[Trajectory]:
        """Gaussian-controller episodes, one per start, stepped together as ``(B, dims)`` arrays.

        Reads the controller through ``policy.mean_actions``, once per step
        for the whole batch, and ``policy.step_certainty``, once per call.
        The arrays go through the same elementwise formulas as stepping each
        start alone in plain Python, so the bits are the same.  A policy that
        does not fit is a configuration error; every start must be valid, and
        an invalid one is a contract violation.
        """
        self.check_policy(policy)
        _check_starts(self, starts, lambda: self._inside([(s.effector, s.target) for s in starts]))
        if not starts:
            return []
        certainties = (policy.step_certainty(self.dims),) * self.horizon

        lo, hi = np.array(self.bounds, dtype=float).T
        target = np.array([start.target for start in starts], dtype=float)
        path = [np.array([start.effector for start in starts], dtype=float)]
        actions = []
        while len(actions) < self.horizon:
            actions.append(policy.mean_actions(path[-1], target))
            path.append(clip_like_python(path[-1] + self.step_size * actions[-1], lo, hi))
            if np.array_equal(path[-1].view(np.int64), path[-2].view(np.int64)):
                # every effector stayed put bit for bit, so each later step
                # repeats this one exactly: its records are copied, not computed
                break
        repeats = self.horizon - len(actions)
        path = np.stack(path)  # (steps + 1, B, dims)

        offset = path[1:] - target
        distance = np.sqrt((offset * offset).sum(axis=2))
        inside = distance <= self.goal_radius
        # the numpy norm may differ from math.dist in the last bit: a distance
        # that is not finite or lies within a relative 1e-9 of the radius is
        # decided by math.dist on Python floats, as the reward is defined
        unsure = ~np.isfinite(distance) | (
            np.abs(distance - self.goal_radius) <= 1e-9 * self.goal_radius + 1e-150
        )
        paths = path.transpose(1, 0, 2).tolist()
        targets = target.tolist()
        for step, row in zip(*np.nonzero(unsure)):
            inside[step, row] = math.dist(paths[row][step + 1], targets[row]) <= self.goal_radius

        # a position is kept unless it equals the one before it
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
                raw_length=self.horizon,
                episode_return=float(sum(rewards)),
                outcome=OUTCOME_TRUNCATED,
            ))
        return trajectories

    def encoding_spec(self, bits_per_dim: int) -> EncodingSpec:
        """Encoding over effector and target jointly."""
        return EncodingSpec(
            dims=2 * self.dims,
            bits_per_dim=bits_per_dim,
            bounds=self.bounds + self.bounds,
            kind=CONTINUOUS,
        )

    def starts_from_vectors(self, vectors: Sequence[tuple[float, ...]]) -> list[ReachState | None]:
        """The start state each decoded (effector, target) vector stands for,
        ``None`` where a coordinate lies outside the bounds."""
        d, inside = self.dims, self._inside(vectors)
        return [ReachState(v[:d], v[d:]) if ok else None for v, ok in zip(vectors, inside)]

    def _inside(self, starts: Sequence) -> list[bool]:
        """Whether every coordinate of each start, its effector's then its target's,
        lies within the bounds, as ``validate_initial`` asks; one array comparison."""
        points = np.array(starts, dtype=float).reshape(len(starts), 2, self.dims)
        lo, hi = np.array(self.bounds, dtype=float).T
        return ((lo <= points) & (points <= hi)).all(axis=(1, 2)).tolist()

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

