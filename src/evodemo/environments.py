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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .encoding import CONTINUOUS, DISCRETE, EncodingSpec
from .errors import ConfigurationError, ContractViolationError

WALL = "#"
FLOOR = "."
HOLE = "O"
TARGET = "T"
_CELL_CHARS = frozenset((WALL, FLOOR, HOLE, TARGET))

# action order is also the tie-break order for greedy policies
ACTION_NAMES = ("up", "right", "down", "left")
ACTION_DELTAS = ((-1, 0), (0, 1), (1, 0), (0, -1))
N_ACTIONS = len(ACTION_NAMES)


@dataclass(frozen=True)
class GridState:
    row: int
    col: int


@dataclass(frozen=True)
class ReachState:
    effector: tuple[float, float, float]
    target: tuple[float, float, float]


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

    def __post_init__(self) -> None:
        if self.height < 3 or self.width < 3:
            raise ConfigurationError("grid needs at least a 3x3 footprint")
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be positive")
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
    def hole_cells(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (r, c)
            for r in range(self.height)
            for c in range(self.width)
            if self.cells[r][c] == HOLE
        )

    @cached_property
    def transitions(self) -> tuple[tuple[tuple[int, float, bool], ...], ...]:
        """The grid dynamics: ``(next_cell, reward, terminated)`` per cell ``row * width + col``
        and action, stepped by ``GridEnv`` and by the Q-learning trainer alike."""
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
    def canonical_start(self) -> GridState:
        """First floor cell in row-major order; training episodes begin here."""
        for r in range(self.height):
            for c in range(self.width):
                if self.cells[r][c] == FLOOR:
                    return GridState(r, c)
        raise ConfigurationError("layout has no floor cell to start from")


@dataclass(frozen=True)
class ReachSpec:
    """Bounded-box point-reach task with a sparse distance reward."""

    bounds: tuple[tuple[float, float], ...] = ((-0.15, 0.15),) * 3
    goal_radius: float = 0.05
    horizon: int = 50
    step_size: float = 0.05

    def __post_init__(self) -> None:
        if not self.bounds:
            raise ConfigurationError("reach bounds must not be empty")
        for lo, hi in self.bounds:
            if hi <= lo:
                raise ConfigurationError(f"degenerate reach bounds [{lo}, {hi}]")
        if self.goal_radius <= 0:
            raise ConfigurationError("goal_radius must be positive")
        if self.horizon < 1:
            raise ConfigurationError("horizon must be positive")
        if self.step_size <= 0:
            raise ConfigurationError("step_size must be positive")

    @property
    def dims(self) -> int:
        return len(self.bounds)


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


_BLOCKED_CELLS = {WALL: "wall cell", HOLE: "hole cell", TARGET: "target cell"}


def validate_initial(spec: EnvSpec, state) -> str | None:
    """Check a candidate start state; returns a reason string when invalid."""
    if isinstance(spec, GridSpec):
        if not isinstance(state, GridState):
            raise ContractViolationError(f"expected GridState, got {type(state).__name__}")
        if not (0 <= state.row < spec.height and 0 <= state.col < spec.width):
            return "outside the grid"
        return _BLOCKED_CELLS.get(spec.cells[state.row][state.col])
    if isinstance(spec, ReachSpec):
        if not isinstance(state, ReachState):
            raise ContractViolationError(f"expected ReachState, got {type(state).__name__}")
        for point in (state.effector, state.target):
            if len(point) != spec.dims:
                return "wrong dimensionality"
            for (lo, hi), x in zip(spec.bounds, point):
                if not lo <= x <= hi:
                    return "coordinate outside bounds"
        return None
    raise ContractViolationError(f"unknown environment spec {type(spec).__name__}")


class GridEnv:
    """Mutable single-episode stepper for a grid layout."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self._state: GridState | None = None
        self._steps = 0
        self._done = True

    def reset(self, state: GridState) -> GridState:
        reason = validate_initial(self.spec, state)
        if reason is not None:
            raise ContractViolationError(f"cannot reset to {state}: {reason}")
        self._state = state
        self._steps = 0
        self._done = False
        return state

    def step(self, action: int) -> tuple[GridState, float, bool, bool]:
        if self._done or self._state is None:
            raise ContractViolationError("step called on a finished episode; reset first")
        if isinstance(action, bool) or not isinstance(action, (int, np.integer)):
            raise ContractViolationError(f"grid action must be an integer, got {action!r}")
        action = int(action)
        if not 0 <= action < N_ACTIONS:
            raise ContractViolationError(f"grid action must be in [0, {N_ACTIONS}), got {action}")
        width = self.spec.width
        nxt, reward, terminated = self.spec.transitions[self._state.row * width + self._state.col][action]
        self._steps += 1
        truncated = not terminated and self._steps >= self.spec.max_steps
        self._done = terminated or truncated
        self._state = GridState(*divmod(nxt, width))
        return self._state, reward, terminated, truncated


class ReachEnv:
    """Mutable single-episode stepper for the point-reach task.

    Actions are per-axis displacements in [-1, 1], scaled by ``step_size`` and
    clipped to the box.  The episode never terminates on success; it runs to
    the horizon regardless.
    """

    def __init__(self, spec: ReachSpec):
        self.spec = spec
        self._state: ReachState | None = None
        self._steps = 0
        self._done = True

    def reset(self, state: ReachState) -> ReachState:
        reason = validate_initial(self.spec, state)
        if reason is not None:
            raise ContractViolationError(f"cannot reset to {state}: {reason}")
        self._state = state
        self._steps = 0
        self._done = False
        return state

    def step(self, action) -> tuple[ReachState, float, bool, bool]:
        if self._done or self._state is None:
            raise ContractViolationError("step called on a finished episode; reset first")
        values = tuple(float(a) for a in action)
        if len(values) != self.spec.dims:
            raise ContractViolationError(
                f"reach action needs {self.spec.dims} components, got {len(values)}"
            )
        if any(abs(a) > 1.0 for a in values):
            raise ContractViolationError(f"reach action outside [-1, 1]: {values}")
        lo, hi = np.array(self.spec.bounds, dtype=float).T
        effector = tuple(reach_move(
            np.array(self._state.effector, dtype=float), np.array(values), self.spec.step_size, lo, hi
        ).tolist())
        distance = math.dist(effector, self._state.target)
        reward = 0.0 if distance <= self.spec.goal_radius else -1.0
        self._steps += 1
        truncated = self._steps >= self.spec.horizon
        self._done = truncated
        self._state = ReachState(effector, self._state.target)
        return self._state, reward, False, truncated


def clip_like_python(values: np.ndarray, lo, hi) -> np.ndarray:
    """Elementwise ``min(max(v, lo), hi)`` exactly as Python's builtins pick.

    ``np.maximum``/``np.minimum`` pick the other operand on a tie between
    signed zeros; comparing keeps the builtins' choice, so array and scalar
    code yield the same bits.
    """
    raised = np.where(lo > values, lo, values)
    return np.where(hi < raised, hi, raised)


def reach_move(effector: np.ndarray, action: np.ndarray, step_size: float,
               lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Effector after one reach action, elementwise over any leading batch shape.

    Every axis moves by ``step_size * action`` and is clipped to its bounds
    ``[lo, hi]``, lower bound first.
    """
    return clip_like_python(effector + step_size * action, lo, hi)


def make_env(spec: EnvSpec):
    if isinstance(spec, GridSpec):
        return GridEnv(spec)
    if isinstance(spec, ReachSpec):
        return ReachEnv(spec)
    raise ContractViolationError(f"unknown environment spec {type(spec).__name__}")


def position(state) -> tuple[float, ...]:
    """Project a state onto the coordinates used by trajectory distances."""
    if isinstance(state, GridState):
        return (float(state.row), float(state.col))
    if isinstance(state, ReachState):
        return tuple(float(x) for x in state.effector)
    raise ContractViolationError(f"unknown state type {type(state).__name__}")


def max_state_distance(spec: EnvSpec) -> float:
    """Largest Euclidean distance between two positions of the state space."""
    if isinstance(spec, GridSpec):
        return math.hypot(spec.height - 1.0, spec.width - 1.0)
    if isinstance(spec, ReachSpec):
        return math.sqrt(sum((hi - lo) ** 2 for lo, hi in spec.bounds))
    raise ContractViolationError(f"unknown environment spec {type(spec).__name__}")


def state_count(spec: EnvSpec) -> int | None:
    """Number of states of a finite space; None for continuous spaces."""
    if isinstance(spec, GridSpec):
        return spec.height * spec.width
    if isinstance(spec, ReachSpec):
        return None
    raise ContractViolationError(f"unknown environment spec {type(spec).__name__}")


def default_encoding_spec(spec: EnvSpec, bits_per_dim: int) -> EncodingSpec:
    """Encoding over the disturbable start-state coordinates of an environment.

    Grids disturb the agent cell within the interior (walls excluded by
    construction); the reach task disturbs effector and target jointly.
    """
    if isinstance(spec, GridSpec):
        return EncodingSpec(
            dims=2,
            bits_per_dim=bits_per_dim,
            bounds=((1, spec.height - 2), (1, spec.width - 2)),
            kind=DISCRETE,
        )
    if isinstance(spec, ReachSpec):
        return EncodingSpec(
            dims=2 * spec.dims,
            bits_per_dim=bits_per_dim,
            bounds=spec.bounds + spec.bounds,
            kind=CONTINUOUS,
        )
    raise ContractViolationError(f"unknown environment spec {type(spec).__name__}")


def initial_state_from_vector(spec: EnvSpec, values: tuple[float, ...]):
    """Assemble a decoded value vector into this environment's state type."""
    if isinstance(spec, GridSpec):
        if len(values) != 2:
            raise ContractViolationError(f"grid states need 2 values, got {len(values)}")
        return GridState(int(values[0]), int(values[1]))
    if isinstance(spec, ReachSpec):
        if len(values) != 2 * spec.dims:
            raise ContractViolationError(
                f"reach states need {2 * spec.dims} values, got {len(values)}"
            )
        return ReachState(tuple(values[: spec.dims]), tuple(values[spec.dims:]))
    raise ContractViolationError(f"unknown environment spec {type(spec).__name__}")
