"""Reference grid stepper, rollout and Q-learning trainer, and random layouts, for the
equivalence tests.

``GridEnv`` is the mutable single-episode stepper the library used before each
spec rolled out its own starts, and ``stepped_rollout`` the per-step episode
loop that drove it; ``GridSpec.rollouts`` must produce the same trajectories.
``train_q_learning`` is the trainer the library used before it stepped the
precomputed transition table: it steps ``GridEnv`` and keeps Q in a numpy
array.  ``if_chain_step`` is the if-chain ``GridEnv.step`` used before it read
the same table.  ``evodemo.policy.train_q_learning`` must produce the same
final table and checkpoints bit for bit, and ``GridEnv.step`` the same moves.
``tabular_decision`` is the per-cell argmax and softmax ``TabularPolicy``
computed on every call before it built its tables once; its ``decisions``
must equal it (``==``) on the tables ``q_tables`` generates, and
``stepped_rollout`` decides each step by it from the policy's Q table.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from evodemo.environments import (
    ACTION_DELTAS, FLOOR, HOLE, N_ACTIONS, OUTCOME_FAILED, OUTCOME_REACHED, OUTCOME_TRUNCATED,
    TARGET, WALL, GridSpec, GridState, Trajectory, parse_layout,
)
from evodemo.errors import ContractViolationError
from evodemo.policy import QLearningResult, TabularPolicy


class GridEnv:
    """Mutable single-episode stepper for a grid layout."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self._state: GridState | None = None
        self._steps = 0
        self._done = True

    def reset(self, state: GridState) -> GridState:
        reason = self.spec.validate_initial(state)
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


def stepped_rollout(spec: GridSpec, policy, initial_state: GridState) -> Trajectory:
    """One episode stepped through ``GridEnv``, deciding each state by ``tabular_decision``."""
    env = GridEnv(spec)
    state = env.reset(initial_state)
    positions = [(float(state.row), float(state.col))]
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
            action, probabilities = tabular_decision(
                policy.q_values, policy.temperature, state.row, state.col
            )
            decision = decisions[state] = (action, probabilities[action])
        action, certainty = decision
        certainties.append(certainty)
        state, reward, terminated, truncated = env.step(action)
        actions.append(action)
        rewards.append(float(reward))
        positions.append((float(state.row), float(state.col)))

    deduped = [positions[0]]
    for point in positions[1:]:
        if point != deduped[-1]:
            deduped.append(point)

    if not terminated:
        outcome = OUTCOME_TRUNCATED
    else:
        outcome = OUTCOME_REACHED if (state.row, state.col) == spec.target_cell else OUTCOME_FAILED
    return Trajectory(
        states=tuple(deduped),
        actions=tuple(actions),
        rewards=tuple(rewards),
        certainties=tuple(certainties),
        raw_length=len(actions),
        episode_return=float(sum(rewards)),
        outcome=outcome,
    )


@st.composite
def grid_layouts(draw) -> GridSpec:
    """Walled layouts up to 7x8 with walls, holes, a target anywhere inside and
    at least one floor cell; reward constants and ``max_steps`` are drawn too."""
    height, width = draw(st.integers(3, 7)), draw(st.integers(4, 8))
    interior = [(r, c) for r in range(1, height - 1) for c in range(1, width - 1)]
    rows = [[WALL] * width for _ in range(height)]
    for r, c in interior:
        rows[r][c] = draw(st.sampled_from((FLOOR, FLOOR, FLOOR, WALL, HOLE)))
    (tr, tc), (fr, fc) = draw(st.lists(st.sampled_from(interior), min_size=2, max_size=2,
                                       unique=True))
    rows[tr][tc], rows[fr][fc] = TARGET, FLOOR
    reward = st.one_of(st.integers(-60, 60), st.floats(-100.0, 100.0))
    return parse_layout(
        "\n".join("".join(row) for row in rows),
        step_cost=draw(reward), target_reward=draw(reward), hole_penalty=draw(reward),
        max_steps=draw(st.integers(1, 40)),
    )


@st.composite
def q_tables(draw) -> np.ndarray:
    """Q tables of 3 to 15 rows and columns, scaled by 1e-3 to 1e4, often with ties."""
    shape = (draw(st.integers(3, 15)), draw(st.integers(3, 15)), N_ACTIONS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.standard_normal(shape)
    levels = draw(st.sampled_from((None, 1, 3)))  # rounded to few levels, values tie
    if levels is not None:
        table = np.round(table * levels)
    return table * draw(st.floats(1e-3, 1e4))


def tabular_decision(q: np.ndarray, temperature: float, row: int, col: int) -> tuple[int, list]:
    """Greedy action and the softmax probability of each action in one cell."""
    values = q[row, col]
    scaled = values / temperature
    shifted = np.exp(scaled - scaled.max())
    return int(np.argmax(values)), (shifted / shifted.sum()).tolist()


def if_chain_step(spec: GridSpec, row: int, col: int, action: int) -> tuple[int, int, float, bool]:
    """``(row, col, reward, terminated)`` after ``action`` from an interior cell."""
    dr, dc = ACTION_DELTAS[action]
    start_row, start_col = row, col
    row, col = row + dr, col + dc
    reward = spec.step_cost
    terminated = False
    if spec.cells[row][col] == WALL:
        row, col = start_row, start_col
    elif spec.cells[row][col] == TARGET:
        reward += spec.target_reward
        terminated = True
    elif spec.cells[row][col] == HOLE:
        reward += spec.hole_penalty
        terminated = True
    return row, col, reward, terminated


def train_q_learning(
    spec: GridSpec,
    steps: int,
    *,
    alpha: float = 0.1,
    gamma: float = 0.99,
    epsilon_start: float = 1.0,
    epsilon_end: float = 0.05,
    epsilon_decay_fraction: float = 0.8,
    temperature: float = 1.0,
    seed: int = 0,
    checkpoint_steps: tuple[int, ...] = (),
) -> QLearningResult:
    if steps < 1:
        raise ContractViolationError("steps must be positive")
    if not 0 < alpha <= 1:
        raise ContractViolationError("alpha must lie in (0, 1]")
    if not 0 <= gamma <= 1:
        raise ContractViolationError("gamma must lie in [0, 1]")
    if not 0 < epsilon_decay_fraction <= 1:
        raise ContractViolationError("epsilon_decay_fraction must lie in (0, 1]")
    wanted = set(int(s) for s in checkpoint_steps)
    if any(s < 1 or s > steps for s in wanted):
        raise ContractViolationError("checkpoint steps must lie in [1, steps]")

    rng = np.random.default_rng(seed)
    env = GridEnv(spec)
    q = np.zeros((spec.height, spec.width, N_ACTIONS))
    checkpoints: dict[int, TabularPolicy] = {}
    decay_steps = max(1, int(round(steps * epsilon_decay_fraction)))
    state = env.reset(spec.canonical_start)
    for step in range(steps):
        epsilon = epsilon_start + (epsilon_end - epsilon_start) * min(step / decay_steps, 1.0)
        if rng.random() < epsilon:
            action = int(rng.integers(N_ACTIONS))
        else:
            action = int(np.argmax(q[state.row, state.col]))
        nxt, reward, terminated, truncated = env.step(action)
        bootstrap = 0.0 if terminated else gamma * float(q[nxt.row, nxt.col].max())
        q[state.row, state.col, action] += alpha * (reward + bootstrap - q[state.row, state.col, action])
        state = nxt
        if terminated or truncated:
            state = env.reset(spec.canonical_start)
        if step + 1 in wanted:
            checkpoints[step + 1] = TabularPolicy(q.copy(), temperature)
    return QLearningResult(TabularPolicy(q, temperature), checkpoints)
