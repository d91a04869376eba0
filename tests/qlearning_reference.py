"""Reference Q-learning trainer, grid step and random layouts for the equivalence tests.

``train_q_learning`` is the trainer the library used before it stepped the
precomputed transition table: it steps ``GridEnv`` and keeps Q in a numpy
array.  ``if_chain_step`` is the if-chain ``GridEnv.step`` used before it read
the same table.  ``evodemo.policy.train_q_learning`` must produce the same
final table and checkpoints bit for bit, and ``GridEnv.step`` the same moves.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from evodemo.environments import (
    ACTION_DELTAS, FLOOR, HOLE, N_ACTIONS, TARGET, WALL, GridEnv, GridSpec, parse_layout,
)
from evodemo.errors import ContractViolationError
from evodemo.policy import QLearningResult, TabularPolicy


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
