"""Fixed decision policies and their on-disk format.

Two concrete policies are provided: a tabular policy backed by a dense Q table
(trained here with Q-learning on the gridworlds) and a proportional controller
with a Gaussian action model for the point-reach task.

Both expose the same two-method surface:

* ``act(state)`` is deterministic; demonstrations must be exact functions of
  the start state, so rollouts never sample.
* ``certainty(state, action)`` is a probability in [0, 1] describing how
  strongly the policy is committed to ``action`` in ``state``.  Tabular
  policies use a softmax over Q values; the controller uses the probability
  mass its Gaussian action model puts within a window around the action
  (densities are unbounded in continuous action spaces, masses are not).

Policy files are versioned JSON.  Tabular files list every (row, col, action,
value) entry explicitly so a table can be written or audited by hand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .environments import (
    ACTION_NAMES, GridEnv, GridSpec, GridState, N_ACTIONS, ReachState, clip_like_python,
)
from .errors import ContractViolationError, PolicyFormatError

POLICY_FORMAT = "evodemo-policy"
POLICY_VERSION = 1
KIND_TABULAR = "tabular"
KIND_CONTROLLER = "gaussian_controller"


class Policy(Protocol):
    def act(self, state): ...

    def certainty(self, state, action) -> float: ...


class TabularPolicy:
    """Greedy policy over a dense Q table with softmax certainties.

    Ties in the Q values resolve to the first action in (up, right, down,
    left) order, so acting is deterministic even on an untrained table.
    """

    def __init__(self, q_values: np.ndarray, temperature: float = 1.0):
        q = np.asarray(q_values, dtype=float)
        if q.ndim != 3 or q.shape[2] != N_ACTIONS:
            raise ContractViolationError(
                f"Q table must have shape (height, width, {N_ACTIONS}), got {q.shape}"
            )
        if not np.isfinite(q).all():
            raise ContractViolationError("Q values must be finite")
        if not 0 < temperature < math.inf:
            raise ContractViolationError("softmax temperature must be positive and finite")
        self.q_values = q
        self.temperature = float(temperature)

    def action_probabilities(self, state: GridState) -> np.ndarray:
        scaled = self.q_values[state.row, state.col] / self.temperature
        shifted = np.exp(scaled - scaled.max())
        return shifted / shifted.sum()

    def act(self, state: GridState) -> int:
        return int(np.argmax(self.q_values[state.row, state.col]))

    def certainty(self, state: GridState, action: int) -> float:
        if not 0 <= action < N_ACTIONS:
            raise ContractViolationError(f"action {action} out of range")
        return float(self.action_probabilities(state)[action])


class GaussianControllerPolicy:
    """Proportional reach controller with a Gaussian action model.

    The deterministic action steers the effector straight at the target
    (gain-scaled, saturated at the unit action range).  Certainty multiplies,
    over axes, the probability mass a Gaussian centered on that action places
    within ``window`` of the queried action; ``noise_scale`` 0 degenerates to
    a point mass.
    """

    def __init__(self, gain: float = 1.0, noise_scale: float = 0.1,
                 window: float = 0.1, step_size: float = 0.05):
        if not 0 < gain < math.inf:
            raise ContractViolationError("gain must be positive and finite")
        if not 0 <= noise_scale < math.inf:
            raise ContractViolationError("noise_scale must be non-negative and finite")
        if not 0 < window < math.inf:
            raise ContractViolationError("certainty window must be positive and finite")
        if not 0 < step_size < math.inf:
            raise ContractViolationError("step_size must be positive and finite")
        self.gain = float(gain)
        self.noise_scale = float(noise_scale)
        self.window = float(window)
        self.step_size = float(step_size)

    def mean_action(self, state: ReachState) -> tuple[float, ...]:
        effector = np.array(state.effector, dtype=float)
        target = np.array(state.target, dtype=float)
        return tuple(controller_action(effector, target, self.gain, self.step_size).tolist())

    def act(self, state: ReachState) -> tuple[float, ...]:
        return self.mean_action(state)

    def certainty(self, state: ReachState, action) -> float:
        mean = self.mean_action(state)
        if len(action) != len(mean):
            raise ContractViolationError("action dimensionality mismatch")
        mass = 1.0
        for a, m in zip(action, mean):
            if self.noise_scale == 0.0:
                mass *= 1.0 if abs(a - m) <= self.window else 0.0
            else:
                offset = a - m
                mass *= _normal_cdf((offset + self.window) / self.noise_scale) - _normal_cdf(
                    (offset - self.window) / self.noise_scale
                )
        return min(max(mass, 0.0), 1.0)


def controller_action(effector: np.ndarray, target: np.ndarray, gain: float,
                      step_size: float) -> np.ndarray:
    """The controller's mean action, elementwise over effector/target arrays.

    Each axis steers at the target with ``(gain * (t - x)) / step_size``,
    saturated to [-1, 1]; any leading batch shape is kept.
    """
    return clip_like_python(gain * (target - effector) / step_size, -1.0, 1.0)


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class QLearningResult:
    policy: TabularPolicy
    checkpoints: dict[int, TabularPolicy]


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
    """Train a tabular policy with epsilon-greedy Q-learning.

    Every episode starts from the layout's canonical start cell; ``steps``
    counts environment steps, not episodes.  Epsilon decays linearly from
    ``epsilon_start`` to ``epsilon_end`` over the first
    ``epsilon_decay_fraction`` of the step budget and stays flat afterwards.
    Snapshots of the table are taken after each step count listed in
    ``checkpoint_steps``; they are what deliberately under-trained policies
    are taken from.
    """
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


def save_policy(policy: Policy, path: str | Path) -> None:
    """Write a policy as versioned JSON; floats round-trip bit-identically."""
    if isinstance(policy, TabularPolicy):
        height, width, _ = policy.q_values.shape
        entries = [
            [r, c, a, float(policy.q_values[r, c, a])]
            for r in range(height)
            for c in range(width)
            for a in range(N_ACTIONS)
        ]
        payload = {
            "format": POLICY_FORMAT,
            "version": POLICY_VERSION,
            "kind": KIND_TABULAR,
            "height": height,
            "width": width,
            "temperature": policy.temperature,
            "actions": list(ACTION_NAMES),
            "entries": entries,
        }
    elif isinstance(policy, GaussianControllerPolicy):
        payload = {
            "format": POLICY_FORMAT,
            "version": POLICY_VERSION,
            "kind": KIND_CONTROLLER,
            "gain": policy.gain,
            "noise_scale": policy.noise_scale,
            "window": policy.window,
            "step_size": policy.step_size,
        }
    else:
        raise ContractViolationError(f"cannot serialize policy type {type(policy).__name__}")
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_policy(path: str | Path) -> Policy:
    path = Path(path)
    if not path.is_file():
        raise PolicyFormatError(f"policy file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PolicyFormatError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})") from exc
    if not isinstance(payload, dict):
        raise PolicyFormatError(f"{path}: top level must be a JSON object")
    if payload.get("format") != POLICY_FORMAT:
        raise PolicyFormatError(f"{path}: field 'format' must be {POLICY_FORMAT!r}")
    if payload.get("version") != POLICY_VERSION:
        raise PolicyFormatError(
            f"{path}: unsupported version {payload.get('version')!r}, expected {POLICY_VERSION}"
        )
    kind = payload.get("kind")
    if kind == KIND_TABULAR:
        return _load_tabular(path, payload)
    if kind == KIND_CONTROLLER:
        return _load_controller(path, payload)
    raise PolicyFormatError(f"{path}: unknown policy kind {kind!r}")


def _require(path: Path, payload: dict, field: str):
    if field not in payload:
        raise PolicyFormatError(f"{path}: missing field {field!r}")
    return payload[field]


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int that numpy reads as a mask
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    # JSON NaN/Infinity load as floats; integers too large for a float overflow
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _load_tabular(path: Path, payload: dict) -> TabularPolicy:
    height = _require(path, payload, "height")
    width = _require(path, payload, "width")
    temperature = _require(path, payload, "temperature")
    entries = _require(path, payload, "entries")
    if not (_is_int(height) and _is_int(width) and height > 0 and width > 0):
        raise PolicyFormatError(f"{path}: 'height'/'width' must be positive integers")
    if not _is_finite_number(temperature):
        raise PolicyFormatError(f"{path}: 'temperature' must be a finite number")
    if not isinstance(entries, list):
        raise PolicyFormatError(f"{path}: 'entries' must be a list")
    q = np.zeros((height, width, N_ACTIONS))
    listed = np.zeros(q.shape, dtype=bool)
    for index, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise PolicyFormatError(f"{path}: entries[{index}] must be [row, col, action, value]")
        r, c, a, value = entry
        if not (_is_int(r) and 0 <= r < height):
            raise PolicyFormatError(f"{path}: entries[{index}]: row {r!r} out of range")
        if not (_is_int(c) and 0 <= c < width):
            raise PolicyFormatError(f"{path}: entries[{index}]: col {c!r} out of range")
        if not (_is_int(a) and 0 <= a < N_ACTIONS):
            raise PolicyFormatError(f"{path}: entries[{index}]: action {a!r} out of range")
        if not _is_finite_number(value):
            raise PolicyFormatError(
                f"{path}: entries[{index}]: value {value!r} is not a finite number"
            )
        if listed[r, c, a]:
            raise PolicyFormatError(
                f"{path}: entries[{index}]: duplicate entry for row {r}, col {c}, action {a}"
            )
        listed[r, c, a] = True
        q[r, c, a] = float(value)
    if not listed.all():
        r, c, a = (int(i) for i in np.argwhere(~listed)[0])
        raise PolicyFormatError(
            f"{path}: entries list {int(listed.sum())} of {listed.size} values; "
            f"the entry for row {r}, col {c}, action {a} is missing"
        )
    try:
        return TabularPolicy(q, float(temperature))
    except ContractViolationError as exc:
        raise PolicyFormatError(f"{path}: {exc}") from exc


def _load_controller(path: Path, payload: dict) -> GaussianControllerPolicy:
    kwargs = {}
    for field in ("gain", "noise_scale", "window", "step_size"):
        value = _require(path, payload, field)
        if not _is_finite_number(value):
            raise PolicyFormatError(f"{path}: field {field!r} must be a finite number")
        kwargs[field] = float(value)
    try:
        return GaussianControllerPolicy(**kwargs)
    except ContractViolationError as exc:
        raise PolicyFormatError(f"{path}: {exc}") from exc
