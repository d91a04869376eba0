"""Fixed decision policies and their on-disk format.

Two concrete policies are provided: a tabular policy backed by a dense Q table
(trained here with Q-learning on the gridworlds) and a proportional controller
with a Gaussian action model for the point-reach task.

A policy is the tables its environment's rollouts read, not a per-state
surface; each spec's ``rollouts`` reads what it needs, in batches:

* ``GridSpec.rollouts`` walks a tabular policy's ``decisions``, worked out
  once from a read-only copy of its Q table: one (greedy action, softmax
  probability of that action) pair per cell ``row * width + col``.
* ``ReachSpec.rollouts`` asks the controller for ``mean_actions`` over the
  whole batch's arrays and for one ``step_certainty``, the probability mass
  its Gaussian action model puts within a window around the action it takes
  (densities are unbounded in continuous action spaces, masses are not).

Policies are deterministic: demonstrations must be exact functions of the
start state, so rollouts never sample.  A certainty is a probability in
[0, 1] describing how strongly the policy is committed to the action it takes.

Policy files are versioned JSON.  Tabular files list every (row, col, action,
value) entry explicitly so a table can be written or audited by hand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Protocol

import numpy as np

from .environments import (
    ACTION_NAMES, KIND_CONTROLLER, KIND_TABULAR, N_ACTIONS, GridSpec, clip_like_python,
)
from .errors import ContractViolationError, PolicyFormatError, is_finite_number, is_int
from .jsonfile import write_json

POLICY_FORMAT = "evodemo-policy"
POLICY_VERSION = 1


class Policy(Protocol):
    kind: str  # the ``policy_kind`` of the environments it runs in


class TabularPolicy:
    """Greedy policy over a dense Q table with softmax certainties.

    Ties in the Q values resolve to the first action in (up, right, down,
    left) order, so acting is deterministic even on an untrained table.

    It keeps a read-only copy of the table it is given as ``q_values`` and
    builds ``decisions`` from it once, so the two cannot disagree:
    each cell's greedy action and that action's softmax probability, indexed
    by cell ``row * width + col`` like ``GridSpec.transitions``.
    """

    kind = KIND_TABULAR

    def __init__(self, q_values: np.ndarray, temperature: float = 1.0):
        q = np.array(q_values, dtype=float)
        if q.ndim != 3 or q.shape[2] != N_ACTIONS:
            raise ContractViolationError(
                f"Q table must have shape (height, width, {N_ACTIONS}), got {q.shape}"
            )
        if not np.isfinite(q).all():
            raise ContractViolationError("Q values must be finite")
        if not (is_finite_number(temperature) and temperature > 0):
            raise ContractViolationError("softmax temperature must be positive and finite")
        q.setflags(write=False)
        self.q_values = q
        self.temperature = float(temperature)
        # the per-cell softmax exp(q / t - max) / sum, over every cell at once
        with np.errstate(over="ignore"):  # an overflow is refused just below
            scaled = q / self.temperature
        if not np.isfinite(scaled).all():
            raise ContractViolationError(
                f"softmax temperature {temperature!r} is too small for these Q values: "
                "Q / temperature overflows"
            )
        with np.errstate(over="ignore"):  # a shift below the float range is -inf; exp gives 0
            shifted = np.exp(scaled - scaled.max(axis=2, keepdims=True))
        probabilities = (shifted / shifted.sum(axis=2, keepdims=True)).reshape(-1, N_ACTIONS)
        actions = np.argmax(q, axis=2).ravel().tolist()
        self.decisions = tuple((a, p[a]) for a, p in zip(actions, probabilities.tolist()))


class GaussianControllerPolicy:
    """Proportional reach controller with a Gaussian action model.

    The deterministic action steers the effector straight at the target
    (gain-scaled, saturated at the unit action range).  Certainty multiplies,
    over axes, the probability mass a Gaussian centered on that action places
    within ``window`` of it; ``noise_scale`` 0 degenerates to a point mass.
    """

    kind = KIND_CONTROLLER

    def __init__(self, gain: float = 1.0, noise_scale: float = 0.1,
                 window: float = 0.1, step_size: float = 0.05):
        if not (is_finite_number(gain) and gain > 0):
            raise ContractViolationError("gain must be positive and finite")
        if not (is_finite_number(noise_scale) and noise_scale >= 0):
            raise ContractViolationError("noise_scale must be non-negative and finite")
        if not (is_finite_number(window) and window > 0):
            raise ContractViolationError("certainty window must be positive and finite")
        if not (is_finite_number(step_size) and step_size > 0):
            raise ContractViolationError("step_size must be positive and finite")
        self.gain = float(gain)
        self.noise_scale = float(noise_scale)
        self.window = float(window)
        self.step_size = float(step_size)

    def mean_actions(self, effector: np.ndarray, target: np.ndarray) -> np.ndarray:
        """The mean action, elementwise over effector/target arrays.

        Each axis steers at the target with ``(gain * (t - x)) / step_size``,
        saturated to [-1, 1]; any leading batch shape is kept.
        """
        return clip_like_python(self.gain * (target - effector) / self.step_size, -1.0, 1.0)

    def step_certainty(self, dims: int) -> float:
        """The certainty of every step over ``dims`` axes, the same in every state.

        The controller always acts at its own Gaussian mean, so the offset is
        zero on each axis, and each multiplies in the mass within ``window``
        of the mean (1 for a point mass).
        """
        per_axis = 1.0
        if self.noise_scale != 0.0:
            bound = self.window / self.noise_scale
            per_axis = _normal_cdf(bound) - _normal_cdf(-bound)
        mass = 1.0
        for _ in range(dims):  # a product per axis: per_axis ** dims may differ in the last bit
            mass *= per_axis
        return min(max(mass, 0.0), 1.0)


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class QLearningResult:
    policy: TabularPolicy
    checkpoints: dict[int, TabularPolicy]


# Training reads this many raw words from the generator, and works out this many
# steps' epsilons, per numpy call.
_BLOCK = 1024
# Generator.random() is the top 53 bits of one raw word, times this
_DOUBLE_UNIT = 2.0**-53


def _raw_words(bit_generator) -> Iterator[int]:
    """The bit generator's 64-bit outputs in order, drawn ``_BLOCK`` at a time."""
    while True:
        yield from bit_generator.random_raw(_BLOCK).tolist()


def _epsilons(first: int, stop: int, epsilon_start: float, epsilon_end: float,
              decay_steps: int) -> list[float]:
    """``epsilon_start + (epsilon_end - epsilon_start) * min(step / decay_steps, 1.0)``
    for each step in ``range(first, stop)``.

    numpy runs the same float64 operations as that Python expression (a step
    below 2**53 converts to float exactly), so the values are the same; where
    the difference overflowed, inf * 0 is NaN as in Python, without a warning.
    """
    span = epsilon_end - epsilon_start
    with np.errstate(invalid="ignore"):
        ratios = np.minimum(np.arange(first, stop) / decay_steps, 1.0)
        return (epsilon_start + span * ratios).tolist()


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

    Each step draws what ``rng.random() < epsilon`` and, when it explores,
    ``rng.integers(4)`` would draw from ``np.random.default_rng(seed)``, but
    the draws are made in Python from blocks of the generator's raw 64-bit
    words, converted the way numpy converts them: ``random()`` is one whole
    word, ``(word >> 11) * 2**-53``; ``integers(4)`` is the top 2 bits of a
    32-bit half, the low half of a fresh word whose high half is kept for the
    next call, or else the half kept from before (PCG64 buffers its spare 32
    bits, and ``random()`` leaves them alone; Lemire's method never rejects
    for a power-of-two range).  So the tables are the ones the scalar calls
    give, bit for bit.
    """
    if not (is_int(steps) and steps >= 1):
        raise ContractViolationError("steps must be a positive integer")
    if not (is_int(seed) and seed >= 0):
        raise ContractViolationError("seed must be a non-negative integer")
    if not (is_finite_number(alpha) and 0 < alpha <= 1):
        raise ContractViolationError("alpha must lie in (0, 1]")
    if not (is_finite_number(gamma) and 0 <= gamma <= 1):
        raise ContractViolationError("gamma must lie in [0, 1]")
    if not (is_finite_number(epsilon_decay_fraction) and 0 < epsilon_decay_fraction <= 1):
        raise ContractViolationError("epsilon_decay_fraction must lie in (0, 1]")
    for name, value in (("epsilon_start", epsilon_start), ("epsilon_end", epsilon_end)):
        if not is_finite_number(value):
            raise ContractViolationError(f"{name} must be a finite number")
    if not (is_finite_number(temperature) and temperature > 0):
        raise ContractViolationError("temperature must be positive and finite")
    if not all(is_int(s) and 1 <= s <= steps for s in checkpoint_steps):
        raise ContractViolationError("checkpoint_steps must be integers in [1, steps]")
    wanted = set(checkpoint_steps)

    draw = _raw_words(np.random.default_rng(seed).bit_generator).__next__
    transitions = spec.transitions
    start = spec.canonical_start.row * spec.width + spec.canonical_start.col
    max_steps = spec.max_steps
    # plain float rows: Python floats are IEEE float64, so the bits match a numpy table's
    q = [[0.0] * N_ACTIONS for _ in transitions]
    shape = (spec.height, spec.width, N_ACTIONS)

    checkpoints: dict[int, TabularPolicy] = {}
    decay_steps = max(1, int(round(steps * epsilon_decay_fraction)))
    cell, episode_steps = start, 0
    spare = None  # a word whose high 32 bits integers() has yet to use
    first = 0
    # stop at every checkpoint, and at least every _BLOCK steps to bound the epsilons held
    for stop in sorted(wanted.union(range(_BLOCK, steps, _BLOCK), (steps,))):
        for epsilon in _epsilons(first, stop, epsilon_start, epsilon_end, decay_steps):
            values = q[cell]
            if (draw() >> 11) * _DOUBLE_UNIT < epsilon:
                # integers(4): the top 2 bits of a fresh word's low half, or of the high half
                # kept from the last such word
                if spare is None:
                    spare = draw()
                    action = (spare >> 30) & 3
                else:
                    action = spare >> 62
                    spare = None
            else:
                action = values.index(max(values))  # the first maximum, as np.argmax picks
            nxt, reward, terminated = transitions[cell][action]
            bootstrap = 0.0 if terminated else gamma * max(q[nxt])
            values[action] += alpha * (reward + bootstrap - values[action])
            episode_steps += 1
            if terminated or episode_steps >= max_steps:
                cell, episode_steps = start, 0
            else:
                cell = nxt
        if stop in wanted:
            checkpoints[stop] = TabularPolicy(np.reshape(q, shape), temperature)
        first = stop
    return QLearningResult(TabularPolicy(np.reshape(q, shape), temperature), checkpoints)


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
    write_json(path, payload)


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


def _load_tabular(path: Path, payload: dict) -> TabularPolicy:
    height = _require(path, payload, "height")
    width = _require(path, payload, "width")
    temperature = _require(path, payload, "temperature")
    entries = _require(path, payload, "entries")
    if not (is_int(height) and is_int(width) and height > 0 and width > 0):
        raise PolicyFormatError(f"{path}: 'height'/'width' must be positive integers")
    if not is_finite_number(temperature):
        raise PolicyFormatError(f"{path}: 'temperature' must be a finite number")
    if not isinstance(entries, list):
        raise PolicyFormatError(f"{path}: 'entries' must be a list")
    q = np.zeros((height, width, N_ACTIONS))
    listed = np.zeros(q.shape, dtype=bool)
    for index, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise PolicyFormatError(f"{path}: entries[{index}] must be [row, col, action, value]")
        r, c, a, value = entry
        if not (is_int(r) and 0 <= r < height):
            raise PolicyFormatError(f"{path}: entries[{index}]: row {r!r} out of range")
        if not (is_int(c) and 0 <= c < width):
            raise PolicyFormatError(f"{path}: entries[{index}]: col {c!r} out of range")
        if not (is_int(a) and 0 <= a < N_ACTIONS):
            raise PolicyFormatError(f"{path}: entries[{index}]: action {a!r} out of range")
        if not is_finite_number(value):
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
        if not is_finite_number(value):
            raise PolicyFormatError(f"{path}: field {field!r} must be a finite number")
        kwargs[field] = float(value)
    try:
        return GaussianControllerPolicy(**kwargs)
    except ContractViolationError as exc:
        raise PolicyFormatError(f"{path}: {exc}") from exc
