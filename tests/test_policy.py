import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
import qlearning_reference as reference
from evodemo.environments import HOLE, GridState, ReachState
from evodemo.errors import ContractViolationError, PolicyFormatError
from evodemo.policy import (
    GaussianControllerPolicy,
    TabularPolicy,
    load_policy,
    save_policy,
    train_q_learning,
)
from evodemo.rollout import generate


def tabular_for(rows=3, cols=3, fill=0.0, temperature=1.0, cells=None):
    """A policy over a ``fill`` table whose ``cells`` map (row, col) to their 4 Q values."""
    q = np.full((rows, cols, 4), fill)
    for cell, values in (cells or {}).items():
        q[cell] = values
    return TabularPolicy(q, temperature=temperature)


def probabilities(policy, state):
    return np.array([policy.certainty(state, a) for a in range(4)])


# ---------------------------------------------------------------------------
# tabular policy


def test_softmax_probabilities_match_direct_formula():
    q = np.array([1.0, 2.0, 3.0, 0.0])
    policy = tabular_for(cells={(1, 1): q})
    probs = probabilities(policy, GridState(1, 1))
    expected = np.exp(q) / np.exp(q).sum()
    assert np.allclose(probs, expected, atol=1e-15)
    assert probs.sum() == pytest.approx(1.0)


def test_temperature_sharpens_and_flattens():
    q = np.array([1.0, 2.0, 3.0, 0.0])
    cold = tabular_for(temperature=0.1, cells={(0, 0): q})
    hot = tabular_for(temperature=10.0, cells={(0, 0): q})
    assert cold.certainty(GridState(0, 0), 2) > hot.certainty(GridState(0, 0), 2)


def test_act_breaks_ties_in_fixed_action_order():
    assert tabular_for().act(GridState(0, 0)) == 0  # all equal: up wins
    policy = tabular_for(cells={(0, 0): np.array([0.0, 5.0, 5.0, 0.0])})
    assert policy.act(GridState(0, 0)) == 1  # right before down


def test_certainty_is_probability_of_queried_action():
    policy = tabular_for(cells={(2, 2): np.array([0.0, 0.0, 0.0, 10.0])})
    assert policy.certainty(GridState(2, 2), 3) > 0.99
    assert policy.certainty(GridState(2, 2), 0) < 0.01


def test_softmax_is_stable_for_large_values():
    policy = tabular_for(cells={(0, 1): np.array([1e4, 0.0, 0.0, 0.0])})
    probs = probabilities(policy, GridState(0, 1))
    assert np.isfinite(probs).all()
    assert probs[0] == pytest.approx(1.0)


@settings(max_examples=150, deadline=None)
@given(table=reference.q_tables(), temperature=st.floats(0.05, 7.5))
def test_lookups_equal_the_per_cell_formula(table, temperature):
    policy = TabularPolicy(table, temperature)
    height, width, _ = table.shape
    for row in range(height):
        for col in range(width):
            state = GridState(row, col)
            expected = reference.tabular_decision(table, temperature, row, col)
            assert policy.act(state) == expected[0]
            assert [policy.certainty(state, a) for a in range(4)] == expected[1]


def test_the_table_cannot_change_under_the_policy():
    q = np.zeros((3, 3, 4))
    q[1, 1] = (0.0, 2.0, 1.0, 0.0)
    policy = TabularPolicy(q)
    state = GridState(1, 1)
    before = policy.act(state), probabilities(policy, state).tolist()
    q[1, 1] = (9.0, 0.0, 0.0, 0.0)  # the caller's array
    with pytest.raises(ValueError):
        policy.q_values[1, 1, 0] = 9.0
    assert policy.q_values[1, 1].tolist() == [0.0, 2.0, 1.0, 0.0]
    assert (policy.act(state), probabilities(policy, state).tolist()) == before
    assert before[0] == 1


@pytest.mark.parametrize("call, culprit", [
    (lambda p: p.certainty(GridState(1, 1), True), "action True"),
    (lambda p: p.certainty(GridState(1, 1), 1.0), "action 1.0"),
    (lambda p: p.certainty(GridState(1, 1), "1"), "action '1'"),
    (lambda p: p.certainty(GridState(1, 1), None), "action None"),
    (lambda p: p.certainty(GridState(1, 1), 4), "action 4"),
    (lambda p: p.certainty(GridState(1, 1), -1), "action -1"),
    (lambda p: p.act(GridState(-1, 0)), r"GridState\(row=-1, col=0\)"),
    (lambda p: p.act(GridState(0, -1)), r"GridState\(row=0, col=-1\)"),
    (lambda p: p.act(GridState(5, 5)), r"GridState\(row=5, col=5\)"),
    (lambda p: p.act(GridState(3, 0)), r"GridState\(row=3, col=0\)"),
    (lambda p: p.act(GridState(1.0, 1)), r"GridState\(row=1.0, col=1\)"),
    (lambda p: p.certainty(GridState(0, 3), 0), r"GridState\(row=0, col=3\)"),
    (lambda p: p.act(ReachState((0.0,) * 3, (0.0,) * 3)), "ReachState"),
])
def test_tabular_lookups_reject_bad_inputs_naming_them(call, culprit):
    with pytest.raises(ContractViolationError, match=culprit):
        call(tabular_for())


def test_tabular_validation():
    with pytest.raises(ContractViolationError):
        TabularPolicy(np.zeros((3, 3)))
    for temperature in (0.0, math.inf, "x", True):
        with pytest.raises(ContractViolationError):
            TabularPolicy(np.zeros((3, 3, 4)), temperature=temperature)


# ---------------------------------------------------------------------------
# gaussian controller


def test_mean_action_points_at_target_and_clips():
    policy = GaussianControllerPolicy(gain=1.0, step_size=0.05)
    state = ReachState((0.0, 0.0, 0.0), (0.02, -0.01, 0.15))
    action = policy.mean_action(state)
    assert action[0] == pytest.approx(0.4)  # 0.02 / 0.05
    assert action[1] == pytest.approx(-0.2)
    assert action[2] == 1.0  # 0.15 / 0.05 = 3, clipped


def test_certainty_is_gaussian_mass_in_window():
    policy = GaussianControllerPolicy(noise_scale=0.1, window=0.1)
    state = ReachState((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    mean = policy.mean_action(state)  # (0, 0, 0)
    per_axis = math.erf(0.1 / (0.1 * math.sqrt(2.0)))
    assert policy.certainty(state, mean) == pytest.approx(per_axis**3, abs=1e-12)


def test_certainty_drops_away_from_mean_action():
    policy = GaussianControllerPolicy(noise_scale=0.1, window=0.1)
    state = ReachState((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    near = policy.certainty(state, (0.0, 0.0, 0.0))
    far = policy.certainty(state, (0.9, 0.0, 0.0))
    assert far < near


def test_zero_noise_certainty_is_an_indicator():
    policy = GaussianControllerPolicy(noise_scale=0.0, window=0.1)
    state = ReachState((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert policy.certainty(state, (0.05, 0.0, 0.0)) == 1.0
    assert policy.certainty(state, (0.2, 0.0, 0.0)) == 0.0


def test_controller_validation():
    with pytest.raises(ContractViolationError):
        GaussianControllerPolicy(noise_scale=-0.1)
    with pytest.raises(ContractViolationError):
        GaussianControllerPolicy(window=0.0)
    with pytest.raises(ContractViolationError):
        GaussianControllerPolicy(step_size=0.0)
    for field, value in (("gain", "x"), ("window", True), ("noise_scale", math.nan)):
        with pytest.raises(ContractViolationError, match=field):
            GaussianControllerPolicy(**{field: value})


# ---------------------------------------------------------------------------
# training


def test_training_is_seed_deterministic(flat_spec):
    a = train_q_learning(flat_spec, 2000, seed=5)
    b = train_q_learning(flat_spec, 2000, seed=5)
    assert np.array_equal(a.policy.q_values, b.policy.q_values)
    c = train_q_learning(flat_spec, 2000, seed=6)
    assert not np.array_equal(a.policy.q_values, c.policy.q_values)


def test_training_checkpoints_are_frozen_snapshots(flat_spec):
    result = train_q_learning(flat_spec, 3000, seed=0, checkpoint_steps=(1000, 2000))
    assert sorted(result.checkpoints) == [1000, 2000]
    early = result.checkpoints[1000].q_values
    later = result.checkpoints[2000].q_values
    assert not np.array_equal(early, later)
    assert not np.array_equal(later, result.policy.q_values)
    # the epsilon schedule depends on the total budget, so snapshots are only
    # reproducible by rerunning the same schedule
    rerun = train_q_learning(flat_spec, 3000, seed=0, checkpoint_steps=(1000, 2000))
    assert np.array_equal(early, rerun.checkpoints[1000].q_values)
    assert np.array_equal(later, rerun.checkpoints[2000].q_values)


def assert_same_training(result, expected):
    assert result.policy.q_values.tobytes() == expected.policy.q_values.tobytes()
    assert result.policy.temperature == expected.policy.temperature
    assert sorted(result.checkpoints) == sorted(expected.checkpoints)
    for step, snapshot in expected.checkpoints.items():
        assert result.checkpoints[step].q_values.tobytes() == snapshot.q_values.tobytes()


@pytest.mark.parametrize("spec_fixture", ["flat_spec", "holey_spec"])
def test_training_matches_the_reference_trainer_on_presets(request, spec_fixture):
    spec = request.getfixturevalue(spec_fixture)
    checkpoints = tuple(range(1000, 20_001, 1000))
    assert_same_training(
        train_q_learning(spec, 20_000, seed=0, checkpoint_steps=checkpoints),
        reference.train_q_learning(spec, 20_000, seed=0, checkpoint_steps=checkpoints),
    )


unit = st.floats(0.0, 1.0)


@settings(max_examples=120, deadline=None)
@given(
    spec=reference.grid_layouts(),
    data=st.data(),
    steps=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0, exclude_min=True),
    gamma=unit,
    epsilon_start=unit,
    epsilon_end=unit,
    epsilon_decay_fraction=st.floats(0.0, 1.0, exclude_min=True),
    temperature=st.floats(0.1, 10.0),
)
def test_training_matches_the_reference_trainer(spec, data, steps, **params):
    checkpoints = tuple(data.draw(st.sets(st.integers(1, steps), max_size=8)))
    assert_same_training(
        train_q_learning(spec, steps, checkpoint_steps=checkpoints, **params),
        reference.train_q_learning(spec, steps, checkpoint_steps=checkpoints, **params),
    )


def test_trained_policy_is_shortest_path_optimal_everywhere(flat_spec, well_trained_policy):
    moves = bf.optimal_moves(flat_spec.cells, flat_spec.target_cell)
    for (row, col), distance in moves.items():
        if distance == 0:
            continue
        trajectory = generate(flat_spec, well_trained_policy, GridState(row, col))
        assert trajectory.outcome == "reached_target"
        assert trajectory.episode_return == 50.0 - distance


def test_trained_holey_policy_takes_the_safe_detour(holey_spec):
    policy = train_q_learning(holey_spec, 100_000, seed=0).policy
    trajectory = generate(holey_spec, policy, holey_spec.canonical_start)
    assert trajectory.outcome == "reached_target"
    assert trajectory.episode_return == 36.0  # frozen oracle: 14-move detour
    visited = {(int(p[0]), int(p[1])) for p in map(tuple, trajectory.states)}
    assert all(holey_spec.cells[r][c] != HOLE for r, c in visited)


def test_training_rejects_bad_parameters(flat_spec):
    with pytest.raises(ContractViolationError):
        train_q_learning(flat_spec, 0)
    with pytest.raises(ContractViolationError):
        train_q_learning(flat_spec, 100, alpha=0.0)
    with pytest.raises(ContractViolationError):
        train_q_learning(flat_spec, 100, checkpoint_steps=(200,))
    for field, value in (("alpha", "x"), ("gamma", True), ("checkpoint_steps", (True,)),
                         ("seed", -1), ("temperature", math.inf), ("epsilon_end", None)):
        with pytest.raises(ContractViolationError, match=field):
            train_q_learning(flat_spec, 100, **{field: value})


# ---------------------------------------------------------------------------
# persistence


def test_tabular_policy_round_trips_through_json(tmp_path, flat_spec):
    policy = train_q_learning(flat_spec, 1000, seed=1).policy
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    loaded = load_policy(path)
    assert isinstance(loaded, TabularPolicy)
    assert np.array_equal(loaded.q_values, policy.q_values)
    assert loaded.temperature == policy.temperature


def test_controller_round_trips_through_json(tmp_path):
    policy = GaussianControllerPolicy(gain=1.5, noise_scale=0.2, window=0.05, step_size=0.01)
    path = tmp_path / "controller.json"
    save_policy(policy, path)
    loaded = load_policy(path)
    assert isinstance(loaded, GaussianControllerPolicy)
    assert (loaded.gain, loaded.noise_scale) == (1.5, 0.2)
    assert (loaded.window, loaded.step_size) == (0.05, 0.01)


def test_load_policy_reports_precise_format_errors(tmp_path):
    path = tmp_path / "bad.json"

    path.write_text("{not json")
    with pytest.raises(PolicyFormatError):
        load_policy(path)

    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(PolicyFormatError, match="format"):
        load_policy(path)

    path.write_text(json.dumps({"format": "evodemo-policy", "version": 99, "kind": "tabular"}))
    with pytest.raises(PolicyFormatError, match="version"):
        load_policy(path)

    path.write_text(json.dumps({"format": "evodemo-policy", "version": 1, "kind": "mystery"}))
    with pytest.raises(PolicyFormatError, match="kind"):
        load_policy(path)

    with pytest.raises(PolicyFormatError):
        load_policy(tmp_path / "missing.json")


def test_load_policy_rejects_broken_entries(tmp_path, flat_spec):
    policy = train_q_learning(flat_spec, 200, seed=0).policy
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    payload = json.loads(path.read_text())
    payload["entries"][3] = [0, 0]  # wrong arity
    path.write_text(json.dumps(payload))
    with pytest.raises(PolicyFormatError, match="entr"):
        load_policy(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tabular_policy_rejects_non_finite_q_values(bad):
    q = np.zeros((3, 3, 4))
    q[1, 2, 3] = bad
    with pytest.raises(ContractViolationError, match="finite"):
        TabularPolicy(q)


def _load_edited(tmp_path, edit):
    """Save a complete 2x2 table, let ``edit`` change its entries, and load it."""
    path = tmp_path / "policy.json"
    save_policy(TabularPolicy(np.arange(16, dtype=float).reshape(2, 2, 4)), path)
    payload = json.loads(path.read_text())
    edit(payload["entries"])
    path.write_text(json.dumps(payload))
    return load_policy(path)


@pytest.mark.parametrize("field", [0, 1, 2])
def test_load_policy_rejects_boolean_indices(tmp_path, field):
    # [1, 1, true, -7.0] would otherwise overwrite all four actions of cell (1, 1)
    def edit(entries):
        entries[5][field] = True

    with pytest.raises(PolicyFormatError, match=r"entries\[5\]"):
        _load_edited(tmp_path, edit)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_load_policy_rejects_non_finite_values(tmp_path, bad):
    def edit(entries):
        entries[6][3] = bad

    with pytest.raises(PolicyFormatError, match=r"entries\[6\].*finite"):
        _load_edited(tmp_path, edit)


def test_load_policy_rejects_duplicate_entries(tmp_path):
    def edit(entries):
        entries[7] = [*entries[2][:3], 99.0]

    with pytest.raises(PolicyFormatError, match=r"entries\[7\]: duplicate .*row 0, col 0, action 2"):
        _load_edited(tmp_path, edit)


def test_load_policy_rejects_incomplete_tables(tmp_path):
    def edit(entries):
        del entries[2:]

    with pytest.raises(PolicyFormatError, match="2 of 16 .*row 0, col 0, action 2 is missing"):
        _load_edited(tmp_path, edit)


@pytest.mark.parametrize("field", ["gain", "noise_scale", "window", "step_size"])
def test_load_policy_rejects_non_finite_controller_fields(tmp_path, field):
    path = tmp_path / "controller.json"
    save_policy(GaussianControllerPolicy(), path)
    payload = json.loads(path.read_text())
    payload[field] = math.nan
    path.write_text(json.dumps(payload))
    with pytest.raises(PolicyFormatError, match=field):
        load_policy(path)
