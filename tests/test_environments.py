import math

import numpy as np
import pytest
from hypothesis import given, settings

import bruteforce as bf
import qlearning_reference as reference
from evodemo.environments import (
    FLOOR,
    HOLE,
    N_ACTIONS,
    GridState,
    ReachSpec,
    ReachState,
    parse_layout,
)
from evodemo.errors import ConfigurationError, ContractViolationError

UP, RIGHT, DOWN, LEFT = 0, 1, 2, 3


def holes(spec):
    return {(r, c) for r, row in enumerate(spec.cells) for c, cell in enumerate(row) if cell == HOLE}


# ---------------------------------------------------------------------------
# layout parsing


def test_parse_layout_reads_cells_and_target():
    spec = parse_layout("#####\n#..O#\n#.T.#\n#####\n")
    assert (spec.height, spec.width) == (4, 5)
    assert spec.target_cell == (2, 2)
    assert holes(spec) == {(1, 3)}
    assert spec.canonical_start == GridState(1, 1)


@pytest.mark.parametrize(
    "text",
    [
        "####\n#T#\n####",  # ragged rows
        "#####\n#...#\n#####",  # no target
        "#####\n#T.T#\n#####",  # two targets
        "#####\n#..T.\n#####",  # open perimeter
        "#####\n#x.T#\n#####",  # unknown character
        "##\n##",  # too small
    ],
)
def test_parse_layout_rejects_malformed_maps(text):
    with pytest.raises(ConfigurationError):
        parse_layout(text)


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("step_cost", float("nan")),
        ("step_cost", "x"),
        ("hole_penalty", float("-inf")),
        ("target_reward", True),
        ("max_steps", 2.5),
        ("max_steps", True),
        ("max_steps", 0),
    ],
)
def test_grid_spec_rejects_bad_reward_constants(field, value):
    with pytest.raises(ConfigurationError, match=field):
        parse_layout("#####\n#..O#\n#.T.#\n#####\n", **{field: value})


def test_flat_preset_geometry(flat_spec):
    assert (flat_spec.height, flat_spec.width) == (11, 11)
    assert flat_spec.target_cell == (9, 9)
    assert holes(flat_spec) == set()
    assert flat_spec.canonical_start == GridState(1, 1)


def test_holey_preset_geometry(holey_spec):
    assert (holey_spec.height, holey_spec.width) == (11, 11)
    assert holey_spec.target_cell == (9, 5)
    assert holes(holey_spec) == {(5, c) for c in range(1, 6)}
    assert holey_spec.canonical_start == GridState(1, 1)


# ---------------------------------------------------------------------------
# grid stepping


def test_grid_step_costs_and_moves(flat_spec):
    env = flat_spec.make_env()
    env.reset(GridState(1, 1))
    state, reward, terminated, truncated = env.step(DOWN)
    assert state == GridState(2, 1)
    assert (reward, terminated, truncated) == (-1.0, False, False)


def test_grid_wall_bump_stays_put(flat_spec):
    env = flat_spec.make_env()
    env.reset(GridState(1, 1))
    state, reward, terminated, truncated = env.step(UP)
    assert state == GridState(1, 1)
    assert (reward, terminated, truncated) == (-1.0, False, False)


def test_grid_target_entry_pays_and_terminates(flat_spec):
    env = flat_spec.make_env()
    env.reset(GridState(8, 9))
    state, reward, terminated, truncated = env.step(DOWN)
    assert state == GridState(9, 9)
    assert reward == 49.0  # step cost plus target payout
    assert terminated and not truncated


def test_grid_hole_entry_penalizes_and_terminates(holey_spec):
    env = holey_spec.make_env()
    env.reset(GridState(4, 3))
    state, reward, terminated, truncated = env.step(DOWN)
    assert state == GridState(5, 3)
    assert reward == -51.0
    assert terminated and not truncated


def test_grid_truncates_at_step_limit(flat_spec):
    env = flat_spec.make_env()
    env.reset(GridState(1, 1))
    for step in range(flat_spec.max_steps):
        _, _, terminated, truncated = env.step(UP)
    assert not terminated
    assert truncated
    with pytest.raises(ContractViolationError):
        env.step(UP)


def test_grid_rejects_bad_resets_and_actions(flat_spec, holey_spec):
    env = flat_spec.make_env()
    with pytest.raises(ContractViolationError):
        env.reset(GridState(0, 0))  # wall
    with pytest.raises(ContractViolationError):
        env.reset(GridState(9, 9))  # target
    with pytest.raises(ContractViolationError):
        holey_spec.make_env().reset(GridState(5, 1))  # hole
    env.reset(GridState(1, 1))
    with pytest.raises(ContractViolationError):
        env.step(4)
    with pytest.raises(ContractViolationError):
        env.step(True)
    with pytest.raises(ContractViolationError):
        env.step("up")


def test_grid_accepts_numpy_actions(flat_spec):
    env = flat_spec.make_env()
    env.reset(GridState(1, 1))
    state, _, _, _ = env.step(np.int64(RIGHT))
    assert state == GridState(1, 2)


def assert_steps_like_the_if_chain(spec):
    """Every interior (cell, action): the table, and ``GridEnv.step`` from every floor cell."""
    for row in range(1, spec.height - 1):
        for col in range(1, spec.width - 1):
            for action in range(N_ACTIONS):
                r, c, reward, terminated = reference.if_chain_step(spec, row, col, action)
                nxt, table_reward, table_terminated = spec.transitions[row * spec.width + col][action]
                assert (nxt, table_terminated) == (r * spec.width + c, terminated)
                assert repr(table_reward) == repr(reward)  # same value and same type
                if spec.cells[row][col] != FLOOR:
                    continue
                env = spec.make_env()
                env.reset(GridState(row, col))
                state, env_reward, env_terminated, truncated = env.step(action)
                assert (state, env_terminated) == (GridState(r, c), terminated)
                assert repr(env_reward) == repr(reward)
                assert truncated == (not terminated and spec.max_steps == 1)


def test_grid_step_matches_the_if_chain_on_presets(flat_spec, holey_spec):
    for spec in (flat_spec, holey_spec):
        assert_steps_like_the_if_chain(spec)


@settings(max_examples=80, deadline=None)
@given(spec=reference.grid_layouts())
def test_grid_step_matches_the_if_chain_on_random_layouts(spec):
    assert_steps_like_the_if_chain(spec)


def test_validate_initial_reasons(flat_spec, holey_spec):
    assert flat_spec.validate_initial(GridState(3, 3)) is None
    assert flat_spec.validate_initial(GridState(0, 5)) is not None
    assert flat_spec.validate_initial(GridState(9, 9)) is not None
    assert holey_spec.validate_initial(GridState(5, 2)) is not None
    assert flat_spec.validate_initial(GridState(40, 2)) is not None


# ---------------------------------------------------------------------------
# shortest-path oracle


def test_flat_optimal_return_from_canonical_start(flat_spec):
    # frozen oracle: 16 moves from (1,1) to (9,9)
    assert bf.optimal_return(flat_spec.cells, flat_spec.target_cell, (1, 1)) == 34.0


def test_holey_optimal_return_detours_around_holes(holey_spec):
    # frozen oracle: barrier forces a 14-move detour from (1,1) to (9,5)
    assert bf.optimal_return(holey_spec.cells, holey_spec.target_cell, (1, 1)) == 36.0


# ---------------------------------------------------------------------------
# reach stepping


def test_reach_moves_scale_and_clip(reach_spec):
    env = reach_spec.make_env()
    env.reset(ReachState((0.14, 0.0, 0.0), (0.0, 0.0, 0.0)))
    state, _, terminated, truncated = env.step((1.0, 0.0, 0.0))
    assert state.effector == (0.15, 0.0, 0.0)  # clipped at the box edge
    assert not terminated and not truncated


def test_reach_reward_is_zero_only_inside_goal_radius(reach_spec):
    env = reach_spec.make_env()
    env.reset(ReachState((0.1, 0.0, 0.0), (0.0, 0.0, 0.0)))
    _, reward, _, _ = env.step((-1.0, 0.0, 0.0))  # distance 0.05, on the edge
    assert reward == 0.0
    env.reset(ReachState((0.12, 0.0, 0.0), (0.0, 0.0, 0.0)))
    _, reward, _, _ = env.step((-1.0, 0.0, 0.0))  # distance 0.07
    assert reward == -1.0


def test_reach_runs_to_horizon_without_terminating(reach_spec):
    env = reach_spec.make_env()
    env.reset(ReachState((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    for step in range(reach_spec.horizon):
        _, reward, terminated, truncated = env.step((0.0, 0.0, 0.0))
        assert reward == 0.0
        assert not terminated
    assert truncated


def test_reach_rejects_bad_actions(reach_spec):
    env = reach_spec.make_env()
    env.reset(ReachState((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    with pytest.raises(ContractViolationError):
        env.step((2.0, 0.0, 0.0))
    with pytest.raises(ContractViolationError):
        env.step((0.0, 0.0))


def test_reach_rejects_out_of_bounds_start(reach_spec):
    assert reach_spec.validate_initial(ReachState((0.2, 0.0, 0.0), (0.0, 0.0, 0.0)))
    assert reach_spec.validate_initial(ReachState((0.0, 0.0, 0.0), (0.1, -0.1, 0.05))) is None


# ---------------------------------------------------------------------------
# shared helpers


def test_position_and_distances(flat_spec, reach_spec):
    assert GridState(3, 7).position == (3.0, 7.0)
    assert ReachState((0.1, 0.0, -0.1), (0.0, 0.0, 0.0)).position == (0.1, 0.0, -0.1)
    assert flat_spec.max_state_distance == math.hypot(10.0, 10.0)
    assert reach_spec.max_state_distance == pytest.approx(math.sqrt(3 * 0.3**2))
    assert flat_spec.state_count == 121
    assert reach_spec.state_count is None


def test_default_encodings_cover_disturbable_coordinates(flat_spec, reach_spec):
    grid_enc = flat_spec.encoding_spec(6)
    assert grid_enc.dims == 2
    assert grid_enc.bounds == ((1, 9), (1, 9))
    reach_enc = reach_spec.encoding_spec(9)
    assert reach_enc.dims == 6
    assert reach_enc.bounds == ((-0.15, 0.15),) * 6
    assert reach_enc.kind == "continuous"


def test_initial_state_from_vector_round_trips(flat_spec, reach_spec):
    assert flat_spec.initial_state_from_vector((4.0, 5.0)) == GridState(4, 5)
    state = reach_spec.initial_state_from_vector((0.1, 0.0, -0.1, 0.05, 0.0, 0.0))
    assert state == ReachState((0.1, 0.0, -0.1), (0.05, 0.0, 0.0))


def test_reach_spec_defaults():
    spec = ReachSpec()
    assert spec.bounds == ((-0.15, 0.15),) * 3
    assert spec.goal_radius == 0.05
    assert spec.horizon == 50
    assert spec.step_size == 0.05
