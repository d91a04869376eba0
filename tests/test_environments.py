import copy
import dataclasses
import gc
import math
import pickle
import re
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
import qlearning_reference as reference
from helpers import constant_policy
from evodemo.environments import (
    FLOOR,
    HOLE,
    N_ACTIONS,
    OUTCOME_TRUNCATED,
    GridState,
    ReachSpec,
    ReachState,
    parse_layout,
)
from evodemo.errors import ConfigurationError, ContractViolationError
from evodemo.policy import GaussianControllerPolicy, TabularPolicy
from evodemo.rollout import generate

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


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("goal_radius", float("nan")),
        ("goal_radius", "x"),
        ("goal_radius", 0.0),
        ("step_size", float("nan")),
        ("step_size", True),
        ("horizon", 2.5),
        ("horizon", True),
        ("horizon", 0),
        ("bounds", ((float("nan"), 0.15),) * 3),
        ("bounds", ((-0.15, float("inf")),) * 3),
        ("bounds", ((-0.15, 0.15, 0.3),)),
        ("bounds", ((0.15, -0.15),)),
        ("bounds", ()),
    ],
)
def test_reach_spec_rejects_bad_values(field, value):
    with pytest.raises(ConfigurationError, match=field):
        ReachSpec(**{field: value})


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


def step(spec, state, action):
    """``(state, reward, terminated)`` after one move of the transition table."""
    nxt, reward, terminated = spec.transitions[state.row * spec.width + state.col][action]
    return GridState(*divmod(nxt, spec.width)), reward, terminated


def test_grid_step_costs_and_moves(flat_spec):
    state, reward, terminated = step(flat_spec, GridState(1, 1), DOWN)
    assert state == GridState(2, 1)
    assert (reward, terminated) == (-1.0, False)


def test_grid_wall_bump_stays_put(flat_spec):
    state, reward, terminated = step(flat_spec, GridState(1, 1), UP)
    assert state == GridState(1, 1)
    assert (reward, terminated) == (-1.0, False)


def test_grid_target_entry_pays_and_terminates(flat_spec):
    state, reward, terminated = step(flat_spec, GridState(8, 9), DOWN)
    assert state == GridState(9, 9)
    assert reward == 49.0  # step cost plus target payout
    assert terminated


def test_grid_hole_entry_penalizes_and_terminates(holey_spec):
    state, reward, terminated = step(holey_spec, GridState(4, 3), DOWN)
    assert state == GridState(5, 3)
    assert reward == -51.0
    assert terminated


def test_grid_truncates_at_step_limit(flat_spec):
    (trajectory,) = flat_spec.rollouts(constant_policy(flat_spec, UP), [(1, 1)])
    assert trajectory.outcome == OUTCOME_TRUNCATED
    assert trajectory.raw_length == flat_spec.max_steps


def test_grid_rejects_bad_resets_and_policies(flat_spec, holey_spec):
    for spec, start, reason in ((flat_spec, (0, 0), "wall cell"),
                                (flat_spec, (9, 9), "target cell"),
                                (holey_spec, (5, 1), "hole cell"),
                                (flat_spec, (11, 3), "outside the grid")):
        with pytest.raises(ContractViolationError, match=re.escape(f"at {start}: {reason}")):
            spec.rollouts(constant_policy(spec, RIGHT), [(1, 1), start])
    # a key names a start only by its (row, col) pair
    for key in ((0.0,) * 6, (1,), (1, 1, 1), ReachState((0.0,) * 3, (0.0,) * 3), GridState(1, 1)):
        with pytest.raises(ContractViolationError, match="not a start key of a GridSpec"):
            flat_spec.rollouts(constant_policy(flat_spec, RIGHT), [(1, 1), key])
    # a grid rollout reads a tabular policy's decision table; an object that
    # answers per state instead is refused
    duck_typed = SimpleNamespace(act=lambda state: RIGHT, certainty=lambda state, action: 1.0)
    for policy, name in ((duck_typed, "SimpleNamespace"),
                         (GaussianControllerPolicy(), "GaussianControllerPolicy")):
        with pytest.raises(ConfigurationError, match=f"need a tabular policy, not {name}"):
            flat_spec.rollouts(policy, [(1, 1)])


def test_a_rollout_table_serves_one_policy_on_one_layout(flat_spec, holey_spec):
    # the shared fixture specs may hold tables already; a new spec object of the
    # same layout starts empty, so it walks every episode afresh
    down = constant_policy(flat_spec, DOWN)
    q = down.q_values.copy()
    q[3, 1] = (0.0, 1.0, 0.0, 0.0)  # one cell turns right
    turning = TabularPolicy(q)
    starts = [(1, 1), (2, 1), (4, 1)]
    fresh = {name: parse_layout("\n".join(spec.cells)) for name, spec in
             (("flat", flat_spec), ("holey", holey_spec))}
    by_down = flat_spec.rollouts(down, starts)
    by_turning = flat_spec.rollouts(turning, starts)
    assert by_down == fresh["flat"].rollouts(down, starts)
    assert by_turning == fresh["flat"].rollouts(turning, starts)
    assert by_turning[:2] != by_down[:2]  # both pass the turning cell
    assert by_turning[2] == by_down[2]
    assert flat_spec.rollout_table(down) is not flat_spec.rollout_table(turning)
    # two 11x11 layouts, one policy: down column 1 crosses a hole only on HoleyGrid11
    on_holey = holey_spec.rollouts(down, starts)
    assert on_holey == fresh["holey"].rollouts(down, starts)
    assert [t.outcome for t in on_holey] == ["failed"] * 3
    assert {t.outcome for t in by_down} == {"truncated"}
    assert holey_spec.rollout_table(down) is not flat_spec.rollout_table(down)
    # a policy whose decisions are replaced gets a new table
    down.decisions = turning.decisions
    assert flat_spec.rollouts(down, starts) == by_turning
    # the layout holds the policy only weakly: the table goes with it
    table = weakref.ref(flat_spec.rollout_table(turning))
    del down, turning
    gc.collect()
    assert table() is None


def test_rollouts_are_new_objects_sharing_the_tables_tuples(flat_spec):
    policy = constant_policy(flat_spec, RIGHT)
    first, again = flat_spec.rollouts(policy, [(2, 2), (2, 2)])
    (later,) = flat_spec.rollouts(policy, [(2, 2)])
    assert len({id(first), id(again), id(later)}) == 3
    assert first.states is again.states is later.states
    table = flat_spec.rollout_table(policy)
    assert list(table.trajectories) == [2 * 11 + 2]
    assert table.cell(later) == 2 * 11 + 2
    # an equal trajectory that does not share the table's tuples has no cell
    assert table.cell(dataclasses.replace(later, states=tuple(list(later.states)))) is None


def test_a_layout_pickles_and_copies_without_its_rollout_tables(flat_spec):
    policy = constant_policy(flat_spec, RIGHT)
    (walked,) = flat_spec.rollouts(policy, [(3, 3)])
    for twin in (pickle.loads(pickle.dumps(flat_spec)), copy.copy(flat_spec)):
        assert twin == flat_spec
        assert twin.rollout_table(policy).trajectories == {}
        assert twin.rollouts(policy, [(3, 3)]) == [walked]
    assert flat_spec.rollout_table(policy).trajectories  # the original keeps its own


def assert_steps_like_the_if_chain(spec):
    """Every interior (cell, action): the table, and a one-step rollout from every floor cell."""
    one_step = dataclasses.replace(spec, max_steps=1)
    policies = [constant_policy(spec, action) for action in range(N_ACTIONS)]
    for row in range(1, spec.height - 1):
        for col in range(1, spec.width - 1):
            for action in range(N_ACTIONS):
                r, c, reward, terminated = reference.if_chain_step(spec, row, col, action)
                nxt, table_reward, table_terminated = spec.transitions[row * spec.width + col][action]
                assert (nxt, table_terminated) == (r * spec.width + c, terminated)
                assert repr(table_reward) == repr(reward)  # same value and same type
                if spec.cells[row][col] != FLOOR:
                    continue
                (trajectory,) = one_step.rollouts(policies[action], [(row, col)])
                assert trajectory.states[-1] == (float(r), float(c))
                assert trajectory.rewards == (float(reward),)
                assert (trajectory.outcome == OUTCOME_TRUNCATED) == (not terminated)


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
    # a controller tuned for smaller steps asks for a full-size move past the box
    policy = GaussianControllerPolicy(step_size=0.01)
    (trajectory,) = reach_spec.rollouts(policy, [(0.14, 0.0, 0.0, 0.15, 0.0, 0.0)])
    assert trajectory.states[1] == (0.15, 0.0, 0.0)  # clipped at the box edge


def test_reach_reward_is_zero_only_inside_goal_radius(reach_spec, reach_controller):
    (on_edge, outside) = reach_spec.rollouts(reach_controller, [
        (0.1, 0.0, 0.0, 0.0, 0.0, 0.0),  # one full step left: distance 0.05
        (0.12, 0.0, 0.0, 0.0, 0.0, 0.0),  # distance 0.07
    ])
    assert on_edge.states[1] == (0.05, 0.0, 0.0)
    assert on_edge.rewards[0] == 0.0
    assert outside.rewards[0] == -1.0


def test_reach_runs_to_horizon_without_terminating(reach_spec, reach_controller):
    (trajectory,) = reach_spec.rollouts(reach_controller, [(0.0,) * 6])
    assert trajectory.rewards == (0.0,) * reach_spec.horizon
    assert trajectory.outcome == OUTCOME_TRUNCATED


def test_reach_rejects_out_of_bounds_start(reach_spec):
    assert reach_spec.validate_initial(ReachState((0.2, 0.0, 0.0), (0.0, 0.0, 0.0)))
    assert reach_spec.validate_initial(ReachState((0.0, 0.0, 0.0), (0.1, -0.1, 0.05))) is None


# ---------------------------------------------------------------------------
# shared helpers


def test_position_and_distances(flat_spec, reach_spec, reach_controller):
    assert flat_spec.positions[3 * 11 + 7] == (3.0, 7.0)
    assert flat_spec.positions == tuple((float(r), float(c)) for r in range(11) for c in range(11))
    start = ReachState((0.1, 0.0, -0.1), (0.0, 0.0, 0.0))
    assert reach_spec.rollouts(reach_controller, [start.key])[0].states[0] == (0.1, 0.0, -0.1)
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


def test_starts_from_vectors_assemble_states(flat_spec, holey_spec, reach_spec):
    # a valid vector is its start's key, and start_state makes that start of it
    assert flat_spec.starts_from_vectors([(4, 5), (9, 9), (1, 1)]) == [
        GridState(4, 5).key, None, GridState(1, 1).key,  # (9, 9) is the target
    ]
    assert flat_spec.start_state((4, 5)) == GridState(4, 5)
    assert holey_spec.starts_from_vectors([(5, 2)]) == [None]  # a hole
    assert flat_spec.starts_from_vectors([]) == []
    valid = ReachState((0.1, 0.0, -0.1), (0.05, 0.0, 0.0))
    assert reach_spec.starts_from_vectors([
        (0.1, 0.0, -0.1, 0.05, 0.0, 0.0), (0.1, 0.0, -0.1, 0.05, 0.0, 0.2),
    ]) == [valid.key, None]
    assert reach_spec.start_state(valid.key) == valid
    assert reach_spec.starts_from_vectors([]) == []


@settings(max_examples=60, deadline=None)
@given(spec=reference.grid_layouts())
def test_grid_start_table_agrees_with_validate_initial(spec):
    for r in range(spec.height):
        for c in range(spec.width):
            state = GridState(r, c)
            reason = spec.validate_initial(state)
            (key,) = spec.starts_from_vectors([(r, c)])
            assert key == (state.key if reason is None else None)
            assert spec.start_state(state.key) == state
            policy = constant_policy(spec, UP)
            if reason is None:
                spec.rollouts(policy, [state.key])
            else:
                with pytest.raises(ContractViolationError,
                                   match=rf"cannot start an episode at \({r}, {c}\): {reason}"):
                    spec.rollouts(policy, [spec.canonical_start.key, state.key])


@settings(max_examples=150, deadline=None)
@given(vector=st.lists(
    st.sampled_from([-0.15, 0.15, -0.0, 0.1500001, -0.2, math.nan, math.inf])
    | st.floats(-0.2, 0.2),
    min_size=6, max_size=6,
))
def test_reach_start_check_agrees_with_validate_initial(reach_spec, reach_controller, vector):
    state = ReachState(tuple(vector[:3]), tuple(vector[3:]))
    valid = reach_spec.validate_initial(state) is None
    assert state.key == tuple(vector)
    (key,) = reach_spec.starts_from_vectors([tuple(vector)])
    assert key == (state.key if valid else None)
    assert reach_spec.start_state(state.key) == state
    if valid:
        reach_spec.rollouts(reach_controller, [state.key])
    else:
        with pytest.raises(ContractViolationError, match="coordinate outside bounds"):
            reach_spec.rollouts(reach_controller, [(0.0,) * 6, state.key])


@pytest.mark.parametrize("start,reason", [
    ((0.0,) * 5, "wrong dimensionality"),
    ((0.0,) * 7, "wrong dimensionality"),
    ((1, 1), "wrong dimensionality"),
    (((0.0,) * 3, (0.0,) * 3), "wrong dimensionality"),
    ((0.0,) * 5 + ("x",), "not a start key of a ReachSpec"),
    (GridState(1, 1), "not a start key of a ReachSpec"),
    (ReachState((0.0,) * 3, (0.0,) * 3), "not a start key of a ReachSpec"),
])
def test_reach_rollouts_reject_starts_of_another_shape(reach_spec, reach_controller, start, reason):
    with pytest.raises(ContractViolationError, match=reason):
        reach_spec.rollouts(reach_controller, [(0.0,) * 6, start])


@pytest.mark.parametrize("start,reason", [
    (ReachState((0.0, 0.0), (0.0, 0.0, 0.0)), "wrong dimensionality"),
    (ReachState((0.0, 0.0, 0.0, 0.0), (0.0, 0.0)), "wrong dimensionality"),
    (ReachState((0.0,) * 3, (0.0,) * 4), "wrong dimensionality"),
    (GridState(1, 1), "expected ReachState"),
])
def test_generate_rejects_reach_states_of_another_shape(reach_spec, reach_controller, start, reason):
    # the first two have a six-coordinate key that rollouts alone would accept
    with pytest.raises(ContractViolationError, match=reason):
        generate(reach_spec, reach_controller, start)


def test_reach_spec_defaults():
    spec = ReachSpec()
    assert spec.bounds == ((-0.15, 0.15),) * 3
    assert spec.goal_radius == 0.05
    assert spec.horizon == 50
    assert spec.step_size == 0.05
