import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlearning_reference as reference
from helpers import constant_policy, trajectory_from_dict
from evodemo.environments import (
    FLOOR, N_ACTIONS, GridState, ReachSpec, ReachState, clip_like_python, preset,
)
from evodemo.errors import ConfigurationError, ContractViolationError
from evodemo.evolution import EvolutionConfig, baseline, run
from evodemo.policy import GaussianControllerPolicy, TabularPolicy
from evodemo.rollout import (
    OUTCOME_FAILED,
    OUTCOME_REACHED,
    OUTCOME_TRUNCATED,
    Trajectory,
    generate,
    trajectory_to_dict,
)

UP, RIGHT, DOWN, LEFT = 0, 1, 2, 3


def test_successful_rollout_records_full_step_data(flat_spec, well_trained_policy):
    trajectory = generate(flat_spec, well_trained_policy, GridState(1, 1))
    assert trajectory.outcome == OUTCOME_REACHED
    assert trajectory.episode_return == 34.0
    assert trajectory.raw_length == 16
    assert len(trajectory.states) == 17  # optimal path never revisits a cell
    assert len(trajectory.actions) == 16
    assert len(trajectory.rewards) == 16
    assert len(trajectory.certainties) == 16
    assert trajectory.states[0] == (1.0, 1.0)
    assert trajectory.states[-1] == (9.0, 9.0)
    assert trajectory.episode_return == sum(trajectory.rewards)
    assert all(0.0 <= c <= 1.0 for c in trajectory.certainties)


def test_wall_bumps_collapse_to_one_state(flat_spec):
    policy = constant_policy(flat_spec, UP)  # pinned against the top wall
    trajectory = generate(flat_spec, policy, GridState(1, 5))
    assert trajectory.outcome == OUTCOME_TRUNCATED
    assert trajectory.raw_length == flat_spec.max_steps
    assert trajectory.states == ((1.0, 5.0),)
    assert trajectory.final_length == 1
    assert trajectory.episode_return == -float(flat_spec.max_steps)
    # per-step channels keep the pre-collapse length
    assert len(trajectory.certainties) == flat_spec.max_steps


def test_only_consecutive_duplicates_are_dropped(flat_spec):
    # right until the wall, then pinned: revisited cells stay, the pinned tail collapses
    policy = constant_policy(flat_spec, RIGHT)
    trajectory = generate(flat_spec, policy, GridState(3, 7))
    assert trajectory.states == ((3.0, 7.0), (3.0, 8.0), (3.0, 9.0))
    assert trajectory.raw_length == flat_spec.max_steps


def test_hole_entry_is_a_failed_outcome(holey_spec):
    policy = constant_policy(holey_spec, DOWN)
    trajectory = generate(holey_spec, policy, GridState(3, 2))
    assert trajectory.outcome == OUTCOME_FAILED
    assert trajectory.episode_return == -52.0  # one floor step, then the hole
    assert trajectory.states[-1] == (5.0, 2.0)


def test_target_entry_is_a_reached_outcome(holey_spec):
    policy = constant_policy(holey_spec, DOWN)
    trajectory = generate(holey_spec, policy, GridState(7, 5))
    assert trajectory.outcome == OUTCOME_REACHED
    assert trajectory.episode_return == 48.0


def test_reach_rollout_dedups_the_settled_tail(reach_spec, reach_controller):
    start = ReachState((-0.15, -0.15, -0.15), (0.15, 0.15, 0.15))
    trajectory = generate(reach_spec, reach_controller, start)
    assert trajectory.outcome == OUTCOME_TRUNCATED
    assert trajectory.raw_length == reach_spec.horizon
    assert trajectory.final_length == 7  # six full-size moves, then a fixed point
    assert trajectory.states[0] == (-0.15, -0.15, -0.15)
    assert trajectory.states[-1] == (0.15, 0.15, 0.15)


def test_reach_rollout_never_terminates_early(reach_spec, reach_controller):
    start = ReachState((0.0, 0.0, 0.0), (0.01, 0.0, 0.0))
    trajectory = generate(reach_spec, reach_controller, start)
    assert trajectory.outcome == OUTCOME_TRUNCATED
    assert trajectory.raw_length == reach_spec.horizon


def test_trajectory_validation_rejects_mismatched_channels():
    with pytest.raises(ContractViolationError):
        Trajectory(
            states=((0.0, 0.0),),
            actions=(1,),
            rewards=(-1.0, -1.0),  # one reward too many
            certainties=(0.5,),
            raw_length=1,
            episode_return=-1.0,
            outcome=OUTCOME_TRUNCATED,
        )
    with pytest.raises(ContractViolationError):
        Trajectory(
            states=((0.0, 0.0),),
            actions=(1,),
            rewards=(-1.0,),
            certainties=(0.5,),
            raw_length=1,
            episode_return=-1.0,
            outcome="exploded",
        )


def test_grid_trajectory_round_trips_through_dict(flat_spec, well_trained_policy):
    trajectory = generate(flat_spec, well_trained_policy, GridState(5, 5))
    data = trajectory_to_dict(trajectory)
    assert trajectory_from_dict(data) == trajectory


def test_reach_trajectory_round_trips_through_dict(reach_spec, reach_controller):
    start = ReachState((0.1, -0.1, 0.0), (-0.1, 0.1, 0.0))
    trajectory = generate(reach_spec, reach_controller, start)
    restored = trajectory_from_dict(trajectory_to_dict(trajectory))
    assert restored == trajectory


def test_rollouts_are_deterministic(flat_spec, well_trained_policy):
    a = generate(flat_spec, well_trained_policy, GridState(7, 2))
    b = generate(flat_spec, well_trained_policy, GridState(7, 2))
    assert a == b


def same_bits(trajectories, expected):
    """Equal, and equal in the exported text too (which tells -0.0 from 0.0)."""
    def text(ts):
        return [json.dumps(trajectory_to_dict(t)) for t in ts]

    return trajectories == expected and text(trajectories) == text(expected)


# ---------------------------------------------------------------------------
# grid rollouts on the transition table


def floor_starts(spec):
    return [GridState(r, c) for r, row in enumerate(spec.cells)
            for c, cell in enumerate(row) if cell == FLOOR]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), spec=reference.grid_layouts(),
       temperature=st.sampled_from([0.05, 1.0, 7.5]))
def test_grid_rollouts_match_the_step_loop(data, spec, temperature):
    starts = data.draw(st.lists(st.sampled_from(floor_starts(spec)), max_size=6).flatmap(
        lambda starts: st.permutations(starts + starts[:2])  # duplicates in one batch
    ))
    # few distinct values make ties, which resolve to the first action
    values = st.sampled_from([0.0, 1.0, -2.5]) | st.floats(-60.0, 60.0)
    q = data.draw(st.lists(values, min_size=spec.state_count * N_ACTIONS,
                           max_size=spec.state_count * N_ACTIONS))
    policy = TabularPolicy(np.reshape(q, (spec.height, spec.width, N_ACTIONS)), temperature)
    expected = [reference.stepped_rollout(spec, policy, start) for start in starts]
    assert same_bits(spec.rollouts(policy, starts), expected)
    assert same_bits([generate(spec, policy, start) for start in starts], expected)


THIRTEEN_BY_THIRTEEN = TabularPolicy(np.zeros((13, 13, N_ACTIONS)))


@pytest.mark.parametrize(("name", "policy", "start", "misfit"), [
    ("FlatGrid11", THIRTEEN_BY_THIRTEEN, GridState(1, 1),
     "policy table is 13x13 but the grid is 11x11"),
    ("FlatGrid11", GaussianControllerPolicy(), GridState(1, 1),
     "need a tabular policy, not GaussianControllerPolicy"),
    ("PointReach", THIRTEEN_BY_THIRTEEN, ReachState((0.0,) * 3, (0.1,) * 3),
     "needs a gaussian_controller policy, not TabularPolicy"),
])
def test_library_rollouts_reject_a_policy_that_does_not_fit(name, policy, start, misfit):
    spec = preset(name)
    config = EvolutionConfig(population_size=4, generations=1)
    for call in (lambda: run(spec, policy, config), lambda: baseline(spec, policy, config),
                 lambda: generate(spec, policy, start)):
        with pytest.raises(ConfigurationError, match=misfit):
            call()


# ---------------------------------------------------------------------------
# reach rollouts in lockstep


def reference_reach_rollout(spec, policy, start):
    """One episode in plain Python, with per-step act/certainty calls."""
    state = start
    positions = [tuple(float(x) for x in state.effector)]
    actions, rewards, certainties = [], [], []
    while len(actions) < spec.horizon:
        action = policy.act(state)
        certainties.append(float(policy.certainty(state, action)))
        effector = tuple(min(max(x + spec.step_size * a, lo), hi)
                         for x, a, (lo, hi) in zip(state.effector, action, spec.bounds))
        state = ReachState(effector, state.target)
        actions.append(action)
        rewards.append(0.0 if math.dist(effector, state.target) <= spec.goal_radius else -1.0)
        positions.append(effector)
    states = [positions[0]]
    for point in positions[1:]:
        if point != states[-1]:
            states.append(point)
    return Trajectory(tuple(states), tuple(actions), tuple(rewards), tuple(certainties),
                      len(actions), float(sum(rewards)), OUTCOME_TRUNCATED)


BOX = ((-0.15, 0.15),) * 3
# a box whose bounds include signed zeros, where clipping has to pick the builtins' zero
SKEWED_BOX = ((0.0, 0.5), (-0.5, -0.0), (-1.0, 0.0))


def coordinate(lo, hi):
    # bounds and zeros are drawn often: clipping and settling meet there
    return st.one_of(st.sampled_from([lo, hi, 0.0, -0.0]), st.floats(lo, hi))


def starts_in(box):
    points = st.tuples(*(coordinate(lo, hi) for lo, hi in box))
    return st.builds(ReachState, points, points) | points.map(lambda p: ReachState(p, p))


reach_starts = starts_in(BOX)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    box=st.sampled_from([BOX, SKEWED_BOX]),
    gain=st.sampled_from([1.0, 0.7, 2.0, 3.3]),  # 2.0 and up overshoot and never settle
    step_size=st.sampled_from([0.05, 0.03]),
    horizon=st.sampled_from([1, 7, 50]),
)
def test_lockstep_matches_the_step_loop(data, box, gain, step_size, horizon):
    starts = data.draw(st.lists(starts_in(box), max_size=6).flatmap(
        lambda starts: st.permutations(starts + starts[:2])  # duplicates in one batch
    ))
    spec = ReachSpec(bounds=box, horizon=horizon)
    policy = GaussianControllerPolicy(gain=gain, step_size=step_size)
    expected = [reference_reach_rollout(spec, policy, start) for start in starts]
    assert same_bits(spec.rollouts(policy, starts), expected)
    assert same_bits([generate(spec, policy, start) for start in starts], expected)


@settings(max_examples=40, deadline=None)
@given(start=reach_starts, step=st.integers(1, 12), nudge=st.sampled_from([-1, 0, 1]))
def test_lockstep_goal_test_at_exactly_the_radius(start, step, nudge):
    # a goal radius equal to math.dist at one visited position, or one ulp off
    states = reference_reach_rollout(ReachSpec(bounds=BOX), GaussianControllerPolicy(), start).states
    distance = math.dist(states[min(step, len(states) - 1)], start.target)
    radius = math.nextafter(distance, nudge * math.inf) if nudge else distance
    if radius <= 0:
        return
    spec = ReachSpec(bounds=BOX, goal_radius=radius)
    policy = GaussianControllerPolicy()
    assert same_bits(spec.rollouts(policy, [start]),
                     [reference_reach_rollout(spec, policy, start)])


def test_lockstep_goal_test_follows_math_dist_where_numpy_rounds_up():
    # after the first step the numpy norm reads one ulp above math.dist here,
    # so only the math.dist decision puts that position inside the goal
    start = ReachState((0.111, -0.067, 0.019), (-0.03, 0.034, -0.091))
    spec = ReachSpec(goal_radius=0.12034118164618461)
    policy = GaussianControllerPolicy()
    (trajectory,) = spec.rollouts(policy, [start])
    assert trajectory.rewards[0] == 0.0
    assert trajectory == reference_reach_rollout(spec, policy, start)


def test_lockstep_handles_empty_and_single_batches(reach_spec, reach_controller):
    assert reach_spec.rollouts(reach_controller, []) == []
    start = ReachState((0.15, -0.15, 0.0), (0.15, -0.15, 0.0))  # on the bounds, at the target
    (trajectory,) = reach_spec.rollouts(reach_controller, [start])
    assert trajectory == reference_reach_rollout(reach_spec, reach_controller, start)
    assert trajectory.states == ((0.15, -0.15, 0.0),)
    assert trajectory.episode_return == 0.0


def test_lockstep_rejects_an_invalid_start(reach_spec, reach_controller):
    inside = ReachState((0.0, 0.0, 0.0), (0.1, 0.1, 0.1))
    outside = ReachState((0.0, 0.0, 0.2), (0.1, 0.1, 0.1))
    with pytest.raises(ContractViolationError):
        reach_spec.rollouts(reach_controller, [inside, outside])


@settings(max_examples=50, deadline=None)
@given(x=st.lists(coordinate(-1.0, 1.0), min_size=3, max_size=3),
       t=st.lists(coordinate(-1.0, 1.0), min_size=3, max_size=3),
       gain=st.sampled_from([1.0, 0.3, 7.0]), step_size=st.sampled_from([0.05, 0.5, 2.0]),
       bounds=st.sampled_from([BOX, SKEWED_BOX]))
def test_array_formulas_equal_the_scalar_ones_bit_for_bit(x, t, gain, step_size, bounds):
    lo, hi = np.array(bounds).T
    policy = GaussianControllerPolicy(gain=gain, step_size=step_size)
    action = policy.mean_actions(np.array(x), np.array(t)).tolist()
    scalar_action = [min(max(gain * (ti - xi) / step_size, -1.0), 1.0) for xi, ti in zip(x, t)]
    assert [a.hex() for a in action] == [a.hex() for a in scalar_action]
    # the clipped move ReachSpec.rollouts makes
    moved = clip_like_python(np.array(x) + step_size * np.array(action), lo, hi).tolist()
    scalar_moved = [min(max(xi + step_size * a, b_lo), b_hi)
                    for xi, a, (b_lo, b_hi) in zip(x, action, bounds)]
    assert [m.hex() for m in moved] == [m.hex() for m in scalar_moved]


@settings(max_examples=50, deadline=None)
@given(start=reach_starts)
def test_controller_certainty_is_constant(start):
    # the controller acts at its own mean, so the offset is zero on every axis
    policy = GaussianControllerPolicy()
    assert policy.certainty(start, policy.act(start)) == 0.31817763901728086
