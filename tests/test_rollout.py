import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qlearning_reference as reference
from helpers import constant_policy, trajectory_from_dict
from evodemo.environments import (
    FLOOR, N_ACTIONS, GridState, ReachSpec, ReachState, clip_like_python, preset,
)
from evodemo.errors import ConfigurationError, ContractViolationError
from evodemo import evolution
from evodemo.evolution import EvolutionConfig, baseline, run
from evodemo.policy import GaussianControllerPolicy, TabularPolicy
from evodemo.report import export_bundle
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
    assert same_bits(spec.rollouts(policy, [start.key for start in starts]), expected)
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


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def controller_action(policy, state):
    """The controller's action in one state, in plain Python: a gain-scaled step
    straight at the target, saturated to [-1, 1] on each axis."""
    return tuple(min(max(policy.gain * (t - x) / policy.step_size, -1.0), 1.0)
                 for x, t in zip(state.effector, state.target))


def controller_certainty(policy, state, action):
    """The mass the controller's Gaussian action model, centred on its own action in
    ``state``, puts within ``window`` of ``action`` on each axis, multiplied over axes."""
    mass = 1.0
    for a, m in zip(action, controller_action(policy, state)):
        if policy.noise_scale == 0.0:
            mass *= 1.0 if abs(a - m) <= policy.window else 0.0
        else:
            offset = a - m
            mass *= normal_cdf((offset + policy.window) / policy.noise_scale) - normal_cdf(
                (offset - policy.window) / policy.noise_scale
            )
    return min(max(mass, 0.0), 1.0)


def reference_reach_rollout(spec, policy, start):
    """One episode in plain Python, deciding and scoring each step by the scalar controller."""
    state = start
    positions = [tuple(float(x) for x in state.effector)]
    actions, rewards, certainties = [], [], []
    while len(actions) < spec.horizon:
        action = controller_action(policy, state)
        certainties.append(controller_certainty(policy, state, action))
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
    zeros = [zero for zero in (0.0, -0.0) if lo <= zero <= hi]
    return st.one_of(st.sampled_from([lo, hi, *zeros]), st.floats(lo, hi))


def starts_in(box):
    points = st.tuples(*(coordinate(lo, hi) for lo, hi in box))
    return st.builds(ReachState, points, points) | points.map(lambda p: ReachState(p, p))


reach_starts = starts_in(BOX)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    box=st.sampled_from([BOX, SKEWED_BOX, BOX[:1], SKEWED_BOX + BOX[:2]]),  # 3, 1 and 5 axes
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
    assert same_bits(spec.rollouts(policy, [start.key for start in starts]), expected)
    assert same_bits([generate(spec, policy, start) for start in starts], expected)


@st.composite
def reach_boxes(draw):
    """Boxes of 1 to 4 axes, some with signed-zero bounds."""
    box = []
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.sampled_from([-0.15, -1.0, 0.0, -0.0]) | st.floats(-1.0, 1.0))
        width = draw(st.sampled_from([0.3, 0.01, 2.0]) | st.floats(1e-3, 2.0))
        box.append((lo, lo + width))
    return tuple(box)


def first_reads(trajectory, eager):
    """Whether each way of reading a trajectory for the first time gives what
    it gives on ``eager``, by name; each is tried on a fresh ``trajectory()``."""
    def copied(t, e):
        twin = t.copy()
        return (same_bits([twin], [e]) and same_bits([t], [e])
                # records built through one are built once for both
                and all(getattr(twin, name) is getattr(t, name)
                        for name in ("states", "actions", "rewards")))

    def pickled(t, e):
        blob = pickle.dumps(t)
        # the field values alone, as an eager trajectory with those values pickles
        return same_bits([pickle.loads(blob)], [e]) and blob == pickle.dumps(dataclasses.replace(t))

    def replaced(t, e):
        return (same_bits([dataclasses.replace(t)], [e])
                and dataclasses.replace(t, outcome=OUTCOME_FAILED)
                == dataclasses.replace(e, outcome=OUTCOME_FAILED))

    reads = {
        "==": lambda t, e: t == e and e == t,
        "hash": lambda t, e: hash(t) == hash(e),
        "repr": lambda t, e: repr(t) == repr(e),
        "pickle": pickled,
        "copy.copy": lambda t, e: same_bits([copy.copy(t)], [e]),
        "copy": copied,
        "replace": replaced,
        "export": lambda t, e: same_bits([t], [e]),
        "field": lambda t, e: t.episode_return == e.episode_return and t.rewards == e.rewards,
    }
    return {name: read(trajectory(), eager) for name, read in reads.items()}


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    box=st.sampled_from([BOX, SKEWED_BOX]) | reach_boxes(),
    radius=st.sampled_from([0.05, 1e-9]) | st.floats(1e-6, 3.0),
    horizon=st.sampled_from([1, 50]) | st.integers(1, 60),
    step_size=st.sampled_from([0.05, 0.03]) | st.floats(1e-3, 1.0),
    # a gain of 2.0 and up overshoots: such a path never settles and runs to the horizon
    gain=st.sampled_from([1.0, 2.0, 3.3]) | st.floats(0.1, 5.0),
)
@example(data=None, box=BOX, radius=0.05, horizon=50, step_size=0.05, gain=2.0)
def test_a_reach_trajectory_read_first_in_any_way_reads_as_the_step_loop(
    data, box, radius, horizon, step_size, gain,
):
    if data is None:  # the explicit example: starts whose paths never settle
        starts = [ReachState((0.0, 0.0, 0.0), (0.01, 0.02, 0.03)),
                  ReachState((0.1, -0.07, 0.02), (-0.03, 0.04, -0.09)),
                  ReachState((0.01, 0.01, 0.01), (0.0, 0.0, 0.0))]
    else:
        starts = data.draw(st.lists(starts_in(box), min_size=1, max_size=5).flatmap(
            lambda starts: st.permutations(starts + starts[:2])  # duplicates in one batch
        ))
    spec = ReachSpec(bounds=box, goal_radius=radius, horizon=horizon, step_size=step_size)
    policy = GaussianControllerPolicy(gain=gain, step_size=step_size)
    expected = [reference_reach_rollout(spec, policy, start) for start in starts]
    for row, (lazy, eager) in enumerate(zip(spec.rollouts(policy, [start.key for start in starts]), expected)):
        # the search's reads: positions and their count, before any record is built
        points = np.array(eager.states, dtype=float)
        assert (lazy.points.shape, lazy.points.tobytes()) == (points.shape, points.tobytes())
        assert lazy.final_length == eager.final_length
        assert not lazy.points.flags.writeable
        reads = first_reads(lambda: spec.rollouts(policy, [start.key for start in starts])[row], eager)
        assert reads == dict.fromkeys(reads, True)
    if data is None:  # none of these settles: each position differs from the one before
        assert [trajectory.final_length for trajectory in expected] == [horizon + 1] * 3


def test_a_reach_search_builds_records_only_for_trajectories_someone_reads(
    tmp_path, monkeypatch,
):
    built = {}  # trajectories whose records were built, by id, held so no id is reused
    build = Trajectory.__getattr__

    def recording(trajectory, name):
        value = build(trajectory, name)
        built[id(trajectory)] = trajectory
        return value

    monkeypatch.setattr(Trajectory, "__getattr__", recording)
    starts = {}  # each rollout and its start, by id of its positions, which a twin's copy shares
    rollouts = ReachSpec.rollouts

    def rollouts_and_keep(env_spec, policy, batch):
        trajectories = rollouts(env_spec, policy, batch)
        starts.update((id(t.points), (t, env_spec.start_state(key)))
                      for t, key in zip(trajectories, batch))
        return trajectories

    scored = []  # trajectories scored since the last observer call
    score = evolution.joint_fitness

    def score_and_keep(trajectory, *args):
        scored.append(trajectory)
        return score(trajectory, *args)

    # offspring dropped in the generation they are made, whether they became
    # an individual that migrate dropped or never became one
    dropped = []
    observed = {}

    def observer(generation, population, demos):
        live = {id(individual.trajectory) for individual in population}
        dropped.extend(trajectory for trajectory in scored if id(trajectory) not in live)
        scored.clear()
        if generation % 2:  # an observer reads the weakest member's return
            observed[id(population[-1].trajectory)] = population[-1].trajectory
            assert population[-1].trajectory.episode_return <= 0.0

    monkeypatch.setattr(ReachSpec, "rollouts", rollouts_and_keep)
    monkeypatch.setattr(evolution, "joint_fitness", score_and_keep)
    spec, policy = ReachSpec(), GaussianControllerPolicy()
    config = EvolutionConfig(population_size=10, generations=8, bits_per_dimension=6, seed=4)
    result = run(spec, policy, config, observer)
    assert len(dropped) > 50 and observed
    assert built.keys() <= observed.keys()  # the search itself builds no record
    export_bundle(result, tmp_path / "bundle")
    population = {id(individual.trajectory) for individual in result.population}
    assert built.keys() <= observed.keys() | population
    assert not built.keys() & {id(trajectory) for trajectory in dropped}
    # a public caller's first read of a dropped offspring builds its records
    for trajectory in dropped[:10]:
        _, start = starts[id(trajectory.points)]
        assert same_bits([trajectory], [reference_reach_rollout(spec, policy, start)])


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
    assert same_bits(spec.rollouts(policy, [start.key]),
                     [reference_reach_rollout(spec, policy, start)])


def test_lockstep_goal_test_follows_math_dist_where_numpy_rounds_up():
    # after the first step the numpy norm reads one ulp above math.dist here,
    # so only the math.dist decision puts that position inside the goal
    start = ReachState((0.111, -0.067, 0.019), (-0.03, 0.034, -0.091))
    spec = ReachSpec(goal_radius=0.12034118164618461)
    policy = GaussianControllerPolicy()
    (trajectory,) = spec.rollouts(policy, [start.key])
    assert trajectory.rewards[0] == 0.0
    assert trajectory == reference_reach_rollout(spec, policy, start)


def test_lockstep_handles_empty_and_single_batches(reach_spec, reach_controller):
    assert reach_spec.rollouts(reach_controller, []) == []
    start = ReachState((0.15, -0.15, 0.0), (0.15, -0.15, 0.0))  # on the bounds, at the target
    (trajectory,) = reach_spec.rollouts(reach_controller, [start.key])
    assert trajectory == reference_reach_rollout(reach_spec, reach_controller, start)
    assert trajectory.states == ((0.15, -0.15, 0.0),)
    assert trajectory.episode_return == 0.0


def test_lockstep_rejects_an_invalid_start(reach_spec, reach_controller):
    inside = ReachState((0.0, 0.0, 0.0), (0.1, 0.1, 0.1))
    outside = ReachState((0.0, 0.0, 0.2), (0.1, 0.1, 0.1))
    with pytest.raises(ContractViolationError):
        reach_spec.rollouts(reach_controller, [inside.key, outside.key])


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
    certainty = controller_certainty(policy, start, controller_action(policy, start))
    assert certainty == policy.step_certainty(3) == 0.31817763901728086


positive = st.floats(0.0, 1e6, exclude_min=True)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dims=st.integers(1, 5), gain=positive, step_size=positive,
       noise_scale=st.sampled_from([0.0, 0.1]) | positive, window=st.just(0.1) | positive)
def test_step_certainty_is_the_scalar_certainty_of_the_action_taken(
    data, dims, gain, step_size, noise_scale, window,
):
    point = st.tuples(*[coordinate(-1.0, 1.0)] * dims)
    state = ReachState(data.draw(point), data.draw(point))
    policy = GaussianControllerPolicy(gain, noise_scale, window, step_size)
    expected = controller_certainty(policy, state, controller_action(policy, state))
    assert policy.step_certainty(dims).hex() == expected.hex()
