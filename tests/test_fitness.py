import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
import pairwise
import qlearning_reference as reference
from helpers import demo_set
from evodemo import fitness
from evodemo.environments import ReachSpec, parse_layout
from evodemo.errors import ContractViolationError
from evodemo.fitness import (
    EMPTY_SET_GLOBAL_DIVERSITY,
    EMPTY_SET_LOCAL_DISTANCE,
    DemonstrationSet,
    FitnessComponents,
    joint_fitness,
    local_diversity,
    trajectory_certainty,
)
from evodemo.policy import TabularPolicy
from evodemo.rollout import Trajectory

SMALL_GRID = parse_layout("#####\n#...#\n#.T.#\n#...#\n#####")  # 5x5, 25 states


def make_traj(states, certainties=None, raw_length=None):
    states = tuple(tuple(float(x) for x in s) for s in states)
    raw = raw_length if raw_length is not None else max(len(states) - 1, 1)
    certs = tuple(certainties) if certainties is not None else (0.5,) * raw
    assert len(certs) == raw
    return Trajectory(
        states=states,
        actions=(0,) * raw,
        rewards=(-1.0,) * raw,
        certainties=certs,
        raw_length=raw,
        episode_return=-float(raw),
        outcome="truncated",
    )


def one_way_distance(u, v):
    """The library's one-way distance from ``u`` to a set holding only ``v``."""
    (distance,) = demo_set([v], SMALL_GRID).nearest_distances([u])
    return distance


# ---------------------------------------------------------------------------
# single-trajectory metrics


def test_local_diversity_counts_distinct_cells(flat_spec):
    traj = make_traj([(1, 1), (1, 2), (1, 1), (2, 1)], raw_length=5)
    assert local_diversity(traj, flat_spec) == 3 / 121


def test_local_diversity_continuous_uses_collapsed_share(reach_spec):
    traj = make_traj([(0.0, 0.0, 0.0), (0.05, 0.0, 0.0)], raw_length=49)
    assert local_diversity(traj, reach_spec) == 2 / 50


def test_certainty_is_mean_over_executed_steps():
    traj = make_traj([(1, 1), (1, 2)], certainties=(1.0, 0.5, 0.25), raw_length=3)
    assert trajectory_certainty(traj) == pytest.approx((1.0 + 0.5 + 0.25) / 3)


def test_one_way_distance_takes_nearest_points():
    point = make_traj([(0.0, 0.0)], raw_length=1)
    traj = make_traj([(1.0, 0.0), (5.0, 5.0)])
    # the point's nearest trajectory point is 1 away; each trajectory point's is the point
    assert one_way_distance(point, traj) == pytest.approx((2.0 + math.sqrt(50.0)) / 3, abs=1e-15)


def test_one_way_distance_matches_hand_computation():
    u = make_traj([(0.0, 0.0), (0.0, 1.0)])
    v = make_traj([(1.0, 0.0)])
    # frozen oracle: (1 + sqrt(2) + 1) / 3
    assert one_way_distance(u, v) == pytest.approx((2.0 + math.sqrt(2.0)) / 3.0, abs=1e-15)
    assert one_way_distance(u, v) == one_way_distance(v, u)


def test_one_way_distance_of_identical_trajectories_is_zero():
    u = make_traj([(2.0, 3.0), (2.0, 4.0), (3.0, 4.0)])
    assert one_way_distance(u, dataclasses.replace(u)) == 0.0


# ---------------------------------------------------------------------------
# set-level metrics


def test_global_diversity_normalizes_by_grid_diameter(flat_spec):
    a = make_traj([(1.0, 1.0)])
    b = make_traj([(9.0, 9.0)])
    demos = demo_set([a, b], flat_spec)
    # frozen oracle: sqrt(128) / sqrt(200)
    assert joint_fitness(a, demos, flat_spec).global_diversity == pytest.approx(0.8, abs=1e-15)
    assert pairwise.global_diversity(a, demos, flat_spec) == pytest.approx(0.8, abs=1e-15)


def test_global_diversity_alone_in_the_set(flat_spec):
    a = make_traj([(4.0, 4.0)])
    demos = demo_set([a], flat_spec)
    assert joint_fitness(a, demos, flat_spec).global_diversity == EMPTY_SET_GLOBAL_DIVERSITY == 1.0
    assert pairwise.global_diversity(a, demos, flat_spec) == 1.0


def test_empty_set_sentinels(flat_spec):
    a = make_traj([(4.0, 4.0)])
    demos = demo_set([a], flat_spec)
    components = joint_fitness(a, demos, flat_spec)
    assert components.global_diversity == 1.0
    assert components.local_distance == EMPTY_SET_LOCAL_DISTANCE == math.sqrt(2.0)
    assert components.joint == 1.0 + math.sqrt(2.0)


def test_duplicate_trajectory_scores_zero(flat_spec):
    original = make_traj([(2.0, 2.0), (2.0, 3.0), (3.0, 3.0)])
    copy = dataclasses.replace(original)  # same values, distinct identity
    demos = demo_set([original, copy], flat_spec)
    components = joint_fitness(original, demos, flat_spec)
    assert components.global_diversity == 0.0
    assert components.local_distance == 0.0
    assert components.joint == 0.0


def test_own_membership_is_excluded_by_identity_not_value(flat_spec):
    a = make_traj([(1.0, 1.0), (1.0, 2.0)])
    b = make_traj([(8.0, 8.0)])
    demos = demo_set([a, b], flat_spec)
    # scoring a member only removes that exact object from the comparison
    components = joint_fitness(a, demos, flat_spec)
    expected = one_way_distance(a, b) / math.hypot(10.0, 10.0)
    assert components.global_diversity == pytest.approx(expected, abs=1e-15)


def test_joint_is_global_diversity_plus_profile_distance(flat_spec):
    a = make_traj([(1.0, 1.0), (1.0, 2.0)], certainties=(0.9,) * 2, raw_length=2)
    b = make_traj([(5.0, 5.0)], certainties=(0.3,), raw_length=1)
    c = make_traj([(9.0, 1.0), (8.0, 1.0)], certainties=(0.5,) * 2, raw_length=2)
    demos = demo_set([a, b, c], flat_spec)
    components = joint_fitness(a, demos, flat_spec)
    assert components.joint == components.global_diversity + components.local_distance
    profiles = [
        (local_diversity(t, flat_spec), trajectory_certainty(t)) for t in (b, c)
    ]
    own = (local_diversity(a, flat_spec), trajectory_certainty(a))
    expected_ld = min(math.hypot(own[0] - p[0], own[1] - p[1]) for p in profiles)
    assert components.local_distance == pytest.approx(expected_ld, abs=1e-15)


# ---------------------------------------------------------------------------
# demonstration-set bookkeeping


def test_discard_removes_by_identity(flat_spec):
    original = make_traj([(3.0, 3.0)])
    twin = dataclasses.replace(original)
    demos = demo_set([original, twin], flat_spec)
    demos.discard(original)
    assert len(demos) == 1
    assert [entry.trajectory for entry in demos] == [twin]


def test_discard_of_a_non_member_raises(flat_spec):
    demos = demo_set([make_traj([(3.0, 3.0)])], flat_spec)
    with pytest.raises(ContractViolationError):
        demos.discard(make_traj([(3.0, 3.0)]))


def test_discard_keeps_the_order_of_the_rest(flat_spec):
    first, second = make_traj([(3.0, 3.0)]), make_traj([(4.0, 4.0)])
    twin = dataclasses.replace(first)
    demos = demo_set([first, second, twin, first], flat_spec)  # first is a member twice
    with pytest.raises(ContractViolationError):
        demos.discard(dataclasses.replace(first))  # equal to members, but none of them
    assert [id(t) for t in demos.trajectories()] == [id(first), id(second), id(twin), id(first)]
    demos.discard(first)  # its older entry
    assert [id(t) for t in demos.trajectories()] == [id(second), id(twin), id(first)]
    demos.discard(first)
    assert [id(t) for t in demos.trajectories()] == [id(second), id(twin)]
    with pytest.raises(ContractViolationError):
        demos.discard(first)
    assert [entry.trajectory for entry in demos] == [second, twin]
    assert demos.nearest_distances([twin]) == [pytest.approx(math.sqrt(2.0))]


def test_entries_cache_profiles(flat_spec):
    a = make_traj([(1.0, 1.0), (2.0, 1.0)], certainties=(0.25, 0.75), raw_length=2)
    demos = demo_set([a], flat_spec)
    (entry,) = demos
    assert entry.local_diversity == 2 / 121
    assert entry.certainty == 0.5


# ---------------------------------------------------------------------------
# randomized equivalence with the loop oracle


def test_metrics_match_bruteforce_on_random_cases():
    rng = np.random.default_rng(42)
    diameter = bf.point_distance((0.0, 0.0), (4.0, 4.0))
    for _ in range(60):
        trajs = []
        for _ in range(int(rng.integers(2, 5))):
            length = int(rng.integers(1, 7))
            states = [
                (float(rng.integers(1, 4)), float(rng.integers(1, 4))) for _ in range(length)
            ]
            # collapse consecutive duplicates the way rollouts do
            collapsed = [states[0]]
            for s in states[1:]:
                if s != collapsed[-1]:
                    collapsed.append(s)
            certs = tuple(float(rng.random()) for _ in range(length))
            trajs.append(make_traj(collapsed, certainties=certs, raw_length=length))

        demos = demo_set(trajs, SMALL_GRID)
        for traj in trajs:
            got = joint_fitness(traj, demos, SMALL_GRID)
            others = [t for t in trajs if t is not traj]
            expected_dl = bf.local_diversity(traj.states, 25, traj.raw_length)
            expected_c = bf.certainty(traj.certainties)
            expected_dg = bf.global_diversity(
                traj.states, [t.states for t in others], diameter
            )
            expected_ld = bf.local_distance(
                (expected_dl, expected_c),
                [
                    (bf.local_diversity(t.states, 25, t.raw_length), bf.certainty(t.certainties))
                    for t in others
                ],
            )
            assert got.local_diversity == pytest.approx(expected_dl, abs=1e-12)
            assert got.certainty == pytest.approx(expected_c, abs=1e-12)
            assert got.global_diversity == pytest.approx(expected_dg, abs=1e-12)
            assert got.local_distance == pytest.approx(expected_ld, abs=1e-12)
            assert got.joint == pytest.approx(expected_dg + expected_ld, abs=1e-12)


# ---------------------------------------------------------------------------
# scoring alone: bit-identical to the per-pair numpy reference

REACH = ReachSpec()


def random_walk(rng, dims, length):
    """A trajectory of ``length`` states (before collapsing), grid-like in 2-D."""
    if dims == 2:
        coords = rng.integers(1, 10, size=(length, 2)).astype(float)
    else:
        coords = rng.uniform(-0.15, 0.15, size=(length, 3))
    states = [tuple(row) for row in coords.tolist()]
    collapsed = states[:1] + [s for prev, s in zip(states, states[1:]) if s != prev]
    raw = max(length - 1, 1)
    # coarse certainties make equal profiles, and so ties in the profile term, likely
    certs = tuple((rng.integers(0, 4, size=raw) / 4).tolist())
    return make_traj(collapsed, certainties=certs, raw_length=raw)


@pytest.mark.parametrize("dims", [2, 3])
def test_packed_scoring_equals_pairwise_reference(flat_spec, dims):
    env_spec = flat_spec if dims == 2 else REACH
    rng = np.random.default_rng(dims)
    for _ in range(30):
        members = [
            random_walk(rng, dims, int(rng.integers(1, 102)))
            for _ in range(int(rng.integers(1, 71)))
        ]
        for _ in range(int(rng.integers(0, 3))):
            members.append(dataclasses.replace(members[int(rng.integers(len(members)))]))
        demos = demo_set(members, env_spec)
        for _ in range(min(int(rng.integers(0, 4)), len(members) - 1)):
            demos.discard(members.pop(int(rng.integers(len(members)))))
        member = members[int(rng.integers(len(members)))]
        scored = [
            random_walk(rng, dims, int(rng.integers(1, 102))),
            member,  # scored while itself a member
            dataclasses.replace(member),  # a value-equal twin from outside
        ]
        for trajectory in scored:
            expected = pairwise.joint_fitness(trajectory, demos, env_spec)
            assert joint_fitness(trajectory, demos, env_spec) == expected


def test_a_value_equal_copy_scores_zero_on_both_context_terms(flat_spec):
    original = make_traj([(2.0, 2.0), (2.0, 3.0), (3.0, 3.0)], certainties=(0.5, 0.25))
    other = make_traj([(8.0, 8.0), (8.0, 9.0)])
    demos = demo_set([original, other], flat_spec)
    copy = dataclasses.replace(original)
    components = joint_fitness(copy, demos, flat_spec)
    assert components == FitnessComponents(3 / 121, 0.375, 0.0, 0.0, 0.0)
    assert components == pairwise.joint_fitness(copy, demos, flat_spec)


def _profile_walk(states, certainties, row):
    """A walk of ``states`` positions over three steps: on ``REACH``, a
    continuous space, its D_l is ``states / 4``, so few distinct pairs arise."""
    return make_traj([(float(row), float(col)) for col in range(states)],
                     certainties=certainties, raw_length=3)


profile_walks = st.builds(
    _profile_walk,
    st.integers(1, 4),
    st.tuples(*[st.sampled_from([0.0, 0.5, 1.0])] * 3),
    st.integers(0, 3),
)


@settings(max_examples=200, deadline=None)
@given(
    walks=st.lists(profile_walks, min_size=1, max_size=5),
    fresh=profile_walks,
    # (walk, action): add it with its own pair, add it with -0.0 for a zero
    # certainty, or discard it if it is a member
    actions=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(["add", "add -0.0", "discard"])),
                     max_size=14),
)
def test_the_profile_term_equals_the_scan_over_the_other_members(walks, fresh, actions):
    demos, live = DemonstrationSet(), []
    for index, action in actions:
        walk = walks[index % len(walks)]
        if action == "discard":
            owned = [k for k, member in enumerate(live) if member is walk]
            if owned:
                demos.discard(walk)
                del live[owned[0]]
            continue
        d_l, certainty = local_diversity(walk, REACH), trajectory_certainty(walk)
        if action == "add -0.0" and certainty == 0.0:
            certainty = -0.0  # equal to the scored walk's 0.0, with the same hash
        demos.add(walk, d_l, certainty)  # a walk may be a member more than once
        live.append(walk)
    if not live:
        return
    members = list({id(walk): walk for walk in live}.values())
    # members scored against themselves, a walk from outside and a value-equal twin
    scored = members + [fresh, dataclasses.replace(members[0])]
    for trajectory in scored:
        expected = pairwise.joint_fitness(trajectory, demos, REACH)
        assert joint_fitness(trajectory, demos, REACH) == expected
    # the bound, for rows that are not members: each is paired with the
    # member whose first and last positions lie nearest, the oldest on a tie
    # (lattice walks, so the squared distances are exact in any order)
    bounded = scored[len(members):]
    partner_distances = []
    for trajectory in bounded:
        partner = min(demos, key=lambda e: _ends_squared(trajectory, e.trajectory)).trajectory
        distance = pairwise.one_way(pairwise.points(trajectory), pairwise.points(partner))
        profile = pairwise.local_distance(
            trajectory, local_diversity(trajectory, REACH), trajectory_certainty(trajectory), demos
        )
        joint = distance / REACH.max_state_distance + profile
        # pruned at a floor equal to its bound, worked out exactly just below it
        assert exact_rows(demos, [trajectory], REACH, joint) == ([distance], [])
        exact = demos.nearest_distances([trajectory])
        below = math.nextafter(joint, -math.inf)
        assert exact_rows(demos, [trajectory], REACH, below) == (exact, [0])
        partner_distances.append(distance)
    assert demos.nearest_distances(bounded, None, REACH, math.inf) == partner_distances


def exact_rows(demos, batch, env_spec, floor):
    """``demos.nearest_distances(batch, None, env_spec, floor)`` and the rows
    of ``batch`` that its exact kernel call, the read's last, asks for; the
    rest were pruned."""
    calls = []
    kernel = fitness._Blocks.one_way

    def recording(blocks, left, right):
        calls.append(left)
        return kernel(blocks, left, right)

    with mock.patch.object(fitness._Blocks, "one_way", recording):
        distances = demos.nearest_distances(batch, None, env_spec, floor)
    return distances, sorted(set((calls[-1] - len(demos)).tolist())) if calls else []


def _ends_squared(u, v):
    """The squared distance of ``u``'s first and last positions to ``v``'s."""
    pu, pv = pairwise.points(u), pairwise.points(v)
    return sum((a - b) ** 2 for a, b in zip((*pu[0], *pu[-1]), (*pv[0], *pv[-1])))


# ---------------------------------------------------------------------------
# batch scoring: one pass per batch, equal to scoring each in turn


def _batch_member(rng, dims, max_length, live, batch):
    """A fresh walk, a twin of a live or an earlier batch member, a walk over
    a member's positions with other certainties (same columns, other profile),
    or a live or earlier batch member itself (the same object again)."""
    kind = int(rng.integers(5))
    pool = live if kind == 0 else batch if kind == 1 else live + batch
    if kind != 3 and pool:
        source = pool[int(rng.integers(len(pool)))]
        if kind == 4:
            return source
        if kind < 2:
            return dataclasses.replace(source)
        certs = tuple((rng.integers(0, 4, size=source.raw_length) / 4).tolist())
        return dataclasses.replace(source, certainties=certs)
    return random_walk(rng, dims, int(rng.integers(1, max_length + 1)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([2, 3]),
    max_length=st.sampled_from([1, 8, 150]),
    batch_sizes=st.lists(st.integers(0, 10), min_size=1, max_size=3),
    bound=st.sampled_from([1, 300, 5000, fitness.MAX_PAIR_ELEMENTS]),
)
def test_batch_scoring_equals_sequential_reference(
    flat_spec, seed, dims, max_length, batch_sizes, bound
):
    # lengths up to 150 cover sums longer than numpy's 128-element pairwise
    # block; the smaller element bounds split the kernel's pairs into several chunks
    env_spec = flat_spec if dims == 2 else REACH
    rng = np.random.default_rng(seed)
    demos, live = DemonstrationSet(), []
    with mock.patch.object(fitness, "MAX_PAIR_ELEMENTS", bound):
        for size in batch_sizes:
            batch = []
            for _ in range(size):
                batch.append(_batch_member(rng, dims, max_length, live, batch))
            nearest = demos.nearest_distances(batch)
            for trajectory, distance in zip(batch, nearest):
                expected = pairwise.joint_fitness(trajectory, demos, env_spec)
                assert joint_fitness(trajectory, demos, env_spec, distance) == expected
                demos.add(trajectory, expected.local_diversity, expected.certainty)
                live.append(trajectory)
            for _ in range(int(rng.integers(0, len(live) // 2 + 1))):
                demos.discard(live.pop(int(rng.integers(len(live)))))
            for member in live[:3]:  # scored alone while a member
                expected = pairwise.joint_fitness(member, demos, env_spec)
                assert joint_fitness(member, demos, env_spec) == expected


@settings(max_examples=40, deadline=None)
@given(
    spec=reference.grid_layouts(max_height=15, max_width=15, max_steps=100),
    seed=st.integers(0, 2**32 - 1),
    batch_sizes=st.lists(st.integers(0, 10), min_size=1, max_size=4),
    bound=st.sampled_from([1, 300, fitness.MAX_PAIR_ELEMENTS]),
)
# 8 start cells: a batch of 10 repeats a cell in distinct objects, and the
# members it leaves behind share cells
@example(spec=SMALL_GRID, seed=3, batch_sizes=[10, 10], bound=fitness.MAX_PAIR_ELEMENTS)
def test_rollout_table_distances_equal_the_pairwise_reference(spec, seed, batch_sizes, bound):
    # few actions and rounded Q values make many starts share their paths
    q = np.round(np.random.default_rng(seed).normal(size=(spec.height, spec.width, 4)))
    policy = TabularPolicy(q)
    table = spec.rollout_table(policy)
    starts = sorted(spec.startable)  # row-major keys
    kernel_calls, stores = [], []
    kernel, init = fitness._Blocks.one_way, fitness._Blocks.__init__

    def counting(*args):
        kernel_calls.append(args)
        return kernel(*args)

    def counting_init(*args):
        stores.append(args)
        init(*args)

    with mock.patch.object(fitness, "MAX_PAIR_ELEMENTS", bound), \
            mock.patch.object(fitness._Blocks, "one_way", counting), \
            mock.patch.object(fitness._Blocks, "__init__", counting_init):
        for warm in (False, True):  # the same batches, the second time from a full table
            kernel_calls.clear()
            stores.clear()
            rng = np.random.default_rng(seed)
            demos, live = DemonstrationSet(), []
            for size in batch_sizes:
                picks = rng.integers(len(starts), size=size).tolist()
                batch = spec.rollouts(policy, [starts[i] for i in picks])
                if batch and rng.random() < 0.5:  # the same object again, or a live member
                    pool = live + batch
                    batch.append(pool[int(rng.integers(len(pool)))])
                # the unordered cell pairs the read sees that the table lacks
                everyone = demos.trajectories() + tuple(batch)
                cells = list(map(table.cell, everyone))
                lacking = {(min(cells[row], cells[slot]), max(cells[row], cells[slot]))
                           for row in range(len(demos), len(everyone)) for slot in range(row)
                           if everyone[slot] is not everyone[row]}
                lacking -= {divmod(key, table.size) for key in table.distances}
                calls = len(kernel_calls)
                nearest = demos.nearest_distances(batch, table)
                # one slot pair per lacking pair of cells, in one call
                assert len(kernel_calls) - calls == bool(lacking)
                for _, left, right in kernel_calls[calls:]:
                    asked = [tuple(sorted((cells[u], cells[v]))) for u, v in zip(left, right)]
                    assert sorted(asked) == sorted(lacking)
                others = [entry.trajectory for entry in demos]
                for trajectory, distance in zip(batch, nearest):
                    expected = min((pairwise.one_way(pairwise.points(trajectory),
                                                     pairwise.points(other))
                                    for other in others if other is not trajectory),
                                   default=math.inf)
                    assert distance == expected
                    others.append(trajectory)
                for trajectory in batch:
                    demos.add(trajectory, local_diversity(trajectory, spec),
                              trajectory_certainty(trajectory))
                    live.append(trajectory)
                for _ in range(int(rng.integers(0, len(live) // 2 + 1))):
                    demos.discard(live.pop(int(rng.integers(len(live)))))
            if warm:  # every distance came from the table, with no store built
                assert kernel_calls == [] and stores == []
    # each entry is its two cells' distance, whichever episode is the row
    for key, distance in table.distances.items():
        u, v = (pairwise.points(table.trajectories[cell]) for cell in divmod(key, table.size))
        assert distance == pairwise.one_way(u, v) == pairwise.one_way(v, u)


def test_a_batch_is_split_into_bounded_chunks(monkeypatch):
    rng = np.random.default_rng(11)
    members = [random_walk(rng, 3, 150) for _ in range(10)]
    demos = demo_set(members, REACH)
    shapes = []
    kernel = fitness._chunk_minima

    def recording(u, v):
        shapes.append((u.shape[1] * v.shape[1], u.shape[2]))  # point pairs per pair, pairs
        return kernel(u, v)

    monkeypatch.setattr(fitness, "_chunk_minima", recording)
    long_batch = [random_walk(rng, 3, 100) for _ in range(3)]
    short_batch = [random_walk(rng, 3, 3) for _ in range(5)]
    # the long rows' 30 pairs with members, 100 x 150 points each, fit the bound
    # four at a time, in 8 chunks, and their 3 pairs with each other in one; the
    # short rows' pairs fit one chunk per pair of block sizes
    for batch, chunks in ((long_batch, 9), (short_batch, 2)):
        shapes.clear()
        nearest = demos.nearest_distances(batch)
        sequential = demo_set(members, REACH)
        for trajectory, distance in zip(batch, nearest):
            expected = pairwise.joint_fitness(trajectory, sequential, REACH)
            assert joint_fitness(trajectory, sequential, REACH, distance) == expected
            sequential.add(trajectory, expected.local_diversity, expected.certainty)
        assert len(shapes) == chunks
        assert all(elements * pairs <= fitness.MAX_PAIR_ELEMENTS for elements, pairs in shapes)


def test_a_member_after_its_twin_in_a_batch_is_at_distance_zero(flat_spec):
    member = make_traj([(2.0, 2.0), (2.0, 3.0)])
    other = make_traj([(8.0, 8.0), (8.0, 9.0)])
    demos = demo_set([member, other], flat_spec)
    twin = dataclasses.replace(member)
    # the member is compared with the twin scored before it; its own earlier
    # appearance is itself and counts for nothing
    assert demos.nearest_distances([twin, member]) == [0.0, 0.0]
    assert demos.nearest_distances([member, member]) == [
        one_way_distance(member, other)
    ] * 2


def test_members_must_share_one_dimensionality(flat_spec):
    demos = demo_set([make_traj([(1.0, 1.0), (1.0, 2.0)])], flat_spec)
    with pytest.raises(ContractViolationError):
        demos.add(random_walk(np.random.default_rng(0), 3, 4), 0.5, 0.5)
    assert len(demos) == 1


def test_a_set_that_empties_takes_the_dimensionality_of_its_next_members(flat_spec):
    flat = make_traj([(1.0, 1.0), (1.0, 2.0)])
    demos = demo_set([flat, flat.copy()], flat_spec)
    for member in demos.trajectories():
        demos.discard(member)
    walks = [random_walk(np.random.default_rng(seed), 3, 4) for seed in range(2)]
    for walk in walks:
        demos.add(walk, 0.5, 0.5)
    assert demos.trajectories() == tuple(walks)
    assert demos.nearest_distances([walks[0].copy()]) == [0.0]
    with pytest.raises(ContractViolationError):
        demos.add(flat, 0.5, 0.5)
    assert len(demos) == 2


def test_members_sharing_one_position_array_each_count_as_a_block():
    # a twin's copy shares its original's points array; each copy is a member
    # of its own, and the original leaving takes none of their positions along
    walk = make_traj([(0.0, 0.0), (1.0, 0.5), (2.0, 2.0)])
    other = make_traj([(3.0, 1.0), (2.5, 2.5)])
    demos = demo_set([walk], REACH)
    assert demos.nearest_distances([other]) == [
        pairwise.one_way(pairwise.points(other), pairwise.points(walk))
    ]
    twins = [walk.copy() for _ in range(4)]
    for twin in twins:
        demos.add(twin, local_diversity(twin, REACH), trajectory_certainty(twin))
    demos.discard(walk)
    fresh = make_traj([(5.0, 5.0), (4.0, 4.5)])
    assert demos.nearest_distances([fresh]) == [
        pairwise.one_way(pairwise.points(fresh), pairwise.points(walk))
    ]


def test_nearest_distance_is_infinite_with_nothing_to_compare():
    alone = make_traj([(1.0, 1.0), (1.0, 2.0)])
    assert DemonstrationSet().nearest_distances([alone]) == [math.inf]
    assert demo_set([alone], SMALL_GRID).nearest_distances([alone]) == [math.inf]
    assert DemonstrationSet().nearest_distances([]) == []


# ---------------------------------------------------------------------------
# the search's bound: one member's distance per row, read with the exact pass


def test_a_member_row_gets_its_exact_distance():
    # a member would be its own partner, at distance 0, below its exact score
    walks = [random_walk(np.random.default_rng(seed), 3, 6) for seed in range(3)]
    demos = demo_set(walks[:2], REACH)
    exact = pairwise.one_way(pairwise.points(walks[1]), pairwise.points(walks[0]))
    assert exact > 0.0
    distances, asked = exact_rows(demos, [walks[1], walks[2]], REACH, math.inf)
    assert distances[0] == exact and asked == [0]
    # a copy of a member is not a member: its partner is the member it copies
    twin = walks[1].copy()
    assert exact_rows(demos, [walks[2], twin], REACH, math.inf) == ([distances[1], 0.0], [])


def test_a_floor_without_the_env_spec_is_refused():
    walks = [random_walk(np.random.default_rng(seed), 3, 6) for seed in range(2)]
    demos = demo_set(walks[:1], REACH)
    with pytest.raises(ContractViolationError, match="floor needs the env_spec"):
        demos.nearest_distances(walks[1:], None, None, math.inf)


def test_a_bound_partner_is_the_oldest_member_on_a_tie():
    # both members' ends lie at squared distance 2 from the row's ends, but
    # their one-way distances to the row differ
    row = make_traj([(0.0, 0.0), (0.0, 4.0)])
    detour = make_traj([(1.0, 0.0), (5.0, 5.0), (1.0, 4.0)])
    straight = make_traj([(-1.0, 0.0), (-1.0, 4.0)])
    distances = [pairwise.one_way(pairwise.points(row), pairwise.points(member))
                 for member in (detour, straight)]
    assert distances[0] != distances[1]
    for members in ([detour, straight], [straight, detour]):
        demos = demo_set(members, REACH)
        expected = distances[0] if members[0] is detour else distances[1]
        assert demos.nearest_distances([row], None, REACH, math.inf) == [expected]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), members=st.integers(0, 6), size=st.integers(1, 8))
def test_a_read_with_a_floor_gives_each_boundable_row_its_partners_entry(
    flat_spec, seed, members, size
):
    # 2-D lattice walks: the squared distances of the ends are exact in any
    # order, and often tie; the batch mixes fresh walks, twins, members and repeats
    rng = np.random.default_rng(seed)
    live = [random_walk(rng, 2, int(rng.integers(1, 40))) for _ in range(members)]
    demos = demo_set(live, flat_spec)
    batch = []
    for _ in range(size):
        batch.append(_batch_member(rng, 2, 40, live, batch))
    floored = demos.nearest_distances(batch, None, flat_spec, math.inf)
    seen = set(map(id, live))
    for trajectory, got, exact in zip(batch, floored, demos.nearest_distances(batch)):
        if live and id(trajectory) not in seen:  # the oldest member with the nearest ends
            partner = min(live, key=lambda member: _ends_squared(trajectory, member))
            assert got == pairwise.one_way(pairwise.points(trajectory), pairwise.points(partner))
        else:  # a member, a repeat of an earlier row, or a row of an empty set
            assert got == exact
        seen.add(id(trajectory))


def test_one_store_of_mixed_widths_equals_the_pairwise_reference(holey_spec):
    # walks of 1 to 140 points beside HoleyGrid11 paths that loop for 101
    # points over a few cells and are stored as their distinct points
    rng = np.random.default_rng(11)
    policy = TabularPolicy(np.round(np.random.default_rng(0).normal(size=(11, 11, 4))))
    loops = [walk for walk in holey_spec.rollouts(policy, sorted(holey_spec.startable))
             if fitness.SHORT_BLOCK < len(walk.points) <= 128][:3]
    everyone = [random_walk(rng, 2, n) for n in (3, 5, 20, 9, 140, 1, 2)] + loops
    blocks = fitness._Blocks(everyone)
    assert len(blocks.counts) == len(everyone) and blocks.distinct and len(loops) == 3
    left, right = np.indices((len(everyone),) * 2).reshape(2, -1)
    expected = [pairwise.one_way(pairwise.points(everyone[u]), pairwise.points(everyone[v]))
                for u, v in zip(left.tolist(), right.tolist())]
    assert blocks.one_way(left, right).tolist() == expected


def paired_distances(rows, columns):
    """The kernel's one-way distance of each pair of blocks ``rows[k]``,
    ``columns[k]``, from one ``_Blocks.one_way`` call over a store of both."""
    blocks = fitness._Blocks([make_traj(points.tolist()) for points in (*rows, *columns)])
    left = np.arange(len(rows))
    return blocks.one_way(left, left + len(rows)).tolist()


@pytest.mark.parametrize("lattice", [False, True])
@pytest.mark.parametrize("lengths", [(1, 8), (9, 20), (129, 140)])
def test_the_paired_kernel_equals_the_pairwise_reference(lengths, lattice):
    # blocks of up to 31 points are one size in the kernel and longer ones
    # sizes of their own, and each call mixes them; lattice points repeat
    # within and across blocks, so minima tie, and some pairs are one block twice
    rng = np.random.default_rng(lengths[0] + lattice)
    for dims in (2, 3):
        rows, columns = [], []
        for _ in range(40):
            u_length, v_length = (
                int(rng.integers(1, 8)) if rng.random() < 0.3
                else int(rng.integers(*lengths, endpoint=True))
                for _ in range(2)
            )
            if lattice:
                u, v = (rng.integers(0, 3, size=(n, dims)) / 2.0 for n in (u_length, v_length))
            else:
                scale = 10.0 ** rng.integers(-3, 3)
                u, v = (rng.normal(size=(n, dims)) * scale for n in (u_length, v_length))
            rows.append(u)
            columns.append(u.copy() if rng.random() < 0.15 else v)
        expected = [pairwise.one_way(u, v) for u, v in zip(rows, columns)]
        assert paired_distances(rows, columns) == expected
        assert 0.0 in expected


# coordinates from a small lattice repeat within and across blocks and carry
# both signed zeros; the floats make minima that do not tie
coordinates = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.25, 3.0]),
                        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def block_pairs(draw):
    """Two blocks of 1 to 300 points sharing 1 to 3 axes; short blocks are more likely."""
    axes = draw(st.integers(1, 3))
    point = st.tuples(*[coordinates] * axes)
    length = st.one_of(st.integers(1, 9), st.integers(1, 40), st.integers(1, 300))
    return tuple(draw(st.lists(point, min_size=n, max_size=n)) for n in (draw(length), draw(length)))


@settings(max_examples=40, deadline=None)
@given(pair=block_pairs())
def test_the_kernel_equals_the_stated_order_in_plain_python(pair):
    u, v = pair
    expected = pairwise.one_way_in_order(u, v)
    assert expected == pairwise.one_way(np.array(u), np.array(v))
    # the exact pass and the bound, each in both orders
    for first, second in ((u, v), (v, u)):
        assert one_way_distance(make_traj(first), make_traj(second)) == expected
        assert paired_distances([np.array(first)], [np.array(second)]) == [expected]
        # the bound, from a set whose one member is the partner
        demos = demo_set([make_traj(second)], REACH)
        assert demos.nearest_distances([make_traj(first)], None, REACH, math.inf) == [expected]


@settings(max_examples=100, deadline=None)
@given(columns=st.lists(
    st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=300), min_size=1, max_size=6
))
def test_the_ordered_sums_are_the_stated_order(columns):
    # columns of many lengths share one array, as the kernel sums them; what
    # lies past a column's length counts for nothing
    lengths = np.array([len(column) for column in columns])
    values = np.full((lengths.max(), len(columns)), 7.0)
    for at, column in enumerate(columns):
        values[: len(column), at] = column
    got = fitness._ordered_sums(values, lengths).tolist()
    assert got == list(map(pairwise.ordered_sum, columns))
    assert got == [np.array(column).sum() for column in columns]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    members=st.integers(0, 5),
    size=st.integers(1, 8),
    tabled=st.booleans(),
    floor=st.floats(0.0, 2.0),
)
def test_the_rows_asked_for_get_their_distances_in_the_whole_pass(
    flat_spec, seed, members, size, tabled, floor
):
    # the rows the bound leaves are asked for by the exact pass; a table
    # serves every row, with no bound
    rng = np.random.default_rng(seed)
    policy = TabularPolicy(np.round(rng.normal(size=(flat_spec.height, flat_spec.width, 4))))
    starts = sorted(flat_spec.startable)
    picks = rng.integers(len(starts), size=members + size).tolist()
    trajectories = flat_spec.rollouts(policy, [starts[i] for i in picks])
    demos = demo_set(trajectories[:members], flat_spec)
    batch = trajectories[members:]
    whole = demos.nearest_distances(batch)
    if tabled:
        table = flat_spec.rollout_table(policy)
        assert demos.nearest_distances(batch, table, flat_spec, floor) == whole
        return
    distances, rows = exact_rows(demos, batch, flat_spec, floor)
    assert [distances[row] for row in rows] == [whole[row] for row in rows]


def test_a_position_array_is_built_once_and_when_a_pass_first_reads_it(monkeypatch):
    built = []
    original = Trajectory.points.func
    counting = functools.cached_property(lambda t: built.append(t) or original(t))
    counting.__set_name__(Trajectory, "points")
    monkeypatch.setattr(Trajectory, "points", counting)
    rng = np.random.default_rng(5)
    first, second, third, fourth = (random_walk(rng, 3, 6) for _ in range(4))
    demos = DemonstrationSet()
    demos.add(first, 0.5, 0.5)
    assert built == []  # no pass has read it yet
    for trajectory, profile in ((second, 0.4), (third, 0.3)):
        demos.nearest_distances([trajectory])
        demos.add(trajectory, profile, 0.5)  # reads the array the pass built
    demos.nearest_distances([fourth])
    assert list(map(id, built)) == list(map(id, (first, second, third, fourth)))
