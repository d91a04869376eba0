import dataclasses
import functools
import gc
import math
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qlearning_reference as reference
from helpers import (
    random_genome, reference_evaluate, reference_initial_candidates, reference_offspring,
)
from evodemo import evolution, fitness
from evodemo.encoding import BitGenome, EncodingSpec
from evodemo.environments import (
    GridSpec,
    GridState,
    ReachSpec,
    ReachState,
    Trajectory,
    parse_layout,
    preset,
)
from evodemo.errors import ConfigurationError, ContractViolationError
from evodemo.evolution import (
    MAX_BITS_PER_DIMENSION,
    MAX_POPULATION_SIZE,
    MAX_TOURNAMENT_SIZE,
    EvolutionConfig,
    Individual,
    baseline,
    evaluate_offspring,
    init_population,
    make_offspring,
    migrate,
    run,
)
from evodemo.fitness import (
    EMPTY_SET_GLOBAL_DIVERSITY,
    EMPTY_SET_LOCAL_DISTANCE,
    FitnessComponents,
)
from evodemo.policy import GaussianControllerPolicy, TabularPolicy
from evodemo.report import export_bundle


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_match_grid_profile():
    config = EvolutionConfig()
    assert config.population_size == 10
    assert config.generations == 40
    assert config.crossover_probability == 0.75
    assert config.mutation_probability == 0.5
    assert config.tournament_size == 3
    assert config.bits_per_dimension == 6


@pytest.mark.parametrize(
    "kwargs",
    [
        {"population_size": 1},
        {"generations": 0},
        {"crossover_probability": 1.5},
        {"mutation_probability": -0.1},
        {"tournament_size": 0},
        {"bits_per_dimension": 0},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
        {"seed": "0"},
    ],
)
def test_config_rejects_out_of_range_values(kwargs):
    with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
        EvolutionConfig(**kwargs)


# ---------------------------------------------------------------------------
# population seeding


def test_init_population_yields_valid_scored_individuals(flat_spec, well_trained_policy):
    config = EvolutionConfig(seed=0)
    encoding = flat_spec.encoding_spec(config.bits_per_dimension)
    rng = np.random.default_rng(config.seed)
    population, demos = init_population(config, flat_spec, encoding, well_trained_policy, rng)
    assert [individual.id for individual in population] == list(range(10))
    assert len(demos) == 10
    for individual in population:
        assert flat_spec.validate_initial(individual.initial_state) is None
        assert individual.birth_generation == 0
    # the first one is scored against an empty set, so it carries the sentinels
    first = population[0].fitness
    assert first.global_diversity == EMPTY_SET_GLOBAL_DIVERSITY
    assert first.local_distance == EMPTY_SET_LOCAL_DISTANCE


def test_init_population_is_seed_deterministic(flat_spec, well_trained_policy):
    config = EvolutionConfig(seed=3)
    encoding = flat_spec.encoding_spec(config.bits_per_dimension)
    a, _ = init_population(config, flat_spec, encoding, well_trained_policy, np.random.default_rng(3))
    b, _ = init_population(config, flat_spec, encoding, well_trained_policy, np.random.default_rng(3))
    assert [i.genome for i in a] == [i.genome for i in b]
    assert [i.fitness for i in a] == [i.fitness for i in b]


def test_unsatisfiable_start_sampling_is_a_config_error(well_trained_policy):
    # every interior cell is a hole or the target: nothing valid to decode into
    spec = parse_layout("#####\n#OOO#\n#OTO#\n#OOO#\n#####")
    config = EvolutionConfig(seed=0)
    encoding = spec.encoding_spec(config.bits_per_dimension)
    policy_q = np.zeros((spec.height, spec.width, 4))
    from evodemo.policy import TabularPolicy

    with pytest.raises(ConfigurationError, match="valid start"):
        init_population(config, spec, encoding, TabularPolicy(policy_q), np.random.default_rng(0))


def test_a_layout_without_a_start_stops_a_search_at_the_sampling_limit():
    # a 3x3 layout's one interior cell is its target: every draw decodes to it
    spec = parse_layout("###\n#T#\n###")
    for search in (run, baseline):
        with pytest.raises(ConfigurationError, match=(
                f"^no valid start found in {evolution.MAX_SAMPLING_ATTEMPTS} attempts$")):
            search(spec, TabularPolicy(np.zeros((3, 3, 4))), EvolutionConfig(generations=1))


def _initial_candidates(config, spec, encoding, rng):
    """``init_population``'s candidates, sampled from ``rng`` and not evaluated."""
    drawn = []

    def evaluate_offspring(candidates, *args):
        drawn.extend(candidates)
        return []

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evolution, "evaluate_offspring", evaluate_offspring)
        init_population(config, spec, encoding, None, rng)
    return drawn


@settings(max_examples=120, deadline=None)
@given(data=st.data(), population_size=st.integers(2, 12), seed=st.integers(0, 2**63),
       # a small limit makes sparse layouts run out of attempts
       limit=st.sampled_from([1, 3, 10, 60, evolution.MAX_SAMPLING_ATTEMPTS]),
       # a round of 384 bits holds one widest genome, so rounds stop short of the missing count
       round_bits=st.sampled_from([6 * MAX_BITS_PER_DIMENSION, 1000, evolution._ROUND_BITS]))
@example(data=None, population_size=12, seed=5, limit=evolution.MAX_SAMPLING_ATTEMPTS,
         round_bits=evolution._ROUND_BITS)
@example(data=None, population_size=12, seed=5, limit=evolution.MAX_SAMPLING_ATTEMPTS,
         round_bits=6 * MAX_BITS_PER_DIMENSION)
def test_the_initial_draw_equals_the_one_genome_sampler(
    holey_spec, data, population_size, seed, limit, round_bits
):
    if data is None:  # the widest genome: 6 dimensions of 64 bits
        spec, bits = ReachSpec(), MAX_BITS_PER_DIMENSION
    else:
        # generated layouts, where many cells are walls, holes or the target
        spec = data.draw(st.one_of(reference.grid_layouts(), st.just(holey_spec),
                                   reach_cases().map(lambda case: case[0])))
        # a grid needs enough bits to cover its interior rows and columns
        least = max(1, (max(spec.grid_shape or (3, 3)) - 3).bit_length())
        bits = data.draw(st.integers(least, 12))
    config = EvolutionConfig(population_size=population_size, bits_per_dimension=bits)
    encoding = spec.encoding_spec(bits)
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evolution, "MAX_SAMPLING_ATTEMPTS", limit)
        patch.setattr(evolution, "_ROUND_BITS", round_bits)
        try:
            drawn = _initial_candidates(config, spec, encoding, rng)
        except ConfigurationError as error:
            drawn = str(error)
    try:
        expected = reference_initial_candidates(population_size, encoding, spec, reference_rng,
                                                limit)
    except ConfigurationError as error:
        expected = str(error)
    assert drawn == expected  # the same ids, genome values and keys, or the same error
    if isinstance(drawn, list):
        # the generator is left where the per-genome sampler leaves it
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert rng.integers(0, 2**63) == reference_rng.integers(0, 2**63)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 12), length=st.integers(1, 6 * MAX_BITS_PER_DIMENSION),
       seed=st.integers(0, 2**63))
@example(rows=5, length=383, seed=0)
@example(rows=5, length=384, seed=0)
@example(rows=3, length=1, seed=1)
def test_one_bit_matrix_draw_equals_a_draw_per_genome(rows, length, seed):
    # init_population relies on numpy drawing a (k, L) bit matrix from the
    # stream that k draws of L bits read, half words included
    batch, single = np.random.default_rng(seed), np.random.default_rng(seed)
    matrix = batch.integers(0, 2, size=(rows, length))
    assert matrix.tolist() == [single.integers(0, 2, size=length).tolist() for _ in range(rows)]
    assert batch.bit_generator.state == single.bit_generator.state


# ---------------------------------------------------------------------------
# offspring


def test_offspring_counts_follow_ceil_rule(flat_spec, well_trained_policy):
    config = EvolutionConfig(seed=1)
    encoding = flat_spec.encoding_spec(config.bits_per_dimension)
    rng = np.random.default_rng(config.seed)
    population, demos = init_population(config, flat_spec, encoding, well_trained_policy, rng)
    candidates = make_offspring(population, config, encoding, flat_spec, rng, first_id=10)
    # every FlatGrid11 interior cell is a valid start, so none are filtered
    expected = math.ceil(10 * 0.75) + math.ceil(10 * 0.5)
    assert len(candidates) == expected
    assert [the_id for the_id, _, _ in candidates] == list(range(10, 10 + expected))
    # against no population every offspring becomes an individual, of its birth generation
    offspring = evaluate_offspring(
        candidates, 1, encoding.genome_length, demos, flat_spec, well_trained_policy, ()
    )
    assert [i.id for i in offspring] == list(range(10, 10 + expected))
    assert all(i.birth_generation == 1 for i in offspring)


def test_offspring_ids_skip_filtered_candidates(holey_spec, well_trained_policy):
    # holes can swallow decoded starts; surviving candidates keep dense ids
    config = EvolutionConfig(seed=5)
    encoding = holey_spec.encoding_spec(config.bits_per_dimension)
    rng = np.random.default_rng(config.seed)
    population, _ = init_population(config, holey_spec, encoding, well_trained_policy, rng)
    for generation in range(1, 6):
        candidates = make_offspring(population, config, encoding, holey_spec, rng, first_id=100)
        assert [the_id for the_id, _, _ in candidates] == list(range(100, 100 + len(candidates)))
        assert len(candidates) <= math.ceil(10 * 0.75) + math.ceil(10 * 0.5)


def _population(values, length, joints, ids):
    """Unevaluated stand-ins: make_offspring reads only genomes, ids and stored joints."""
    return [
        Individual(id=i, genome=BitGenome(value, length), initial_state=None, trajectory=None,
                   fitness=FitnessComponents(0.0, 0.0, 0.0, 0.0, joint), birth_generation=0)
        for value, joint, i in zip(values, joints, ids)
    ]


@settings(max_examples=120, deadline=None)
@given(data=st.data(), preset=st.sampled_from(["FlatGrid11", "HoleyGrid11", "PointReach"]),
       n=st.integers(2, 12), tournament_size=st.integers(1, 4),
       crossover_probability=st.sampled_from([0.0, 0.3, 0.75, 1.0]),
       mutation_probability=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_make_offspring_matches_the_per_candidate_path(
    flat_spec, holey_spec, reach_spec, data, preset, n, seed, **fields
):
    spec = {"FlatGrid11": flat_spec, "HoleyGrid11": holey_spec, "PointReach": reach_spec}[preset]
    # a grid needs 4 bits to cover its 9 interior rows
    least = 1 if spec is reach_spec else 4
    bits = data.draw(st.sampled_from([least, 6, 9, MAX_BITS_PER_DIMENSION])
                     | st.integers(least, MAX_BITS_PER_DIMENSION))
    config = EvolutionConfig(population_size=n, bits_per_dimension=bits, **fields)
    encoding = spec.encoding_spec(bits)
    length = encoding.genome_length
    values = data.draw(st.lists(st.integers(0, 2**length - 1), min_size=n, max_size=n))
    # few distinct scores, so tournaments often tie and the id decides
    joints = data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=n, max_size=n))
    ids = data.draw(st.lists(st.integers(0, 10 * n), min_size=n, max_size=n, unique=True))
    population = _population(values, length, joints, ids)  # in no particular order

    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    made = make_offspring(population, config, encoding, spec, rng, first_id=50)
    expected = reference_offspring(population, config, encoding, spec, reference_rng, 50)
    assert made == expected
    assert ([BitGenome(value, length).as_string() for _, value, _ in made]
            == [BitGenome(value, length).as_string() for _, value, _ in expected])
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), tournament_size=st.integers(1, 5), length=st.integers(2, 500),
       crossover_probability=st.sampled_from([0.0, 0.1, 0.75, 1.0]),
       mutation_probability=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**63))
def test_one_broadcast_draw_equals_the_scalar_draws(
    n, tournament_size, length, crossover_probability, mutation_probability, seed
):
    # make_offspring relies on numpy drawing an array of bounds element by
    # element, exactly as the scalar calls of the per-candidate path did
    children = math.ceil(n * crossover_probability)
    mutants = math.ceil(n * mutation_probability)
    lows = ([0] * (2 * tournament_size) + [1]) * children + [0, 0] * mutants
    highs = ([n] * (2 * tournament_size) + [length]) * children + [n, length] * mutants
    batch, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = batch.integers(lows, highs).tolist() if lows else []
    expected = []
    for _ in range(children):
        expected += [int(scalar.integers(n)) for _ in range(2 * tournament_size)]
        expected.append(int(scalar.integers(1, length)))
    for _ in range(mutants):
        expected += [int(scalar.integers(n)), int(scalar.integers(length))]
    assert drawn == expected
    # and the generator is left in the same state
    encoding = EncodingSpec(dims=1, bits_per_dim=length, bounds=((0.0, 1.0),), kind="continuous")
    assert random_genome(batch, encoding) == random_genome(scalar, encoding)
    assert batch.random() == scalar.random()


class CountingRng:
    """A generator that counts its ``integers`` calls."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("crossover_probability,mutation_probability,calls", [
    (0.75, 0.5, 1), (1.0, 0.0, 1), (0.0, 0.5, 1), (0.0, 0.0, 0),
])
def test_make_offspring_draws_once_per_generation(
    reach_spec, crossover_probability, mutation_probability, calls
):
    config = EvolutionConfig(population_size=30, bits_per_dimension=9,
                             crossover_probability=crossover_probability,
                             mutation_probability=mutation_probability)
    encoding = reach_spec.encoding_spec(9)
    rng = CountingRng(0)
    values = [int(v) for v in np.random.default_rng(1).integers(0, 2**54, size=30)]
    population = _population(values, 54, [0.5] * 30, range(30))
    offspring = make_offspring(population, config, encoding, reach_spec, rng, first_id=30)
    assert rng.calls == calls
    due = math.ceil(30 * crossover_probability) + math.ceil(30 * mutation_probability)
    assert len(offspring) <= due
    if not calls:
        assert offspring == []


def test_crossover_needs_genomes_of_two_bits(flat_spec):
    encoding = EncodingSpec(dims=1, bits_per_dim=1, bounds=((0, 1),))
    population = _population([0, 1], 1, [0.0, 1.0], [0, 1])
    mutants_only = EvolutionConfig(crossover_probability=0.0, mutation_probability=1.0)
    rng = np.random.default_rng(0)
    # one-dimensional vectors are no grid cell: every mutant is dropped, none raises
    assert make_offspring(population, mutants_only, encoding, flat_spec, rng, 2) == []
    with pytest.raises(ContractViolationError, match="length at least 2"):
        make_offspring(population, EvolutionConfig(), encoding, flat_spec, rng, 2)


def test_the_search_checks_no_start_one_at_a_time(flat_spec, reach_spec, monkeypatch):
    grid = parse_layout("\n".join(flat_spec.cells))
    grid.startable  # built once per layout, from validate_initial

    def forbidden(self, state):
        raise AssertionError("validate_initial called inside the search")

    monkeypatch.setattr(GridSpec, "validate_initial", forbidden)
    monkeypatch.setattr(ReachSpec, "validate_initial", forbidden)
    q = np.random.default_rng(0).normal(size=(grid.height, grid.width, 4))
    run(grid, TabularPolicy(q), EvolutionConfig(generations=5))
    controller = GaussianControllerPolicy(step_size=reach_spec.step_size)
    run(reach_spec, controller, EvolutionConfig(population_size=8, generations=5))


def test_evaluated_offspring_join_the_demo_set(flat_spec, well_trained_policy):
    config = EvolutionConfig(seed=2)
    encoding = flat_spec.encoding_spec(config.bits_per_dimension)
    rng = np.random.default_rng(config.seed)
    population, demos = init_population(config, flat_spec, encoding, well_trained_policy, rng)
    candidates = make_offspring(population, config, encoding, flat_spec, rng, first_id=10)
    offspring = evaluate_offspring(candidates, 1, encoding.genome_length, demos, flat_spec,
                                   well_trained_policy, population)
    # only the offspring that can survive become individuals and stay in the set
    assert len(demos) == 10 + len(offspring)
    alive = {id(t) for t in demos.trajectories()}
    for individual in population + offspring:
        assert id(individual.trajectory) in alive


# ---------------------------------------------------------------------------
# migration


def test_migrate_keeps_best_by_stored_score(flat_spec, well_trained_policy):
    config = EvolutionConfig(seed=4)
    encoding = flat_spec.encoding_spec(config.bits_per_dimension)
    rng = np.random.default_rng(config.seed)
    population, demos = init_population(config, flat_spec, encoding, well_trained_policy, rng)
    candidates = make_offspring(population, config, encoding, flat_spec, rng, first_id=10)
    # an individual per candidate, so migrate selects among all of them
    offspring = reference_evaluate(candidates, 1, encoding.genome_length, demos, flat_spec,
                                   well_trained_policy, population)

    merged = population + offspring
    survivors = migrate(population, offspring, 10, demos)
    assert len(survivors) == 10
    assert len(demos) == 10
    kept_scores = sorted((i.fitness.joint for i in survivors), reverse=True)
    cutoff = sorted((i.fitness.joint for i in merged), reverse=True)[9]
    assert min(kept_scores) >= cutoff
    # the demo set is exactly the survivors' trajectories
    assert {id(i.trajectory) for i in survivors} == {id(t) for t in demos.trajectories()}


def test_migrate_breaks_score_ties_toward_older_ids(flat_spec, well_trained_policy):
    config = EvolutionConfig(seed=0)
    encoding = flat_spec.encoding_spec(config.bits_per_dimension)
    rng = np.random.default_rng(config.seed)
    population, demos = init_population(config, flat_spec, encoding, well_trained_policy, rng)
    survivors = migrate(population, [], 10, demos)
    assert [i.id for i in survivors] == sorted(
        (i.id for i in population),
        key=lambda the_id: (-next(p.fitness.joint for p in population if p.id == the_id), the_id),
    )


# ---------------------------------------------------------------------------
# full runs


def test_run_history_covers_every_generation(flat_spec, well_trained_policy):
    config = EvolutionConfig(generations=5, seed=0)
    result = run(flat_spec, well_trained_policy, config)
    assert [stats.generation for stats in result.history] == list(range(6))
    assert len(result.population) == 10
    assert result.history[0].admitted_ids == tuple(range(10))


def test_population_stays_full_and_matched_to_demos(flat_spec, well_trained_policy):
    seen = []

    def observer(generation, population, demos):
        seen.append(generation)
        assert len(population) == 10
        assert {id(i.trajectory) for i in population} == {id(t) for t in demos.trajectories()}

    run(flat_spec, well_trained_policy, EvolutionConfig(generations=8, seed=1), observer)
    assert seen == list(range(9))


def test_max_stored_score_never_decreases(flat_spec, well_trained_policy):
    result = run(flat_spec, well_trained_policy, EvolutionConfig(generations=12, seed=2))
    maxima = [stats.max_joint for stats in result.history]
    assert all(later >= earlier for earlier, later in zip(maxima, maxima[1:]))


def test_stored_scores_are_never_recomputed(flat_spec, well_trained_policy):
    result = run(flat_spec, well_trained_policy, EvolutionConfig(generations=10, seed=3))
    by_generation = [
        {snap.id: snap.fitness for snap in stats.individuals} for stats in result.history
    ]
    for earlier, later in zip(by_generation, by_generation[1:]):
        for the_id, fitness in later.items():
            if the_id in earlier:
                assert earlier[the_id] == fitness


def test_rerun_reproduces_identical_populations(flat_spec, well_trained_policy):
    config = EvolutionConfig(generations=6, seed=7)
    a = run(flat_spec, well_trained_policy, config)
    b = run(flat_spec, well_trained_policy, config)
    assert [i.genome for i in a.population] == [i.genome for i in b.population]
    assert [i.fitness for i in a.population] == [i.fitness for i in b.population]
    assert a.history == b.history


def test_baseline_shares_the_initial_population_with_run(flat_spec, well_trained_policy):
    config = EvolutionConfig(generations=6, seed=9)
    searched = run(flat_spec, well_trained_policy, config)
    random_only = baseline(flat_spec, well_trained_policy, config)
    assert len(random_only.history) == 1
    assert searched.history[0] == random_only.history[0]
    assert [i.id for i in random_only.population] == sorted(
        (i.id for i in random_only.population),
        key=lambda the_id: (
            -next(p.fitness.joint for p in random_only.population if p.id == the_id),
            the_id,
        ),
    )


def test_observer_sees_the_baseline_population_once(flat_spec, well_trained_policy):
    calls = []
    baseline(
        flat_spec,
        well_trained_policy,
        EvolutionConfig(seed=0),
        lambda generation, population, demos: calls.append(generation),
    )
    assert calls == [0]


# ---------------------------------------------------------------------------
# rollout reuse for starts held by live individuals


def _seeded(spec, policy, seed):
    config = EvolutionConfig(seed=seed)
    encoding = spec.encoding_spec(config.bits_per_dimension)
    rng = np.random.default_rng(seed)
    population, demos = init_population(config, spec, encoding, policy, rng)
    return config, encoding, rng, population, demos


def test_a_live_start_reuses_the_twin_rollout(flat_spec, well_trained_policy, monkeypatch):
    _, encoding, _, population, demos = _seeded(flat_spec, well_trained_policy, 0)
    calls, scored, members = [], [], []
    original_rollouts = GridSpec.rollouts
    original_score = evolution.joint_fitness
    original_add = fitness.DemonstrationSet.add

    def rollouts(spec, policy, starts):
        calls.append(list(starts))
        return original_rollouts(spec, policy, starts)

    def joint_fitness(trajectory, *args):
        scored.append((trajectory, original_score(trajectory, *args)))
        return scored[-1][1]

    def add(demos, trajectory, *profile):
        original_add(demos, trajectory, *profile)
        members.append({id(t) for t in demos.trajectories()})

    monkeypatch.setattr(GridSpec, "rollouts", rollouts)
    monkeypatch.setattr(evolution, "joint_fitness", joint_fitness)
    monkeypatch.setattr(fitness.DemonstrationSet, "add", add)
    twin = population[3]
    fresh_start = next(
        (r, c)
        for r in range(1, 10)
        for c in range(1, 10)
        if flat_spec.validate_initial(GridState(r, c)) is None
        and all(i.initial_state != GridState(r, c) for i in population)
    )
    candidates = [
        (10, twin.genome.value, twin.initial_state.key),
        (11, twin.genome.value, fresh_start),
        (12, twin.genome.value, fresh_start),  # held by offspring 11 by now
    ]
    offspring = evaluate_offspring(
        candidates, 1, encoding.genome_length, demos, flat_spec, well_trained_policy, population
    )
    assert calls == [[fresh_start]]
    (reused, reused_fitness), (fresh, _), (fresh_again, again_fitness) = scored
    assert reused is not twin.trajectory
    assert reused == twin.trajectory
    assert reused.states is twin.trajectory.states
    d_l, c = twin.fitness.local_diversity, twin.fitness.certainty
    assert reused_fitness == FitnessComponents(d_l, c, 0.0, 0.0, 0.0)
    assert fresh_again is not fresh
    assert fresh_again == fresh
    assert again_fitness.joint == 0.0
    # the fresh offspring is its own member of the set while the batch is
    # scored; the twins, which score 0, at most the weakest member's joint,
    # never join it, and become no individual
    assert len(members) == 1
    assert members[-1] == {id(i.trajectory) for i in population} | {id(fresh)}
    assert [i.id for i in offspring] in ([], [11])
    assert {id(t) for t in demos.trajectories()} == {
        id(i.trajectory) for i in population + offspring
    }


def test_dropped_trajectories_are_freed(flat_spec, well_trained_policy, monkeypatch):
    config, encoding, rng, population, demos = _seeded(flat_spec, well_trained_policy, 6)
    scored = []  # a weak reference to every offspring trajectory scored
    original_score = evolution.joint_fitness

    def joint_fitness(trajectory, *args):
        scored.append(weakref.ref(trajectory))
        return original_score(trajectory, *args)

    monkeypatch.setattr(evolution, "joint_fitness", joint_fitness)
    dropped = []
    for generation in range(1, 4):
        candidates = make_offspring(population, config, encoding, flat_spec, rng, 100 * generation)
        offspring = evaluate_offspring(candidates, generation, encoding.genome_length, demos,
                                       flat_spec, well_trained_policy, population)
        survivors = migrate(population, offspring, config.population_size, demos)
        kept = {id(i) for i in survivors}
        dropped += [i for i in population + offspring if id(i) not in kept]
        population = survivors
    live_starts = {i.initial_state for i in population}
    assert any(i.initial_state not in live_starts for i in dropped)
    refs = [weakref.ref(i.trajectory) for i in dropped]
    live = {id(i.trajectory) for i in population}
    assert len(scored) > len(refs)  # the dropped individuals are fewer: some offspring never were
    del candidates, offspring, survivors, dropped
    gc.collect()
    # even a dropped rollout whose tuples a live twin still shares is freed itself
    assert all(ref() is None for ref in refs)
    # and so is every offspring's that never became an individual
    assert all(ref() is None or id(ref()) in live for ref in scored)


def test_each_fresh_reach_start_is_rolled_out_once_per_generation(
    reach_spec, reach_controller, monkeypatch
):
    # 2 bits per dimension leave 4**6 starts, so offspring often repeat one
    config = EvolutionConfig(population_size=8, generations=6, bits_per_dimension=2, seed=5)
    batches, candidate_starts, population_starts = [], [], []
    original_rollouts = ReachSpec.rollouts
    original_make_offspring = evolution.make_offspring

    def rollouts(env_spec, policy, starts):
        batches.append(list(starts))
        return original_rollouts(env_spec, policy, starts)

    def make_offspring(*args):
        candidates = original_make_offspring(*args)
        candidate_starts.append([key for _, _, key in candidates])
        return candidates

    monkeypatch.setattr(ReachSpec, "rollouts", rollouts)
    monkeypatch.setattr(evolution, "make_offspring", make_offspring)
    run(reach_spec, reach_controller, config,
        lambda generation, population, demos: population_starts.append(
            {i.initial_state.key for i in population}))
    assert len(batches) == config.generations + 1
    assert any(len(set(starts)) < len(starts) for starts in candidate_starts)
    assert any(set(starts) & live for starts, live in zip(candidate_starts, population_starts))
    for starts, live, batch in zip(candidate_starts, population_starts, batches[1:]):
        fresh = [s for s in starts if s not in live]
        assert batch == list(dict.fromkeys(fresh))  # distinct, in creation order


def test_a_batch_makes_one_distance_pass_and_one_score_call_per_candidate(
    reach_spec, reach_controller, monkeypatch
):
    config = EvolutionConfig(population_size=8, generations=5, bits_per_dimension=2, seed=5)
    rolled, passes, scored, offspring = [], [], [], []
    original_rollouts = ReachSpec.rollouts
    original_pass = fitness.DemonstrationSet.nearest_distances
    original_score = evolution.joint_fitness
    original_make_offspring = evolution.make_offspring

    def rollouts(env_spec, policy, starts):
        trajectories = original_rollouts(env_spec, policy, starts)
        rolled.append(trajectories)
        return trajectories

    def nearest_distances(demos, trajectories, table=None, env_spec=None, floor=None):
        passes.append(list(trajectories))
        return original_pass(demos, trajectories, table, env_spec, floor)

    def joint_fitness(trajectory, demos, env_spec, nearest_distance=None):
        assert nearest_distance is not None  # the batch pass or the twin rule answered it
        scored.append(trajectory)
        return original_score(trajectory, demos, env_spec, nearest_distance)

    def make_offspring(*args):
        candidates = original_make_offspring(*args)
        offspring.append(len(candidates))
        return candidates

    monkeypatch.setattr(ReachSpec, "rollouts", rollouts)
    monkeypatch.setattr(fitness.DemonstrationSet, "nearest_distances", nearest_distances)
    monkeypatch.setattr(evolution, "joint_fitness", joint_fitness)
    monkeypatch.setattr(evolution, "make_offspring", make_offspring)
    run(reach_spec, reach_controller, config)
    assert len(passes) == len(rolled) == config.generations + 1
    for batch, fresh in zip(passes, rolled):
        # each pass holds exactly the batch's fresh rollouts, in creation order
        assert list(map(id, batch)) == list(map(id, fresh))
    assert len(scored) == config.population_size + sum(offspring)
    assert len(scored) > sum(map(len, passes))  # twins were scored outside the pass


def test_a_reach_generation_builds_one_store(reach_spec, reach_controller, monkeypatch):
    # the bound and the exact pass read one store of the members and the batch
    config = EvolutionConfig(population_size=30, generations=5, bits_per_dimension=9, seed=2)
    stores, per_generation = [], []
    original_init = fitness._Blocks.__init__
    original_evaluate = evolution.evaluate_offspring

    def init(blocks, *args):
        stores.append(blocks)
        original_init(blocks, *args)

    def evaluate_offspring(*args):
        stores.clear()
        offspring = original_evaluate(*args)
        per_generation.append(len(stores))
        return offspring

    monkeypatch.setattr(fitness._Blocks, "__init__", init)
    monkeypatch.setattr(evolution, "evaluate_offspring", evaluate_offspring)
    run(reach_spec, reach_controller, config)
    assert per_generation == [1] * (config.generations + 1)


@settings(max_examples=20, deadline=None)
@given(
    reach=st.booleans(),
    population_size=st.integers(2, 8),
    generations=st.integers(1, 4),
    bits_per_dimension=st.integers(2, 7),
    seed=st.integers(0, 2**31 - 1),
)
def test_the_distance_pass_gets_no_twin_and_every_twin_scores_at_distance_zero(
    flat_spec, reach_spec, reach, seed, **fields
):
    # few bits leave few starts, so offspring often repeat a live start; a grid
    # has only 81 interior cells, and its 9 rows need at least 4 bits
    if reach:
        spec, policy = reach_spec, GaussianControllerPolicy(step_size=reach_spec.step_size)
    else:
        q = np.random.default_rng(seed).normal(size=(flat_spec.height, flat_spec.width, 4))
        spec, policy = flat_spec, TabularPolicy(q)
        fields["bits_per_dimension"] = max(fields["bits_per_dimension"], 4)
    passed = {}  # every trajectory a pass received, by id; held, so no id is reused
    original_pass = fitness.DemonstrationSet.nearest_distances
    original_score = evolution.joint_fitness

    def nearest_distances(demos, trajectories, table=None, env_spec=None, floor=None):
        seen = {trajectory.states for trajectory in demos.trajectories()}
        for trajectory in trajectories:
            assert trajectory.states not in seen  # equal to no member nor earlier row
            seen.add(trajectory.states)
            passed[id(trajectory)] = trajectory
        return original_pass(demos, trajectories, table, env_spec, floor)

    def joint_fitness(trajectory, demos, env_spec, nearest_distance=None):
        if id(trajectory) not in passed:  # a twin
            assert nearest_distance == 0.0
            assert trajectory.states in {t.states for t in demos.trajectories()}
        return original_score(trajectory, demos, env_spec, nearest_distance)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitness.DemonstrationSet, "nearest_distances", nearest_distances)
        patch.setattr(evolution, "joint_fitness", joint_fitness)
        run(spec, policy, EvolutionConfig(seed=seed, **fields))


# ---------------------------------------------------------------------------
# the grid's rollout table


def test_a_search_does_not_depend_on_what_the_rollout_table_holds(
    tmp_path, holey_spec, just_converged_holey_policy
):
    q, temperature = just_converged_holey_policy.q_values, just_converged_holey_policy.temperature
    config = EvolutionConfig(seed=3)
    cold = run(holey_spec, TabularPolicy(q, temperature), config)
    policy = TabularPolicy(q, temperature)
    for seed in range(3):
        run(holey_spec, policy, dataclasses.replace(config, seed=seed))
        baseline(holey_spec, policy, dataclasses.replace(config, seed=seed))
    run(holey_spec, policy, dataclasses.replace(config, bits_per_dimension=5))  # another sweep cell
    table = holey_spec.rollout_table(policy)
    walked, scored = len(table.trajectories), len(table.distances)
    assert walked and scored
    warm = run(holey_spec, policy, config)
    assert holey_spec.rollout_table(policy) is table and len(table.distances) > scored
    assert warm == cold
    for name, result in (("cold", cold), ("warm", warm)):
        export_bundle(result, tmp_path / name, {"environment": "HoleyGrid11", "seed": 3})
    files = sorted(p.name for p in (tmp_path / "cold").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "warm").iterdir())
    for name in files:
        assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()


def test_a_rollout_table_grows_with_the_cells_walked_and_the_pairs_scored(monkeypatch):
    # 101x101: a dense table over cell pairs would be about 800 MB
    rows = ["#" * 101] + ["#" + "." * 99 + "#"] * 99 + ["#" * 101]
    rows[50] = "#" + "." * 49 + "T" + "." * 49 + "#"
    spec = parse_layout("\n".join(rows))
    policy = TabularPolicy(np.random.default_rng(0).normal(size=(101, 101, 4)))
    asked, scored = set(), set()
    original_rollouts = GridSpec.rollouts
    original_pass = fitness.DemonstrationSet.nearest_distances

    def rollouts(env_spec, policy, starts):
        asked.update(row * 101 + col for row, col in starts)
        return original_rollouts(env_spec, policy, starts)

    def nearest_distances(demos, trajectories, table=None, env_spec=None, floor=None):
        assert table is spec.rollout_table(policy)
        blocks = list(demos.trajectories()) + list(trajectories)
        cells = [table.cell(block) for block in blocks]
        for row in range(len(blocks) - len(trajectories), len(blocks)):
            for column in range(row):  # every earlier block of another object
                if blocks[column] is not blocks[row]:
                    low, high = sorted((cells[row], cells[column]))
                    scored.add(low * table.size + high)
        distances = original_pass(demos, trajectories, table, env_spec, floor)
        # a grid works out every row through its table: the floor prunes none
        assert distances == original_pass(demos, trajectories, table)
        return distances

    monkeypatch.setattr(GridSpec, "rollouts", rollouts)
    monkeypatch.setattr(fitness.DemonstrationSet, "nearest_distances", nearest_distances)
    tracemalloc.start()
    try:
        run(spec, policy, EvolutionConfig(generations=2, bits_per_dimension=7, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = spec.rollout_table(policy)
    assert set(table.trajectories) == asked  # one rollout per cell asked for
    assert set(table.distances) == scored  # one distance per pair scored
    assert len(scored) < 1000
    assert peak < 40 * 2**20  # no array of cells x cells (10,201**2 bytes is 99 MiB)


# ---------------------------------------------------------------------------
# search invariants over generated configurations


@st.composite
def reach_cases(draw):
    """A PointReach-like spec and its controller: a gain below 1 or a small step
    in a wide box makes collapsed trajectories longer than 7 states."""
    dims = draw(st.integers(1, 3))
    bounds = tuple(
        (low, low + width)
        for low, width in draw(st.lists(
            st.tuples(st.floats(-1.0, 0.5), st.floats(0.05, 1.5)), min_size=dims, max_size=dims,
        ))
    )
    step_size = draw(st.floats(0.01, 0.2))
    spec = ReachSpec(bounds=bounds, goal_radius=draw(st.floats(0.005, 0.5)),
                     horizon=draw(st.integers(1, 40)), step_size=step_size)
    return spec, GaussianControllerPolicy(gain=draw(st.sampled_from([0.3, 0.5, 1.0, 2.0])),
                                          step_size=step_size)


def _rounded_policy(spec, seed):
    """A tabular policy of rounded random Q values: many starts loop."""
    rng = np.random.default_rng(seed)
    return TabularPolicy(np.round(rng.normal(size=(spec.height, spec.width, 4))))


@st.composite
def grid_cases(draw, max_side=9, max_steps=80):
    """A generated layout of 3 to ``max_side`` per side and a tabular policy over it."""
    spec = draw(reference.grid_layouts(max_height=max_side, max_width=max_side,
                                       max_steps=max_steps))
    return spec, _rounded_policy(spec, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=30, deadline=None)
@given(
    # FlatGrid11 with a random Q table, the default PointReach, generated
    # reach geometry (bounded inside the distance read) or a generated layout
    case=st.one_of(st.sampled_from(["flat", "reach"]), reach_cases(),
                   grid_cases(max_side=15, max_steps=100)),
    population_size=st.integers(2, 8),
    generations=st.integers(1, 4),
    crossover_probability=st.sampled_from([0.0, 0.5, 0.75, 1.0]),
    mutation_probability=st.sampled_from([0.0, 0.5, 1.0]),
    tournament_size=st.integers(1, 4),
    bits_per_dimension=st.integers(4, 7),
    seed=st.integers(0, 2**31 - 1),
)
def test_search_invariants_hold_for_generated_configs(flat_spec, reach_spec, case, seed, **fields):
    if case == "reach":
        spec, policy = reach_spec, GaussianControllerPolicy(step_size=reach_spec.step_size)
    elif case == "flat":
        q = np.random.default_rng(seed).normal(size=(flat_spec.height, flat_spec.width, 4))
        spec, policy = flat_spec, TabularPolicy(q)
    else:
        spec, policy = case
    config = EvolutionConfig(seed=seed, **fields)
    best = [-math.inf]

    def observer(generation, population, demos):
        # the set is the image of the population, member for member
        assert sorted(map(id, demos.trajectories())) == sorted(id(i.trajectory) for i in population)
        assert all(spec.validate_initial(i.initial_state) is None for i in population)
        twin = population[0].trajectory.copy()
        assert fitness.joint_fitness(twin, demos, spec).joint == 0.0  # a duplicate scores 0
        top = max(i.fitness.joint for i in population)
        assert top >= best[0]  # the stored maximum never decreases
        best[0] = top

    bundles = []
    with tempfile.TemporaryDirectory() as directory:
        for rerun in range(2):
            out = Path(directory) / str(rerun)
            export_bundle(run(spec, policy, config, observer if rerun == 0 else None), out)
            bundles.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert bundles[0] == bundles[1]


# ---------------------------------------------------------------------------
# offspring that provably cannot survive skip the exact distance pass


class _Untabled:
    """The wrapped spec answering no rollout table, so the search bounds its
    offspring as it does on a spec that has none; all else is the spec's."""

    def __init__(self, spec):
        self._spec = spec

    def __getattr__(self, name):
        return getattr(self._spec, name)

    def rollout_table(self, policy):
        return None


LONG_REACH = ReachSpec(bounds=((-0.5, 0.5),) * 3, horizon=40, step_size=0.02)


@settings(max_examples=25, deadline=None)
@given(
    case=st.one_of(st.none(), reach_cases()),  # None: FlatGrid11 without its table
    population_size=st.integers(2, 8),
    generations=st.integers(1, 6),
    bits_per_dimension=st.integers(2, 7),
    seed=st.integers(0, 2**31 - 1),
)
@example(  # most of its trajectories collapse to 20 to 40 states
    case=(LONG_REACH, GaussianControllerPolicy(gain=0.5, step_size=LONG_REACH.step_size)),
    population_size=8, generations=6, bits_per_dimension=6, seed=1,
)
def test_a_pruned_search_matches_the_exact_search(flat_spec, case, seed, **fields):
    if case is None:
        q = np.random.default_rng(seed).normal(size=(flat_spec.height, flat_spec.width, 4))
        spec, policy = _Untabled(flat_spec), TabularPolicy(q)
        fields["bits_per_dimension"] = max(fields["bits_per_dimension"], 4)
    else:
        spec, policy = case
    config = EvolutionConfig(seed=seed, **fields)
    original_pass = fitness.DemonstrationSet.nearest_distances
    original_kernel = fitness._Blocks.one_way
    original_score = evolution.joint_fitness
    original_evaluate = evolution.evaluate_offspring
    original_migrate = evolution.migrate

    def search(pruning):
        # pruned trajectories by id, each held so that its id is not reused
        # by a later trajectory once the search has dropped it
        calls, pruned, floors, joints, kernel_rows = [], {}, {}, {}, []

        def one_way(blocks, left, right):
            kernel_rows.append(left)
            return original_kernel(blocks, left, right)

        def nearest_distances(demos, trajectories, table=None, env_spec=None, floor=None):
            kernel_rows.clear()
            # without a floor every row goes through the exact pass
            distances = original_pass(demos, trajectories, table, env_spec,
                                      floor if pruning else None)
            if len(demos) and trajectories:  # a row the read's last kernel call skips
                asked = set(kernel_rows[-1].tolist())
                pruned.update((id(t), t) for k, t in enumerate(trajectories)
                              if len(demos) + k not in asked)
            return distances

        def joint_fitness(trajectory, *args):
            components = original_score(trajectory, *args)
            joints[id(trajectory)] = components.joint  # a batch's scores, by trajectory
            return components

        def evaluate_offspring(candidates, generation, length, demos, env_spec, policy, population):
            joints.clear()
            offspring = original_evaluate(candidates, generation, length, demos, env_spec, policy,
                                          population)
            for key, joint in joints.items():
                if key in pruned:
                    # its one score, at the bound distance, is at most the floor
                    floor = min(i.fitness.joint for i in population)
                    assert joint <= floor
                    floors[key] = floor
            # no pruned offspring becomes an individual
            assert not {id(i.trajectory) for i in offspring} & set(floors)
            return offspring

        def migrate(population, offspring, population_size, demos):
            kept = original_migrate(population, offspring, population_size, demos)
            # every pruned offspring is dropped
            assert not {id(i.trajectory) for i in kept} & set(floors)
            return kept

        def observer(generation, population, demos):
            profiles = [(e.local_diversity, e.certainty) for e in demos]
            calls.append((generation, tuple(population), demos.trajectories(), profiles))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fitness.DemonstrationSet, "nearest_distances", nearest_distances)
            patch.setattr(fitness._Blocks, "one_way", one_way)
            patch.setattr(evolution, "joint_fitness", joint_fitness)
            patch.setattr(evolution, "evaluate_offspring", evaluate_offspring)
            patch.setattr(evolution, "migrate", migrate)
            result = run(spec, policy, config, observer)
        if not pruning:
            assert not pruned
        return result, calls

    (exact, exact_calls), (pruned, pruned_calls) = search(False), search(True)
    assert pruned.population == exact.population
    assert pruned.history == exact.history
    assert pruned_calls == exact_calls
    with tempfile.TemporaryDirectory() as directory:
        bundles = []
        for name, result in (("exact", exact), ("pruned", pruned)):
            export_bundle(result, Path(directory) / name)
            bundles.append({p.name: p.read_bytes() for p in sorted((Path(directory) / name).iterdir())})
    assert bundles[0] == bundles[1]


def test_most_reach_offspring_skip_the_exact_distance_pass(reach_spec, reach_controller, monkeypatch):
    rows = [0, 0]  # fresh rows of the bounded batches, and those the exact pass worked out
    original_pass = fitness.DemonstrationSet.nearest_distances
    original_kernel = fitness._Blocks.one_way
    kernel_rows = []

    def one_way(blocks, left, right):
        kernel_rows.append(left)
        return original_kernel(blocks, left, right)

    def nearest_distances(demos, trajectories, table=None, env_spec=None, floor=None):
        kernel_rows.clear()
        distances = original_pass(demos, trajectories, table, env_spec, floor)
        if floor is not None and len(demos) and trajectories:  # the exact call comes last
            rows[0] += len(trajectories)
            rows[1] += len(set(kernel_rows[-1].tolist()))
        return distances

    monkeypatch.setattr(fitness.DemonstrationSet, "nearest_distances", nearest_distances)
    monkeypatch.setattr(fitness._Blocks, "one_way", one_way)
    for seed in range(2):
        config = EvolutionConfig(population_size=30, generations=10, bits_per_dimension=9, seed=seed)
        run(reach_spec, reach_controller, config)
    assert rows[1] < rows[0] / 2


# ---------------------------------------------------------------------------
# work a search does once: twin keys, profile values, member blocks


@pytest.mark.parametrize("fixtures", [
    ("flat_spec", "well_trained_policy"),
    ("holey_spec", "just_converged_holey_policy"),
    ("reach_spec", "reach_controller"),
])
def test_a_search_tells_starts_apart_without_hashing_a_state(fixtures, request, monkeypatch):
    spec, policy = map(request.getfixturevalue, fixtures)
    # few bits leave few starts, so offspring often repeat a live start
    config = EvolutionConfig(population_size=8, generations=6, bits_per_dimension=4, seed=11)
    expected = run(spec, policy, config)

    def unhashable(state):
        raise AssertionError(f"a {type(state).__name__} was hashed")

    monkeypatch.setattr(GridState, "__hash__", unhashable)
    monkeypatch.setattr(ReachState, "__hash__", unhashable)
    with pytest.raises(AssertionError, match="was hashed"):
        hash(GridState(1, 1))
    assert run(spec, policy, config) == expected


def test_each_rollout_works_out_its_profile_values_once(flat_spec, reach_spec, reach_controller,
                                                        monkeypatch):
    computed = {"distinct_points": [], "mean_certainty": []}  # the trajectories each was made for
    for name, made in computed.items():
        original = getattr(Trajectory, name).func
        counting = functools.cached_property(
            lambda trajectory, made=made, original=original: made.append(trajectory)
            or original(trajectory)
        )
        counting.__set_name__(Trajectory, name)
        monkeypatch.setattr(Trajectory, name, counting)
    batches = []
    original_rollouts = ReachSpec.rollouts

    def rollouts(env_spec, policy, starts):
        trajectories = original_rollouts(env_spec, policy, starts)
        batches.append(trajectories)
        return trajectories

    monkeypatch.setattr(ReachSpec, "rollouts", rollouts)
    # the reach search bounds its offspring, then scores them: every row of a
    # batch shares one certainty tuple, so the batch works out its mean once
    run(reach_spec, reach_controller, EvolutionConfig(population_size=10, generations=5, seed=2))
    nonempty = [batch for batch in batches if batch]
    assert len(nonempty) == 6
    assert list(map(id, computed["mean_certainty"])) == [id(batch[0]) for batch in nonempty]
    assert computed["distinct_points"] == []  # a continuous space counts no distinct states
    # a grid works both out once per walked cell, and every copy shares them
    computed["mean_certainty"].clear()
    policy = TabularPolicy(np.random.default_rng(4).normal(size=(flat_spec.height, flat_spec.width, 4)))
    run(flat_spec, policy, EvolutionConfig(generations=8, bits_per_dimension=4, seed=4))
    walked = list(flat_spec.rollout_table(policy).trajectories.values())
    for made in computed.values():
        assert sorted(map(id, made)) == sorted(map(id, walked))


LOOPING_HOLEY = preset("HoleyGrid11")


@settings(max_examples=30, deadline=None)
@given(
    case=st.one_of(reach_cases(), grid_cases()),
    population_size=st.integers(2, 8),
    generations=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
@example(  # most of its trajectories collapse to 20 to 40 states
    case=(LONG_REACH, GaussianControllerPolicy(gain=0.5, step_size=LONG_REACH.step_size)),
    population_size=8, generations=4, seed=1,
)
@example(  # many of its paths loop over a few cells for 100 steps
    case=(LOOPING_HOLEY, _rounded_policy(LOOPING_HOLEY, 0)), population_size=8, generations=4, seed=1,
)
def test_a_store_of_the_members_holds_their_blocks_in_insertion_order(case, seed, **fields):
    spec, policy = case
    checked = []

    def observer(generation, population, demos):
        blocks = fitness._Blocks(demos.trajectories())
        assert len(blocks.counts) == len(demos) == len(population)
        for slot, entry in enumerate(demos):
            points = entry.trajectory.points
            length, count = blocks.lengths[slot], blocks.counts[slot]
            assert length == len(points)
            stored = (entry.trajectory.distinct_points[0]
                      if fitness.SHORT_BLOCK < length <= 128 else points)
            assert count == len(stored)
            assert blocks.points[:, :count, slot].T.tobytes() == stored.tobytes()
            # the padding repeats the last stored point, and each point's row is its own
            assert (blocks.points[:, count:, slot].T == stored[-1]).all()
            assert blocks.points[:, blocks.rows[:length, slot], slot].T.tobytes() == points.tobytes()
        checked.append(generation)

    config = EvolutionConfig(seed=seed, bits_per_dimension=5, **fields)
    run(spec, policy, config, observer)
    assert checked == list(range(config.generations + 1))


# ---------------------------------------------------------------------------
# only offspring that can survive become individuals


@st.composite
def preset_cases(draw, flat_spec, holey_spec, reach_spec):
    """A shipped preset and a policy for it: random Q values on a grid."""
    spec = draw(st.sampled_from([flat_spec, holey_spec, reach_spec]))
    if spec is reach_spec:
        return spec, GaussianControllerPolicy(step_size=spec.step_size)
    return spec, _rounded_policy(spec, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    population_size=st.integers(2, 8),
    generations=st.integers(1, 5),
    bits_per_dimension=st.integers(4, 7),
    seed=st.integers(0, 2**31 - 1),
)
@example(  # most of its trajectories collapse to 20 to 40 states
    data=None, population_size=8, generations=4, bits_per_dimension=6, seed=1,
)
def test_a_search_equals_the_per_candidate_path(
    flat_spec, holey_spec, reach_spec, data, seed, **fields
):
    if data is None:
        spec, policy = LONG_REACH, GaussianControllerPolicy(gain=0.5, step_size=LONG_REACH.step_size)
    else:
        spec, policy = data.draw(st.one_of(preset_cases(flat_spec, holey_spec, reach_spec),
                                           reach_cases()))
    config = EvolutionConfig(seed=seed, **fields)

    def search(evaluate):
        calls = []

        def observer(generation, population, demos):
            profiles = [(e.local_diversity, e.certainty) for e in demos]
            calls.append((generation, tuple(population), demos.trajectories(), profiles))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evolution, "evaluate_offspring", evaluate)
            return run(spec, policy, config, observer), calls

    (result, calls) = search(evolution.evaluate_offspring)
    # an individual per candidate, each scored alone, and migrate over all of them
    (expected, expected_calls) = search(reference_evaluate)
    assert result.population == expected.population
    assert result.history == expected.history
    assert calls == expected_calls
    with tempfile.TemporaryDirectory() as directory:
        bundles = []
        for name, searched in (("search", result), ("reference", expected)):
            export_bundle(searched, Path(directory) / name)
            bundles.append({p.name: p.read_bytes()
                            for p in sorted((Path(directory) / name).iterdir())})
    assert bundles[0] == bundles[1]


@pytest.mark.parametrize("fixtures,bits", [
    (("flat_spec", "well_trained_policy"), 4),
    (("holey_spec", "just_converged_holey_policy"), 4),
    (("reach_spec", "reach_controller"), 4),
    # 64 corner starts: the seed population holds twins, so its weakest joint
    # is 0, and every twin offspring ties it
    (("reach_spec", "reach_controller"), 1),
])
def test_only_offspring_above_the_weakest_member_become_individuals(
    fixtures, bits, request, monkeypatch
):
    spec, policy = map(request.getfixturevalue, fixtures)
    # few bits leave few starts, so offspring often repeat a live start
    config = EvolutionConfig(population_size=8, generations=6, bits_per_dimension=bits, seed=11)
    scored, added, individuals, genomes, batches = [], [], [], [], []
    original_score, original_add = evolution.joint_fitness, fitness.DemonstrationSet.add
    original_individual, original_genome = evolution.Individual, evolution.BitGenome
    original_evaluate = evolution.evaluate_offspring

    def joint_fitness(trajectory, *args):
        scored.append(original_score(trajectory, *args))
        return scored[-1]

    def add(demos, trajectory, *profile):
        added.append(trajectory)
        original_add(demos, trajectory, *profile)

    def individual(*args, **fields):
        individuals.append(original_individual(*args, **fields))
        return individuals[-1]

    def genome(*args):
        genomes.append(original_genome(*args))
        return genomes[-1]

    def evaluate_offspring(candidates, generation, length, demos, env_spec, policy, population):
        for made in (scored, added, individuals, genomes):
            made.clear()
        offspring = original_evaluate(candidates, generation, length, demos, env_spec, policy,
                                      population)
        held = {i.initial_state.key for i in population}
        batches.append((generation, list(candidates), held, list(population), list(scored),
                        list(added), list(individuals), list(genomes), offspring))
        return offspring

    monkeypatch.setattr(evolution, "joint_fitness", joint_fitness)
    monkeypatch.setattr(fitness.DemonstrationSet, "add", add)
    monkeypatch.setattr(evolution, "Individual", individual)
    monkeypatch.setattr(evolution, "BitGenome", genome)
    monkeypatch.setattr(evolution, "evaluate_offspring", evaluate_offspring)
    run(spec, policy, config)
    assert [batch[0] for batch in batches] == list(range(config.generations + 1))
    twins = dropped = ties = 0
    for generation, candidates, held, population, scores, adds, made, built, offspring in batches:
        floor = min((i.fitness.joint for i in population), default=-math.inf)
        if generation:
            assert floor > -math.inf
        # a twin: its start key a member or an earlier offspring holds
        is_twin = []
        for _, _, key in candidates:
            is_twin.append(key in held)
            held.add(key)
        dropped_twins = [twin and components.joint <= floor
                         for twin, components in zip(is_twin, scores)]
        # one score per candidate, and one add per candidate but the twins that cannot survive
        assert len(scores) == len(candidates)
        assert len(adds) == len(candidates) - sum(dropped_twins)
        assert len(set(map(id, adds))) == len(adds)
        if generation:  # from generation 1 on every twin scores 0, at most the floor
            assert dropped_twins == is_twin
        above = [candidate for candidate, components in zip(candidates, scores)
                 if components.joint > floor]
        # an Individual and a BitGenome for each of those and no other offspring
        assert [i.id for i in made] == [the_id for the_id, _, _ in above]
        assert [genome.value for genome in built] == [value for _, value, _ in above]
        assert made == offspring
        twins += sum(is_twin)
        dropped += len(candidates) - len(above)
        ties += sum(components.joint == floor for components in scores)
    assert twins and dropped
    assert ties or bits > 1


@pytest.mark.parametrize("fixtures", [
    ("flat_spec", "well_trained_policy"),
    ("holey_spec", "just_converged_holey_policy"),
    ("reach_spec", "reach_controller"),
])
def test_a_twin_that_cannot_survive_never_reaches_the_set(fixtures, request, monkeypatch):
    spec, policy = map(request.getfixturevalue, fixtures)
    # few bits leave few starts, so offspring often repeat a live start
    config = EvolutionConfig(population_size=8, generations=6, bits_per_dimension=4, seed=11)
    scored, touched, dropped_twins = [], {}, []  # each held, so that no id is reused
    original_score = evolution.joint_fitness
    original_add, original_discard = fitness.DemonstrationSet.add, fitness.DemonstrationSet.discard
    original_evaluate = evolution.evaluate_offspring

    def joint_fitness(trajectory, *args):
        scored.append((trajectory, original_score(trajectory, *args)))
        return scored[-1][1]

    def add(demos, trajectory, *profile):
        touched[id(trajectory)] = trajectory
        original_add(demos, trajectory, *profile)

    def discard(demos, trajectory):
        touched[id(trajectory)] = trajectory
        original_discard(demos, trajectory)

    def evaluate_offspring(candidates, generation, length, demos, env_spec, policy, population):
        scored.clear()
        offspring = original_evaluate(candidates, generation, length, demos, env_spec, policy,
                                      population)
        assert len(scored) == len(candidates)  # one joint_fitness call per candidate
        held = {i.initial_state.key for i in population}
        floor = min((i.fitness.joint for i in population), default=-math.inf)
        for (_, _, key), (trajectory, components) in zip(candidates, scored):
            if key in held and components.joint <= floor:
                dropped_twins.append(trajectory)
            held.add(key)
        return offspring

    monkeypatch.setattr(evolution, "joint_fitness", joint_fitness)
    monkeypatch.setattr(fitness.DemonstrationSet, "add", add)
    monkeypatch.setattr(fitness.DemonstrationSet, "discard", discard)
    monkeypatch.setattr(evolution, "evaluate_offspring", evaluate_offspring)
    run(spec, policy, config)
    assert dropped_twins
    assert not touched.keys() & set(map(id, dropped_twins))


def test_a_reach_search_makes_a_start_state_only_for_each_individual(
    reach_spec, reach_controller, monkeypatch
):
    made, individuals, candidates = [], [], []
    original_post_init = ReachState.__post_init__
    original_individual = evolution.Individual
    original_make_offspring = evolution.make_offspring

    def post_init(state):
        made.append(state)
        original_post_init(state)

    def individual(*args, **fields):
        individuals.append(original_individual(*args, **fields))
        return individuals[-1]

    def make_offspring(*args):
        offspring = original_make_offspring(*args)
        candidates.extend(offspring)
        return offspring

    monkeypatch.setattr(ReachState, "__post_init__", post_init)
    monkeypatch.setattr(evolution, "Individual", individual)
    monkeypatch.setattr(evolution, "make_offspring", make_offspring)
    config = EvolutionConfig(population_size=30, generations=10, bits_per_dimension=9, seed=3)
    run(reach_spec, reach_controller, config)
    # one start state per Individual, and it is that individual's; most
    # valid offspring never become one, and get none
    assert len(made) == len(individuals) > config.population_size
    assert all(state is i.initial_state for state, i in zip(made, individuals))
    assert len(individuals) - config.population_size < len(candidates) / 2


def test_population_and_tournament_sizes_are_capped_without_allocating():
    EvolutionConfig(population_size=MAX_POPULATION_SIZE, tournament_size=MAX_TOURNAMENT_SIZE,
                    bits_per_dimension=MAX_BITS_PER_DIMENSION)
    tracemalloc.start()
    try:
        for name, cap in (("population_size", MAX_POPULATION_SIZE),
                          ("tournament_size", MAX_TOURNAMENT_SIZE),
                          ("bits_per_dimension", MAX_BITS_PER_DIMENSION)):
            for value in (cap + 1, 10**9):
                with pytest.raises(ConfigurationError, match=name):
                    EvolutionConfig(**{name: value})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
