import gc
import math
import weakref

import numpy as np
import pytest

from evodemo import evolution
from evodemo.encoding import BitGenome
from evodemo.environments import (
    GridState,
    default_encoding_spec,
    parse_layout,
    validate_initial,
)
from evodemo.errors import ConfigurationError
from evodemo.evolution import (
    Candidate,
    EvolutionConfig,
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
    ],
)
def test_config_rejects_out_of_range_values(kwargs):
    with pytest.raises(ConfigurationError):
        EvolutionConfig(**kwargs)


# ---------------------------------------------------------------------------
# population seeding


def test_init_population_yields_valid_scored_individuals(flat_spec, well_trained_policy):
    config = EvolutionConfig(seed=0)
    encoding = default_encoding_spec(flat_spec, config.bits_per_dimension)
    rng = np.random.default_rng(config.seed)
    population, demos = init_population(config, flat_spec, encoding, well_trained_policy, rng)
    assert [individual.id for individual in population] == list(range(10))
    assert len(demos) == 10
    for individual in population:
        assert validate_initial(flat_spec, individual.initial_state) is None
        assert individual.birth_generation == 0
    # the first one is scored against an empty set, so it carries the sentinels
    first = population[0].fitness
    assert first.global_diversity == EMPTY_SET_GLOBAL_DIVERSITY
    assert first.local_distance == EMPTY_SET_LOCAL_DISTANCE


def test_init_population_is_seed_deterministic(flat_spec, well_trained_policy):
    config = EvolutionConfig(seed=3)
    encoding = default_encoding_spec(flat_spec, config.bits_per_dimension)
    a, _ = init_population(config, flat_spec, encoding, well_trained_policy, np.random.default_rng(3))
    b, _ = init_population(config, flat_spec, encoding, well_trained_policy, np.random.default_rng(3))
    assert [i.genome for i in a] == [i.genome for i in b]
    assert [i.fitness for i in a] == [i.fitness for i in b]


def test_unsatisfiable_start_sampling_is_a_config_error(well_trained_policy):
    # every interior cell is a hole or the target: nothing valid to decode into
    spec = parse_layout("#####\n#OOO#\n#OTO#\n#OOO#\n#####")
    config = EvolutionConfig(seed=0)
    encoding = default_encoding_spec(spec, config.bits_per_dimension)
    policy_q = np.zeros((spec.height, spec.width, 4))
    from evodemo.policy import TabularPolicy

    with pytest.raises(ConfigurationError, match="valid start"):
        init_population(config, spec, encoding, TabularPolicy(policy_q), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# offspring


def test_offspring_counts_follow_ceil_rule(flat_spec, well_trained_policy):
    config = EvolutionConfig(seed=1)
    encoding = default_encoding_spec(flat_spec, config.bits_per_dimension)
    rng = np.random.default_rng(config.seed)
    population, _ = init_population(config, flat_spec, encoding, well_trained_policy, rng)
    candidates = make_offspring(population, config, encoding, flat_spec, rng, 1, first_id=10)
    # every FlatGrid11 interior cell is a valid start, so none are filtered
    expected = math.ceil(10 * 0.75) + math.ceil(10 * 0.5)
    assert len(candidates) == expected
    assert [c.id for c in candidates] == list(range(10, 10 + expected))
    assert all(c.birth_generation == 1 for c in candidates)


def test_offspring_ids_skip_filtered_candidates(holey_spec, well_trained_policy):
    # holes can swallow decoded starts; surviving candidates keep dense ids
    config = EvolutionConfig(seed=5)
    encoding = default_encoding_spec(holey_spec, config.bits_per_dimension)
    rng = np.random.default_rng(config.seed)
    population, _ = init_population(config, holey_spec, encoding, well_trained_policy, rng)
    for generation in range(1, 6):
        candidates = make_offspring(
            population, config, encoding, holey_spec, rng, generation, first_id=100
        )
        assert [c.id for c in candidates] == list(range(100, 100 + len(candidates)))
        assert len(candidates) <= math.ceil(10 * 0.75) + math.ceil(10 * 0.5)


def test_evaluated_offspring_join_the_demo_set(flat_spec, well_trained_policy):
    config = EvolutionConfig(seed=2)
    encoding = default_encoding_spec(flat_spec, config.bits_per_dimension)
    rng = np.random.default_rng(config.seed)
    population, demos = init_population(config, flat_spec, encoding, well_trained_policy, rng)
    candidates = make_offspring(population, config, encoding, flat_spec, rng, 1, first_id=10)
    offspring = evaluate_offspring(candidates, demos, flat_spec, well_trained_policy, population)
    assert len(demos) == 10 + len(offspring)
    alive = {id(t) for t in demos.trajectories()}
    for individual in population + offspring:
        assert id(individual.trajectory) in alive


# ---------------------------------------------------------------------------
# migration


def test_migrate_keeps_best_by_stored_score(flat_spec, well_trained_policy):
    config = EvolutionConfig(seed=4)
    encoding = default_encoding_spec(flat_spec, config.bits_per_dimension)
    rng = np.random.default_rng(config.seed)
    population, demos = init_population(config, flat_spec, encoding, well_trained_policy, rng)
    candidates = make_offspring(population, config, encoding, flat_spec, rng, 1, first_id=10)
    offspring = evaluate_offspring(candidates, demos, flat_spec, well_trained_policy, population)

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
    encoding = default_encoding_spec(flat_spec, config.bits_per_dimension)
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
    encoding = default_encoding_spec(spec, config.bits_per_dimension)
    rng = np.random.default_rng(seed)
    population, demos = init_population(config, spec, encoding, policy, rng)
    return config, encoding, rng, population, demos


def test_a_live_start_reuses_the_twin_rollout(flat_spec, well_trained_policy, monkeypatch):
    _, _, _, population, demos = _seeded(flat_spec, well_trained_policy, 0)
    calls = []
    original_generate = evolution.rollout.generate
    monkeypatch.setattr(
        evolution.rollout, "generate", lambda *args: calls.append(args) or original_generate(*args)
    )
    twin = population[3]
    fresh_start = next(
        GridState(r, c)
        for r in range(1, 10)
        for c in range(1, 10)
        if validate_initial(flat_spec, GridState(r, c)) is None
        and all(i.initial_state != GridState(r, c) for i in population)
    )
    candidates = [
        Candidate(10, twin.genome, twin.initial_state, 1),
        Candidate(11, twin.genome, fresh_start, 1),
        Candidate(12, twin.genome, fresh_start, 1),  # held by offspring 11 by now
    ]
    reused, fresh, fresh_again = evaluate_offspring(
        candidates, demos, flat_spec, well_trained_policy, population
    )
    assert [args[2] for args in calls] == [fresh_start]
    assert reused.trajectory is not twin.trajectory
    assert reused.trajectory == twin.trajectory
    assert reused.trajectory.states is twin.trajectory.states
    d_l, c = twin.fitness.local_diversity, twin.fitness.certainty
    assert reused.fitness == FitnessComponents(d_l, c, 0.0, 0.0, 0.0)
    assert fresh_again.trajectory is not fresh.trajectory
    assert fresh_again.trajectory == fresh.trajectory
    assert fresh_again.fitness.joint == 0.0
    # every individual is its own member of the set
    assert len(demos) == 13
    assert {id(t) for t in demos.trajectories()} == {
        id(i.trajectory) for i in population + [reused, fresh, fresh_again]
    }


def test_dropped_trajectories_are_freed(flat_spec, well_trained_policy):
    config, encoding, rng, population, demos = _seeded(flat_spec, well_trained_policy, 6)
    dropped = []
    for generation in range(1, 4):
        candidates = make_offspring(
            population, config, encoding, flat_spec, rng, generation, 100 * generation
        )
        offspring = evaluate_offspring(candidates, demos, flat_spec, well_trained_policy, population)
        survivors = migrate(population, offspring, config.population_size, demos)
        kept = {id(i) for i in survivors}
        dropped += [i for i in population + offspring if id(i) not in kept]
        population = survivors
    live_starts = {i.initial_state for i in population}
    assert any(i.initial_state not in live_starts for i in dropped)
    refs = [weakref.ref(i.trajectory) for i in dropped]
    del candidates, offspring, survivors, dropped
    gc.collect()
    # even a dropped rollout whose tuples a live twin still shares is freed itself
    assert all(ref() is None for ref in refs)


def test_each_fresh_reach_start_is_rolled_out_once_per_generation(
    reach_spec, reach_controller, monkeypatch
):
    # 2 bits per dimension leave 4**6 starts, so offspring often repeat one
    config = EvolutionConfig(population_size=8, generations=6, bits_per_dimension=2, seed=5)
    batches, candidate_starts, population_starts = [], [], []
    original_generate_many = evolution.rollout.generate_many
    original_make_offspring = evolution.make_offspring

    def generate_many(env_spec, policy, starts):
        batches.append(list(starts))
        return original_generate_many(env_spec, policy, starts)

    def make_offspring(*args):
        candidates = original_make_offspring(*args)
        candidate_starts.append([c.initial_state for c in candidates])
        return candidates

    monkeypatch.setattr(evolution.rollout, "generate_many", generate_many)
    monkeypatch.setattr(evolution, "make_offspring", make_offspring)
    run(reach_spec, reach_controller, config,
        lambda generation, population, demos: population_starts.append(
            {i.initial_state for i in population}))
    assert len(batches) == config.generations + 1
    assert any(len(set(starts)) < len(starts) for starts in candidate_starts)
    assert any(set(starts) & live for starts, live in zip(candidate_starts, population_starts))
    for starts, live, batch in zip(candidate_starts, population_starts, batches[1:]):
        fresh = [s for s in starts if s not in live]
        assert batch == list(dict.fromkeys(fresh))  # distinct, in creation order
