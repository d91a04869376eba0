"""Population loop evolving disturbed start states into diverse demonstrations.

The demonstration set and the population move in lock-step: every evaluated
individual appends its trajectory to the set before the next one is scored,
so scores depend on evaluation order by design.  A stored score is never
recomputed; selection and survival always compare the score an individual
earned at its own evaluation time.  After survivor selection the trajectories
of dropped individuals leave the demonstration set again, keeping set and
population identical.

Per generation, ``ceil(n * crossover_probability)`` children come from
tournament-selected parent pairs and ``ceil(n * mutation_probability)``
single-bit mutants come from uniformly chosen parents (parents stay in the
population).  Offspring whose genome decodes to an invalid start state are
dropped without replacement.  Survivor selection keeps the top ``n`` by
stored score, ties resolved toward older individuals.

Rollouts are pure functions of the start state, so a candidate whose start
is held by a live individual (the population, or an offspring already
evaluated this generation) takes over that individual's rollout instead of
running its own.  Only live individuals are looked up, so memory stays
bounded by the population.  The distinct starts no live individual holds are
rolled out together, in one ``rollout.generate_many`` call per batch, before
any candidate of the batch is scored.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rollout
from .encoding import BitGenome, EncodingSpec, crossover, decode, mutate, random_genome
from .environments import EnvSpec, default_encoding_spec, initial_state_from_vector, validate_initial
from .errors import ConfigurationError
from .fitness import DemonstrationSet, FitnessComponents, joint_fitness
from .policy import Policy

MAX_SAMPLING_ATTEMPTS = 10_000


@dataclass(frozen=True)
class EvolutionConfig:
    population_size: int = 10
    generations: int = 40
    crossover_probability: float = 0.75
    mutation_probability: float = 0.5
    tournament_size: int = 3
    bits_per_dimension: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ConfigurationError("population_size must be at least 2")
        if self.generations < 1:
            raise ConfigurationError("generations must be at least 1")
        for name in ("crossover_probability", "mutation_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")
        if self.tournament_size < 1:
            raise ConfigurationError("tournament_size must be at least 1")
        if self.bits_per_dimension < 1:
            raise ConfigurationError("bits_per_dimension must be at least 1")


@dataclass(frozen=True)
class Candidate:
    """An offspring before evaluation: genome and decoded start state only."""

    id: int
    genome: BitGenome
    initial_state: object
    birth_generation: int


@dataclass(frozen=True)
class Individual:
    id: int
    genome: BitGenome
    initial_state: object
    trajectory: rollout.Trajectory
    fitness: FitnessComponents
    birth_generation: int


@dataclass(frozen=True)
class IndividualSnapshot:
    id: int
    birth_generation: int
    fitness: FitnessComponents
    episode_return: float
    final_length: int


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    individuals: tuple[IndividualSnapshot, ...]
    mean_joint: float
    min_joint: float
    max_joint: float
    admitted_ids: tuple[int, ...]


@dataclass(frozen=True)
class RunResult:
    env_spec: EnvSpec
    config: EvolutionConfig
    population: tuple[Individual, ...]
    history: tuple[GenerationStats, ...]


Observer = Callable[[int, list[Individual], DemonstrationSet], None]


def init_population(
    config: EvolutionConfig,
    env_spec: EnvSpec,
    encoding_spec: EncodingSpec,
    policy: Policy,
    rng: np.random.Generator,
) -> tuple[list[Individual], DemonstrationSet]:
    """Sample the seed population, then evaluate it in creation order.

    Start states come from rejection sampling over random genomes; an
    environment whose valid starts are too sparse to hit within
    ``MAX_SAMPLING_ATTEMPTS`` draws is a configuration error.
    """
    candidates: list[Candidate] = []
    for index in range(config.population_size):
        for _ in range(MAX_SAMPLING_ATTEMPTS):
            genome = random_genome(rng, encoding_spec)
            state = initial_state_from_vector(env_spec, decode(genome, encoding_spec))
            if validate_initial(env_spec, state) is None:
                break
        else:
            raise ConfigurationError(
                f"no valid start state found in {MAX_SAMPLING_ATTEMPTS} attempts"
            )
        candidates.append(Candidate(index, genome, state, birth_generation=0))
    demos = DemonstrationSet()
    return _evaluate(candidates, demos, env_spec, policy, ()), demos


def make_offspring(
    population: list[Individual],
    config: EvolutionConfig,
    encoding_spec: EncodingSpec,
    env_spec: EnvSpec,
    rng: np.random.Generator,
    generation: int,
    first_id: int,
) -> list[Candidate]:
    """Create this generation's unevaluated offspring, children before mutants.

    The RNG is consumed in a fixed order (two tournaments plus a cut per
    child, then a parent index plus a bit index per mutant), which keeps runs
    reproducible; validity filtering afterwards consumes no randomness.
    """
    genomes: list[BitGenome] = []
    for _ in range(math.ceil(config.population_size * config.crossover_probability)):
        parent_a = _tournament_pick(population, config, rng)
        parent_b = _tournament_pick(population, config, rng)
        genomes.append(crossover(parent_a.genome, parent_b.genome, rng))
    for _ in range(math.ceil(config.population_size * config.mutation_probability)):
        parent = population[int(rng.integers(len(population)))]
        genomes.append(mutate(parent.genome, rng))

    candidates: list[Candidate] = []
    next_id = first_id
    for genome in genomes:
        state = initial_state_from_vector(env_spec, decode(genome, encoding_spec))
        if validate_initial(env_spec, state) is not None:
            continue
        candidates.append(Candidate(next_id, genome, state, generation))
        next_id += 1
    return candidates


def evaluate_offspring(
    candidates: list[Candidate],
    demos: DemonstrationSet,
    env_spec: EnvSpec,
    policy: Policy,
    population: Sequence[Individual],
) -> list[Individual]:
    """Evaluate offspring strictly in creation order; the set grows in between.

    An offspring whose start equals that of an individual of ``population``,
    or of an offspring evaluated before it, takes over that rollout.
    """
    return _evaluate(candidates, demos, env_spec, policy, population)


def migrate(
    population: list[Individual],
    offspring: list[Individual],
    population_size: int,
    demos: DemonstrationSet,
) -> list[Individual]:
    """Keep the best ``population_size`` by stored score, dropping the rest.

    Ties prefer older individuals.  Trajectories of dropped individuals leave
    the demonstration set so it stays the exact image of the population.
    """
    merged = _sorted_population(list(population) + list(offspring))
    kept, dropped = merged[:population_size], merged[population_size:]
    for individual in dropped:
        demos.discard(individual.trajectory)
    return kept


def run(
    env_spec: EnvSpec,
    policy: Policy,
    config: EvolutionConfig,
    observer: Observer | None = None,
) -> RunResult:
    """Full evolutionary search; deterministic given the config seed."""
    return _run(env_spec, policy, config, config.generations, observer)


def baseline(
    env_spec: EnvSpec,
    policy: Policy,
    config: EvolutionConfig,
    observer: Observer | None = None,
) -> RunResult:
    """Evaluate only the seeded initial population (random-search comparison).

    Shares its sampling path with ``run``: the same seed yields the same
    initial population in both.
    """
    return _run(env_spec, policy, config, 0, observer)


def _run(
    env_spec: EnvSpec,
    policy: Policy,
    config: EvolutionConfig,
    generations: int,
    observer: Observer | None,
) -> RunResult:
    rng = np.random.default_rng(config.seed)
    encoding_spec = default_encoding_spec(env_spec, config.bits_per_dimension)
    population, demos = init_population(config, env_spec, encoding_spec, policy, rng)
    population = _sorted_population(population)
    history = [_generation_stats(0, population, tuple(sorted(i.id for i in population)))]
    if observer is not None:
        observer(0, population, demos)

    next_id = config.population_size
    for generation in range(1, generations + 1):
        candidates = make_offspring(
            population, config, encoding_spec, env_spec, rng, generation, next_id
        )
        next_id += len(candidates)
        offspring = evaluate_offspring(candidates, demos, env_spec, policy, population)
        previous_ids = {individual.id for individual in population}
        population = migrate(population, offspring, config.population_size, demos)
        admitted = tuple(sorted(i.id for i in population if i.id not in previous_ids))
        history.append(_generation_stats(generation, population, admitted))
        if observer is not None:
            observer(generation, population, demos)

    return RunResult(
        env_spec=env_spec,
        config=config,
        population=tuple(population),
        history=tuple(history),
    )


def _evaluate(
    candidates: Sequence[Candidate],
    demos: DemonstrationSet,
    env_spec: EnvSpec,
    policy: Policy,
    population: Sequence[Individual],
) -> list[Individual]:
    # rollouts are pure and set-independent, so every start that no live
    # individual holds is rolled out up front in one batch; only the scoring
    # depends on (and extends) the demonstration set, in creation order
    live = {individual.initial_state: individual for individual in population}
    fresh_starts = list(dict.fromkeys(
        candidate.initial_state for candidate in candidates if candidate.initial_state not in live
    ))
    fresh = dict(zip(fresh_starts, rollout.generate_many(env_spec, policy, fresh_starts)))
    individuals = []
    for candidate in candidates:
        twin = live.get(candidate.initial_state)
        if twin is None:
            trajectory = fresh[candidate.initial_state]
        else:
            # a distinct object sharing the twin's tuples: the set discards and
            # excludes members by identity
            trajectory = dataclasses.replace(twin.trajectory)
        components = joint_fitness(trajectory, demos, env_spec)
        demos.add(trajectory, components.local_diversity, components.certainty)
        individual = Individual(
            id=candidate.id,
            genome=candidate.genome,
            initial_state=candidate.initial_state,
            trajectory=trajectory,
            fitness=components,
            birth_generation=candidate.birth_generation,
        )
        live.setdefault(candidate.initial_state, individual)
        individuals.append(individual)
    return individuals


def _tournament_pick(
    population: list[Individual], config: EvolutionConfig, rng: np.random.Generator
) -> Individual:
    contenders = [
        population[int(rng.integers(len(population)))] for _ in range(config.tournament_size)
    ]
    return max(contenders, key=lambda ind: (ind.fitness.joint, -ind.id))


def _sorted_population(individuals: list[Individual]) -> list[Individual]:
    return sorted(individuals, key=lambda ind: (-ind.fitness.joint, ind.id))


def _generation_stats(
    generation: int, population: list[Individual], admitted: tuple[int, ...]
) -> GenerationStats:
    joints = [individual.fitness.joint for individual in population]
    snapshots = tuple(
        IndividualSnapshot(
            id=individual.id,
            birth_generation=individual.birth_generation,
            fitness=individual.fitness,
            episode_return=individual.trajectory.episode_return,
            final_length=individual.trajectory.final_length,
        )
        for individual in population
    )
    return GenerationStats(
        generation=generation,
        individuals=snapshots,
        mean_joint=sum(joints) / len(joints),
        min_joint=min(joints),
        max_joint=max(joints),
        admitted_ids=admitted,
    )
