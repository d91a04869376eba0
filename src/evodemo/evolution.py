"""Population loop evolving disturbed start states into diverse demonstrations.

The demonstration set and the population move in lock-step: an evaluated
offspring appends its trajectory to the set before the next one is scored
(unless it is a twin that cannot survive, see below), so scores depend on
evaluation order by design.  A stored score is never
recomputed; selection and survival always compare the score an individual
earned at its own evaluation time.  Trajectories that do not survive leave
the set again, keeping set and population identical.

Per generation, ``ceil(n * crossover_probability)`` children come from
tournament-selected parent pairs and ``ceil(n * mutation_probability)``
single-bit mutants come from uniformly chosen parents (parents stay in the
population).  One ``rng.integers`` call draws, per child, the contenders of
its two tournaments and then its cut, and per mutant its parent and then its
bit; a tournament's winner is its contender with the best stored score.
Offspring whose genome decodes to an invalid start state are dropped without
replacement.  Survivor selection keeps the top ``n`` by stored score.  Both
resolve score ties toward older individuals.

Offspring stay plain values, ``(id, genome value, start key)``, until they
are scored, and only those that can survive become ``Individual``s and get
a start state.  Every member is older than every offspring, and ties go to
the older, so from generation 1 on an offspring whose stored joint is at
most the population's weakest stored joint ``T`` is dropped by ``migrate``
whatever else the generation holds, and appears in no result, history
entry, observer call or bundle.  It is still scored once, in creation order.

Rollouts are pure functions of the start, so a candidate whose start key a
live individual holds (the population, or an offspring already evaluated
this generation) is a twin: it takes over that individual's rollout
instead of running its own, and its nearest distance is 0 with no distance
work, so from generation 1 on it scores 0, at most ``T``, and never joins
the set, where the individual it copies holds the same positions and the
same (D_l, C) pair until the batch ends.  The distinct starts no live
individual holds are rolled out together, in one ``env_spec.rollouts`` call
per batch, and their distances come from one ``nearest_distances`` read,
given the spec's ``rollout_table`` for the policy: a grid remembers each
cell's rollout and each scored pair's distance for as long as the policy
lives; the reach task has no table.

Without a table, most offspring are worked out only far enough to show that
they cannot survive.  Given ``T`` as its floor, the read bounds each fresh
rollout's joint from above: its distance to the member with the nearest
first and last positions, which is at least its nearest distance, and its
profile distance to the members alone, which the offspring scored before it
can only lower.  A rollout whose bound is at most ``T`` skips the exact pass
and is scored at its bound distance, so its score is at most ``T`` too.
Until its batch is scored it stays in the set, as columns for later rows
and as a profile, as it would at its exact score.

Work is done once: an individual's ``IndividualSnapshot`` for the history
on first use, a run's draw bounds, and a rollout's local diversity and mean
certainty, which the bound and the score share (``Trajectory.distinct_points``,
``Trajectory.mean_certainty``).  The search never reads a trajectory's
per-step records (see ``environments``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .encoding import BitGenome, EncodingSpec, decode_values
from .environments import EnvSpec, Trajectory
from .errors import ConfigurationError, ContractViolationError, is_finite_number, is_int
from .fitness import DemonstrationSet, FitnessComponents, joint_fitness
from .policy import Policy

MAX_SAMPLING_ATTEMPTS = 10_000
# an initial sampling round draws at most this many bits, an 8 MB int64 matrix
_ROUND_BITS = 1 << 20
# a generation draws at most ``population_size * (2 * tournament_size + 3)``
# numbers, whose bounds are kept for the run: at both caps, two 16 MB arrays
MAX_POPULATION_SIZE = 10_000
MAX_TOURNAMENT_SIZE = 100
# a genome is drawn one number per bit, and decoding in float64 resolves
# about 53 bits per dimension, so no wider setting yields other starts
MAX_BITS_PER_DIMENSION = 64
_COUNT_RANGES = {  # each integer setting's inclusive range
    "population_size": (2, MAX_POPULATION_SIZE),
    "generations": (1, math.inf),
    "tournament_size": (1, MAX_TOURNAMENT_SIZE),
    "bits_per_dimension": (1, MAX_BITS_PER_DIMENSION),
}


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
        for name, (low, high) in _COUNT_RANGES.items():
            value = getattr(self, name)
            if not is_int(value):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            if not low <= value <= high:
                limit = f"at least {low}" if value < low else f"at most {high}"
                raise ConfigurationError(f"{name} must be {limit}, got {value!r}")
        for name in ("crossover_probability", "mutation_probability"):
            value = getattr(self, name)
            if not (is_finite_number(value) and 0.0 <= value <= 1.0):
                raise ConfigurationError(f"{name} must be a number in [0, 1], got {value!r}")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class Individual:
    id: int
    genome: BitGenome
    initial_state: object
    trajectory: Trajectory
    fitness: FitnessComponents
    birth_generation: int

    @functools.cached_property
    def snapshot(self) -> IndividualSnapshot:
        """Its record in each generation it lives through, made once."""
        return IndividualSnapshot(id=self.id, fitness=self.fitness)


@dataclass(frozen=True)
class IndividualSnapshot:
    id: int
    fitness: FitnessComponents


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    individuals: tuple[IndividualSnapshot, ...]
    mean_joint: float
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

    Starts come from rejection sampling over uniform random genomes, kept in
    draw order.  A round draws the bits of the ``k`` genomes still missing,
    or of as many as ``_ROUND_BITS`` holds, in one
    ``rng.integers(0, 2, size=(k, L))`` call, the stream of ``k`` one-genome
    draws, packed most significant bit first; ``MAX_SAMPLING_ATTEMPTS``
    consecutive invalid draws are a configuration error.
    """
    length = encoding_spec.genome_length
    candidates, misses = [], 0
    while len(candidates) < config.population_size:
        rows = min(config.population_size - len(candidates), _ROUND_BITS // length)
        bits = rng.integers(0, 2, size=(rows, length))
        values = [int.from_bytes(row, "big") >> (-length % 8)  # the pad bits are the last
                  for row in np.packbits(bits, axis=1).tolist()]
        keys = env_spec.starts_from_vectors(decode_values(values, encoding_spec))
        for value, key in zip(values, keys):
            misses = 0 if key is not None else misses + 1
            if misses == MAX_SAMPLING_ATTEMPTS:
                raise ConfigurationError(f"no valid start found in {MAX_SAMPLING_ATTEMPTS} attempts")
            if key is not None:
                candidates.append((len(candidates), value, key))
    demos = DemonstrationSet()
    return evaluate_offspring(candidates, 0, length, demos, env_spec, policy, ()), demos


def make_offspring(
    population: Sequence[Individual],
    config: EvolutionConfig,
    encoding_spec: EncodingSpec,
    env_spec: EnvSpec,
    rng: np.random.Generator,
    first_id: int,
) -> list[tuple[int, int, tuple]]:
    """Create this generation's unevaluated offspring, children before mutants,
    as ``(id, genome value, start key)``; ids count from ``first_id``.

    One ``rng.integers`` call (none when no offspring are due) draws, per child,
    ``tournament_size`` indices into ``population`` for each of two tournaments
    and then a cut in ``[1, L)``; per mutant, a parent index and then a bit in
    ``[0, L)``, counted from the most significant.  A tournament's winner is the
    contender first in ``_rank`` order, whatever order ``population`` is in.
    All offspring are decoded and checked in one pass, which draws nothing;
    an invalid start is dropped and takes no id.
    """
    children = math.ceil(config.population_size * config.crossover_probability)
    mutants = math.ceil(config.population_size * config.mutation_probability)
    n, t, length = len(population), config.tournament_size, encoding_spec.genome_length
    if children and length < 2:
        raise ContractViolationError("crossover needs genomes of length at least 2")
    if not children + mutants:
        return []
    draws = rng.integers(*_draw_bounds(n, t, length, children, mutants))

    # each individual's place in _rank order, so a tournament is a minimum of ints
    ranked = sorted(range(n), key=lambda k: _rank(population[k]))
    place = np.empty(n, dtype=np.intp)
    place[ranked] = np.arange(n)
    genomes = [population[k].genome.value for k in ranked]
    crossings = draws[: children * (2 * t + 1)].reshape(children, 2 * t + 1)
    winners = place[crossings[:, :-1]].reshape(children, 2, t).min(axis=2).tolist()
    values = []
    for (first, second), cut in zip(winners, crossings[:, -1].tolist()):
        tail = (1 << (length - cut)) - 1  # the bits after the cut
        values.append((genomes[first] & ~tail) | (genomes[second] & tail))
    for parent, bit in draws[children * (2 * t + 1):].reshape(mutants, 2).tolist():
        values.append(population[parent].genome.value ^ (1 << (length - 1 - bit)))

    keys = env_spec.starts_from_vectors(decode_values(values, encoding_spec))
    kept = [(value, key) for value, key in zip(values, keys) if key is not None]
    return [(first_id + k, value, key) for k, (value, key) in enumerate(kept)]


@functools.lru_cache(maxsize=1)  # a run draws with the same bounds every generation
def _draw_bounds(n: int, t: int, length: int, children: int, mutants: int) -> tuple:
    """The ``rng.integers`` bounds of one generation's draw, read-only: callers share them."""
    bounds = (np.array(([0] * (2 * t) + [1]) * children + [0, 0] * mutants),
              np.array(([n] * (2 * t) + [length]) * children + [n, length] * mutants))
    for array in bounds:
        array.flags.writeable = False
    return bounds


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
    merged = sorted(list(population) + list(offspring), key=_rank)
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
    encoding_spec = env_spec.encoding_spec(config.bits_per_dimension)
    population, demos = init_population(config, env_spec, encoding_spec, policy, rng)
    population = sorted(population, key=_rank)
    history = [_generation_stats(0, population)]
    if observer is not None:
        observer(0, population, demos)

    next_id = config.population_size
    length = encoding_spec.genome_length
    for generation in range(1, generations + 1):
        candidates = make_offspring(population, config, encoding_spec, env_spec, rng, next_id)
        next_id += len(candidates)
        offspring = evaluate_offspring(
            candidates, generation, length, demos, env_spec, policy, population
        )
        population = migrate(population, offspring, config.population_size, demos)
        history.append(_generation_stats(generation, population))
        if observer is not None:
            observer(generation, population, demos)

    return RunResult(env_spec, config, tuple(population), tuple(history))


def evaluate_offspring(
    candidates: Sequence[tuple[int, int, tuple]],
    generation: int,
    genome_length: int,
    demos: DemonstrationSet,
    env_spec: EnvSpec,
    policy: Policy,
    population: Sequence[Individual],
) -> list[Individual]:
    """Score ``(id, genome value, start key)`` offspring born in ``generation``
    in creation order, each with one ``joint_fitness`` call, and return as
    individuals those that can survive.

    A twin (an offspring whose start key an individual of ``population`` or
    an earlier offspring holds) takes over that rollout at distance 0.
    Without a rollout table, a fresh offspring whose joint bound is at most
    ``T``, the weakest stored joint of ``population``, is scored at its bound
    distance.  An offspring whose stored joint is at most ``T`` becomes no
    individual (``migrate`` against a full ``population`` would drop it): if
    fresh, it is in ``demos`` until all are scored; a twin never is.
    Precondition: every trajectory of ``population`` is a member of ``demos``.
    """
    # rollouts are pure and set-independent, so every start that no live
    # individual holds is rolled out up front in one batch; only the scoring
    # depends on (and extends) the demonstration set, in creation order
    held = {individual.initial_state.key: individual.trajectory for individual in population}
    fresh_keys = list(dict.fromkeys(key for _, _, key in candidates if key not in held))
    fresh = dict(zip(fresh_keys, env_spec.rollouts(policy, fresh_keys)))
    floor = min((individual.fitness.joint for individual in population), default=-math.inf)
    # the set each fresh rollout is scored against is known before any is
    # scored, so one read does their distance work; given the floor, it gives a
    # rollout whose bound shows it cannot survive its bound distance (see the
    # module docstring).  A twin scored in between adds only positions the set
    # holds already, which moves no minimum
    table = env_spec.rollout_table(policy)
    distances = iter(demos.nearest_distances(list(fresh.values()), table, env_spec, floor))
    individuals, dropped = [], []
    for the_id, value, key in candidates:
        twin = held.get(key)
        if twin is None:
            trajectory = held[key] = fresh[key]
            distance = next(distances)
        else:
            # a distinct object sharing the twin's tuples: the set discards and
            # excludes members by identity
            trajectory, distance = twin.copy(), 0.0
        components = joint_fitness(trajectory, demos, env_spec, distance)
        if twin is not None and components.joint <= floor:
            continue  # its twin stands for it in the set (module docstring)
        demos.add(trajectory, components.local_diversity, components.certainty)
        if components.joint <= floor:
            dropped.append(trajectory)
        else:
            individuals.append(Individual(the_id, BitGenome(value, genome_length),
                                          env_spec.start_state(key), trajectory, components,
                                          generation))
    for trajectory in dropped:
        demos.discard(trajectory)
    return individuals


def _rank(individual: Individual) -> tuple[float, int]:
    return (-individual.fitness.joint, individual.id)  # best stored score first, then oldest


def _generation_stats(generation: int, population: list[Individual]) -> GenerationStats:
    """The record of ``population`` after ``generation``, whose offspring it admitted."""
    joints = [individual.fitness.joint for individual in population]
    return GenerationStats(
        generation=generation,
        individuals=tuple(individual.snapshot for individual in population),
        mean_joint=sum(joints) / len(joints),
        max_joint=max(joints),
        admitted_ids=tuple(sorted(i.id for i in population if i.birth_generation == generation)),
    )
