"""Test-side constructors and accessors the library does not ship.

Each is a thin composition of public library names, kept here because only
tests need it.  The tuple-of-bits variation operators and
``reference_offspring`` are the per-candidate offspring path that
``evolution.make_offspring`` replaces with one batch pass; tests hold the
batch pass equal to it.  The reference path builds its own candidates, the
``(id, genome value, start key)`` triples ``make_offspring`` returns.
``reference_evaluate`` scores them one at a time, each with its own rollout
and distance pass and its own ``add``, into an ``Individual`` per candidate,
and leaves it to ``migrate`` to drop every one that cannot survive; the
search makes individuals only of offspring that can.  ``random_genome`` and
``reference_initial_candidates`` are the one-genome-at-a-time sampler that
``evolution.init_population`` replaces with one draw per round.
"""

from __future__ import annotations

import math

import numpy as np

from evodemo.encoding import BitGenome, EncodingSpec, decode
from evodemo.environments import N_ACTIONS, GridSpec, GridState, ReachState
from evodemo.errors import ConfigurationError
from evodemo.evolution import Individual
from evodemo.fitness import (
    DemonstrationSet,
    joint_fitness,
    local_diversity,
    trajectory_certainty,
)
from evodemo.policy import TabularPolicy
from evodemo.report import BoxplotStats
from evodemo.rollout import Trajectory


def constant_policy(spec: GridSpec, action: int) -> TabularPolicy:
    """A tabular policy for ``spec`` that takes ``action`` in every cell."""
    q = np.zeros((spec.height, spec.width, N_ACTIONS))
    q[:, :, action] = 1.0
    return TabularPolicy(q)


def demo_set(trajectories, env_spec) -> DemonstrationSet:
    """A demonstration set holding ``trajectories``, each with its derived profile."""
    demos = DemonstrationSet()
    for trajectory in trajectories:
        d_l = local_diversity(trajectory, env_spec)
        demos.add(trajectory, d_l, trajectory_certainty(trajectory))
    return demos


def genome_from_string(text: str) -> BitGenome:
    """Inverse of ``BitGenome.as_string``."""
    return BitGenome(int(text, 2), len(text))


def genome_bits(genome: BitGenome) -> tuple[int, ...]:
    """The genome's bits, most significant first."""
    return tuple(int(c) for c in genome.as_string())


def mutate(bits: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
    """Flip exactly one uniformly chosen bit."""
    index = int(rng.integers(len(bits)))
    flipped = list(bits)
    flipped[index] = 1 - flipped[index]
    return tuple(flipped)


def crossover(bits_a, bits_b, rng: np.random.Generator) -> tuple[int, ...]:
    """Single-point crossover producing one child; the cut is interior."""
    cut = int(rng.integers(1, len(bits_a)))
    return bits_a[:cut] + bits_b[cut:]


def tournament_pick(population, tournament_size: int, rng: np.random.Generator):
    """The best of ``tournament_size`` uniformly drawn contenders, ties toward the older."""
    contenders = [population[int(rng.integers(len(population)))] for _ in range(tournament_size)]
    return max(contenders, key=lambda ind: (ind.fitness.joint, -ind.id))


def random_genome(rng: np.random.Generator, spec: EncodingSpec) -> BitGenome:
    """Uniform random genome of the encoding's full bit length: one draw of its bits."""
    bits = rng.integers(0, 2, size=spec.genome_length)
    return BitGenome(int("".join(map(str, bits.tolist())), 2), spec.genome_length)


def reference_initial_candidates(size, encoding_spec, env_spec, rng, attempts=10_000):
    """The seed population's ``(id, genome value, start key)`` triples, one
    genome, one decode and one ``validate_initial`` call at a time."""
    candidates = []
    for index in range(size):
        for _ in range(attempts):
            genome = random_genome(rng, encoding_spec)
            state = state_from_vector(env_spec, decode(genome, encoding_spec))
            if env_spec.validate_initial(state) is None:
                break
        else:
            raise ConfigurationError(f"no valid start found in {attempts} attempts")
        candidates.append((index, genome.value, state.key))
    return candidates


def state_from_vector(env_spec, values):
    """The start state a decoded vector stands for, valid or not."""
    if isinstance(env_spec, GridSpec):
        return GridState(int(values[0]), int(values[1]))
    return ReachState(tuple(values[:env_spec.dims]), tuple(values[env_spec.dims:]))


def reference_offspring(population, config, encoding_spec, env_spec, rng, first_id):
    """``make_offspring`` one scalar draw, one genome, one decode and one
    ``validate_initial`` call at a time."""
    genomes = []
    for _ in range(math.ceil(config.population_size * config.crossover_probability)):
        parent_a = tournament_pick(population, config.tournament_size, rng)
        parent_b = tournament_pick(population, config.tournament_size, rng)
        genomes.append(crossover(genome_bits(parent_a.genome), genome_bits(parent_b.genome), rng))
    for _ in range(math.ceil(config.population_size * config.mutation_probability)):
        parent = population[int(rng.integers(len(population)))]
        genomes.append(mutate(genome_bits(parent.genome), rng))
    candidates = []
    for bits in genomes:
        genome = genome_from_string("".join(map(str, bits)))
        state = state_from_vector(env_spec, decode(genome, encoding_spec))
        if env_spec.validate_initial(state) is None:
            candidates.append((first_id + len(candidates), genome.value, state.key))
    return candidates


def reference_evaluate(candidates, generation, genome_length, demos, env_spec, policy, population):
    """``evaluate_offspring`` one candidate at a time, every candidate an
    ``Individual``: a rollout of its own start, a ``joint_fitness`` call that
    works out its nearest distance alone, and an ``add``."""
    individuals = []
    for the_id, value, key in candidates:
        (trajectory,) = env_spec.rollouts(policy, [key])
        components = joint_fitness(trajectory, demos, env_spec)
        demos.add(trajectory, components.local_diversity, components.certainty)
        individuals.append(Individual(the_id, BitGenome(value, genome_length),
                                      state_from_vector(env_spec, key), trajectory, components,
                                      generation))
    return individuals


def trajectory_from_dict(data: dict) -> Trajectory:
    """Inverse of ``rollout.trajectory_to_dict``."""
    return Trajectory(
        states=tuple(tuple(s) for s in data["states"]),
        actions=tuple(tuple(a) if isinstance(a, list) else a for a in data["actions"]),
        rewards=tuple(float(r) for r in data["rewards"]),
        certainties=tuple(float(c) for c in data["certainties"]),
        raw_length=int(data["raw_length"]),
        episode_return=float(data["episode_return"]),
        outcome=str(data["outcome"]),
    )


def iqr(stats: BoxplotStats) -> float:
    return stats.q3 - stats.q1
