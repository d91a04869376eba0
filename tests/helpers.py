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
``reference_comparison_report`` is the comparison report that loads every
bundle before it pools anything; ``report.write_comparison_report`` reads one
bundle at a time, and tests hold its files and errors equal to this one's.
"""

from __future__ import annotations

import math
from pathlib import Path

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
from evodemo.jsonfile import write_json
from evodemo.report import (
    BUNDLE_FORMAT,
    BUNDLE_VERSION,
    FITNESS_KEYS,
    SCORE_COLUMNS,
    BoxplotStats,
    _fields,
    _write_csv,
    _write_histogram,
    boxplot_stats,
    load_bundle,
)
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


def reference_comparison_report(search_dirs, baseline_dirs, out_dir) -> list[Path]:
    """``write_comparison_report`` with every bundle loaded before anything is pooled."""
    search = [load_bundle(d) for d in search_dirs]
    base = [load_bundle(d) for d in baseline_dirs]
    if not search and not base:
        raise ConfigurationError("report needs at least one bundle")
    environments = {b.config.get("environment") for b in search + base}
    if len(environments) > 1:
        raise ConfigurationError(
            f"refusing to mix bundles from different environments: {sorted(map(str, environments))}"
        )
    with_histogram = [b for b in search + base if b.histogram is not None]
    for previous, bundle in zip(with_histogram, with_histogram[1:]):
        if bundle.histogram.shape != previous.histogram.shape:
            raise ConfigurationError(
                f"{bundle.path}: its histogram.csv has shape {bundle.histogram.shape}, but "
                f"{previous.path}'s has {previous.histogram.shape}; refusing to sum them"
            )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    payload = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "environment": next(iter(environments)),
        "groups": {},
    }
    for name, bundles in (("search", search), ("baseline", base)):
        if not bundles:
            continue
        returns = [r for b in bundles for r in b.returns]
        lengths = [l for b in bundles for l in b.lengths]
        payload["groups"][name] = {
            "bundles": len(bundles),
            "individuals": len(returns),
            "returns": _fields(boxplot_stats(returns)),
            "lengths": _fields(boxplot_stats(lengths)),
        }
        histograms = [b.histogram for b in bundles if b.histogram is not None]
        if histograms:
            written.append(_write_histogram(out / f"histogram_{name}.csv", sum(histograms)))
    written.append(write_json(out / "report.json", payload))

    if search:
        population_rows = [
            [
                bundle.path.name,
                ind["id"],
                *(ind["fitness"][key] for key in FITNESS_KEYS),
                ind["trajectory"]["episode_return"],
                len(ind["trajectory"]["states"]),
            ]
            for bundle in search
            for ind in bundle.individuals
        ]
        population_rows.sort(key=lambda row: -row[6])
        written.append(_write_csv(
            out / "population_analysis.csv",
            ("bundle", "id", *SCORE_COLUMNS, "episode_return", "final_length"),
            population_rows,
        ))
        by_generation = {}
        for bundle in search:
            for row in bundle.generations:
                by_generation.setdefault(int(row["generation"]), []).append(row)
        generation_rows = []
        for generation, rows in sorted(by_generation.items()):
            means = []
            for column in SCORE_COLUMNS:
                values = [r[column] for r in rows]
                means.append(sum(values) / len(values))
            generation_rows.append([generation, *means])
        written.append(_write_csv(
            out / "generation_analysis.csv",
            ("generation", *(f"mean_{column}" for column in SCORE_COLUMNS)),
            generation_rows,
        ))
    return written
