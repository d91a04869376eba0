"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line through the terminal summary hook in
conftest.py and fails loudly if its claim does not hold.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import bruteforce as bf
from conftest import ACCEPTANCE_RESULTS
from helpers import demo_set, iqr
from evodemo.encoding import EncodingSpec, occurrence_stats, state_value_distance
from evodemo.environments import parse_layout
from evodemo.fitness import joint_fitness
from evodemo.evolution import EvolutionConfig, run
from evodemo.report import boxplot_stats, export_bundle, visit_histogram
from evodemo.rollout import OUTCOME_REACHED, Trajectory, generate


def check(name, ok, detail):
    ACCEPTANCE_RESULTS.append((name, bool(ok), detail))
    assert ok, f"{name}: {detail}"


def make_traj(states, certainties, raw_length):
    return Trajectory(
        states=tuple(tuple(float(x) for x in s) for s in states),
        actions=(0,) * raw_length,
        rewards=(-1.0,) * raw_length,
        certainties=tuple(certainties),
        raw_length=raw_length,
        episode_return=-float(raw_length),
        outcome="truncated",
    )


def random_trajectory(rng, interior_high):
    raw = int(rng.integers(1, 7))
    states = [
        (float(rng.integers(1, interior_high)), float(rng.integers(1, interior_high)))
        for _ in range(raw)
    ]
    collapsed = [states[0]]
    for s in states[1:]:
        if s != collapsed[-1]:
            collapsed.append(s)
    certs = tuple(float(rng.random()) for _ in range(raw))
    return make_traj(collapsed, certs, raw)


def final_returns(result):
    return [individual.trajectory.episode_return for individual in result.population]


def final_lengths(result):
    return [individual.trajectory.final_length for individual in result.population]


def coverage(result, spec):
    histogram = visit_histogram(
        (individual.trajectory for individual in result.population), spec
    )
    return int((histogram > 0).sum())


def test_criterion_1_encoding_exactness():
    started = time.perf_counter()
    ratios = {}
    for bits, expected in ((4, 2.0), (5, 4 / 3), (6, 8 / 7)):
        spec = EncodingSpec(dims=1, bits_per_dim=bits, bounds=((0, 8),), kind="discrete")
        stats = occurrence_stats(spec)
        counts = bf.discrete_value_counts(bits, 0, 8)
        exact = stats.probability_ratio == expected
        matches_enumeration = (
            max(counts.values()) / min(counts.values()) == stats.probability_ratio
        )
        ratios[bits] = (stats.probability_ratio, exact and matches_enumeration)
    continuous = EncodingSpec(
        dims=1, bits_per_dim=9, bounds=((-0.15, 0.15),), kind="continuous"
    )
    resolution = state_value_distance(continuous)
    elapsed = time.perf_counter() - started
    ok = all(good for _, good in ratios.values()) and resolution < 0.001 and elapsed < 1.0
    check(
        "criterion 1: encoding exactness",
        ok,
        f"ratios m=4,5,6 -> {[ratios[m][0] for m in (4, 5, 6)]} (exact), "
        f"9-bit resolution {resolution:.6f} < 0.001, {elapsed:.2f}s",
    )


def test_criterion_2_metric_oracle_equivalence():
    started = time.perf_counter()
    grid = parse_layout("#####\n#...#\n#.T.#\n#...#\n#####")
    diameter = math.hypot(4.0, 4.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        u = random_trajectory(rng, 4)
        v = random_trajectory(rng, 4)
        demos = demo_set([u, v], grid)
        for traj, other in ((u, v), (v, u)):
            got = joint_fitness(traj, demos, grid)
            expected_dl = bf.local_diversity(traj.states, 25, traj.raw_length)
            expected_c = bf.certainty(traj.certainties)
            expected_delta = bf.delta(traj.states, other.states)
            expected_dg = expected_delta / diameter
            expected_ld = bf.local_distance(
                (expected_dl, expected_c),
                [(bf.local_diversity(other.states, 25, other.raw_length), bf.certainty(other.certainties))],
            )
            worst = max(
                worst,
                abs(got.local_diversity - expected_dl),
                abs(got.certainty - expected_c),
                abs(demo_set([other], grid).nearest_distances([traj])[0] - expected_delta),
                abs(got.global_diversity - expected_dg),
                abs(got.joint - (expected_dg + expected_ld)),
            )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    check(
        "criterion 2: metric oracle equivalence",
        ok,
        f"200 randomized pairs, worst deviation {worst:.2e} <= 1e-12, {elapsed:.2f}s",
    )


def test_criterion_3_duplicate_trajectory_law(flat_spec):
    rng = np.random.default_rng(7)
    failures = 0
    for _ in range(50):
        original = random_trajectory(rng, 10)
        copy = dataclasses.replace(original)
        extras = [random_trajectory(rng, 10) for _ in range(int(rng.integers(0, 4)))]
        demos = demo_set([original, copy, *extras], flat_spec)
        components = joint_fitness(original, demos, flat_spec)
        if components.global_diversity != 0.0 or components.joint != 0.0:
            failures += 1
    check(
        "criterion 3: duplicate trajectory scores zero",
        failures == 0,
        f"50 randomized insertions, {failures} nonzero scores",
    )


def test_criterion_4_algorithm_invariants(flat_spec, well_trained_policy, flat_runs, tmp_path):
    sizes_ok = demos_ok = True
    slowest = 0.0

    def observer(generation, population, demos):
        nonlocal sizes_ok, demos_ok
        if len(population) != 10:
            sizes_ok = False
        if {id(i.trajectory) for i in population} != {id(t) for t in demos.trajectories()}:
            demos_ok = False

    monotone_ok = True
    identical_ok = True
    for seed in range(10):
        started = time.perf_counter()
        result = run(flat_spec, well_trained_policy, EvolutionConfig(seed=seed), observer)
        slowest = max(slowest, time.perf_counter() - started)
        maxima = [stats.max_joint for stats in result.history]
        if any(later < earlier for earlier, later in zip(maxima, maxima[1:])):
            monotone_ok = False
        first = export_bundle(flat_runs[seed], tmp_path / f"a{seed}")
        second = export_bundle(result, tmp_path / f"b{seed}")
        if any(x.read_bytes() != y.read_bytes() for x, y in zip(first, second)):
            identical_ok = False

    ok = sizes_ok and demos_ok and monotone_ok and identical_ok and slowest < 120.0
    check(
        "criterion 4: algorithm invariants",
        ok,
        f"10 seeds: population size {'held' if sizes_ok else 'BROKE'}, "
        f"demo set {'matched' if demos_ok else 'DIVERGED'}, "
        f"max score {'monotone' if monotone_ok else 'DECREASED'}, "
        f"reruns {'byte-identical' if identical_ok else 'DIFFERED'}, "
        f"slowest seed {slowest:.1f}s < 120s",
    )


def test_criterion_5_diversity_over_baseline(flat_spec, flat_early_runs, flat_early_baselines):
    iqr_wins = 0
    coverage_wins = 0
    for searched, random_only in zip(flat_early_runs, flat_early_baselines):
        searched_iqr = iqr(boxplot_stats(final_returns(searched)))
        if searched_iqr >= iqr(boxplot_stats(final_returns(random_only))):
            iqr_wins += 1
        if coverage(searched, flat_spec) >= coverage(random_only, flat_spec):
            coverage_wins += 1
    ok = iqr_wins >= 7 and coverage_wins >= 7
    check(
        "criterion 5: diversity over random baseline",
        ok,
        f"return IQR at least baseline's in {iqr_wins}/10 seeds, "
        f"cell coverage at least baseline's in {coverage_wins}/10 seeds (both need >= 7)",
    )


def test_criterion_6_edge_case_revelation(holey_spec, just_converged_holey_policy, holey_runs):
    canonical = generate(holey_spec, just_converged_holey_policy, holey_spec.canonical_start)
    revealing = sum(
        any(r <= -50.0 for r in final_returns(result)) for result in holey_runs
    )
    ok = canonical.outcome == OUTCOME_REACHED and revealing >= 7
    check(
        "criterion 6: edge-case revelation",
        ok,
        f"canonical start {canonical.outcome} (return {canonical.episode_return}), "
        f"a demo with return <= -50 found in {revealing}/10 seeds (needs >= 7)",
    )


def test_criterion_7_fitness_trend(flat_runs):
    per_seed_wins = 0
    curves = []
    for result in flat_runs:
        means = [stats.mean_joint for stats in result.history]
        curves.append(means)
        if np.mean(means[31:41]) > np.mean(means[1:11]):
            per_seed_wins += 1
    mean_curve = np.mean(np.array(curves), axis=0)
    early_gain = mean_curve[10] - mean_curve[1]
    late_gain = mean_curve[40] - mean_curve[31]
    ok = per_seed_wins >= 8 and late_gain < early_gain
    check(
        "criterion 7: fitness trend and convergence",
        ok,
        f"late mean above early mean in {per_seed_wins}/10 seeds (needs >= 8); "
        f"late improvement {late_gain:.5f} < early improvement {early_gain:.5f}",
    )


def test_criterion_8_continuous_pipeline(reach_spec, reach_controller, reach_pipeline, tmp_path):
    runs, baselines, elapsed = reach_pipeline
    spread_wins = 0
    for searched, random_only in zip(runs, baselines):
        searched_lengths = final_lengths(searched)
        random_lengths = final_lengths(random_only)
        if max(searched_lengths) - min(searched_lengths) >= max(random_lengths) - min(random_lengths):
            spread_wins += 1
    written = export_bundle(runs[0], tmp_path / "reach_bundle")
    paths_exported = any(p.name == "trajectories.json" for p in written)
    rerun = run(
        reach_spec,
        reach_controller,
        EvolutionConfig(population_size=30, generations=100, bits_per_dimension=9, seed=0),
    )
    deterministic = [i.genome for i in rerun.population] == [i.genome for i in runs[0].population]
    ok = elapsed < 600.0 and spread_wins >= 7 and paths_exported and deterministic
    check(
        "criterion 8: continuous pipeline",
        ok,
        f"10 seeds of search+baseline in {elapsed:.0f}s < 600s, deterministic rerun, "
        f"paths exported, length spread at least baseline's in {spread_wins}/10 seeds (needs >= 7)",
    )


def test_criterion_9_population_analysis_shape(flat_runs):
    inverted = 0
    for result in flat_runs:
        pairs = [
            (individual.fitness.global_diversity, individual.fitness.local_distance)
            for individual in result.population
        ]
        if any(
            a[0] < b[0] and a[1] > b[1] for a in pairs for b in pairs
        ):
            inverted += 1
    check(
        "criterion 9: population analysis shape",
        inverted >= 7,
        f"rank inversion between set distance and profile distance in {inverted}/10 seeds "
        f"(needs >= 7)",
    )
