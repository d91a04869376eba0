"""Benchmark of evodemo's demonstration search, end to end and per module.

Run from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 perfbench/run.py --workload grid-flat --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload reach --seed 3 --seconds 30 --trace 1
    python3 perfbench/run.py --workload grid-holey --record

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-module
metrics of a separate traced run, and ``--record`` rewrites the reference
bundle digests in ``perfbench/reference/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``perfbench/README.md`` explains the workloads and metrics.
"""

import os

# Pin native thread pools before numpy is first imported, so the numbers
# measure the program and not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

ROUND_SEEDS = 10  # search seeds per round: evolve + baseline each, then one report
# a timed run makes at least this many rounds, even past --seconds on a slow
# host, so that at least 10 seeds lie beyond the tail percentile
MIN_ROUNDS = 4
TAIL_PERCENTILE = 75
# a run takes its search seeds from 0..SEED_POOL-1 in an order drawn from the
# workload seed, wrapping around; its first MIN_ROUNDS rounds time each of
# them once, so runs of different workload seeds time the same seeds (their
# costs differ by up to 2x on grid-holey)
SEED_POOL = MIN_ROUNDS * ROUND_SEEDS
# set-up is sampled in fresh processes until this much set-up time is measured
SETUP_BUDGET_S = 4.0
SETUP_SAMPLES = (5, 15)  # fewest and most samples
# the speed probe's reading on an uncontended host (x86_64, Python 3.11,
# numpy 2.4); timings are scaled to the host speed at which the probe reads this
PROBE_REF_S = 180e-6
PROBE_INTERVAL_S = 0.025  # the host speed is read this often while work runs
# per-layer fractions of deterministic counts; like counts they must repeat exactly
EXACT_FRACTIONS = ("rollout.distinct_start_frac", "evolution.invalid_frac",
                   "evolution.admitted_frac", "failure_demos_frac")


@dataclass(frozen=True)
class Workload:
    config: str
    generations: int | None  # overrides the config's generation count


WORKLOADS = {
    "grid-flat": Workload("configs/flatgrid11.yaml", None),
    "grid-holey": Workload("configs/holeygrid11.yaml", None),
    # 10 generations keep 30-40 seeds in a 30 s run; the paper default is 1000.
    "reach": Workload("configs/pointreach.yaml", 10),
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, config or reference)."""


@dataclass
class Context:
    evodemo: object
    spec: object
    policy: object
    config: object  # EvolutionConfig with seed 0
    snapshot: dict
    setup_s: float
    train_s: float
    train_steps: int


# ---------------------------------------------------------------------------
# set-up: import, environment, policy


def require_sources(workload: Workload) -> None:
    for path in (SRC / "evodemo" / "__init__.py", ROOT / workload.config):
        if not path.is_file():
            raise BenchError(f"missing {path}; run from the root of an evodemo checkout")


def setup(workload: Workload) -> Context:
    """Import the package from ``src/`` and build the fixed policy, timed."""
    start = time.perf_counter()
    require_sources(workload)
    config_path = ROOT / workload.config
    sys.path.insert(0, str(SRC))
    import yaml

    import evodemo

    if Path(evodemo.__file__).resolve().parent != SRC / "evodemo":
        raise BenchError(f"imported evodemo from {evodemo.__file__}, not from {SRC}")
    config = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    spec = evodemo.preset(config["environment"])
    policy, policy_snapshot, train_s, train_steps = _policy(evodemo, spec, config["policy"])
    evolution = dict(config.get("evolution") or {})
    if workload.generations is not None:
        evolution["generations"] = workload.generations
    bits = config["encoding"]["bits_per_dimension"]
    evo_config = evodemo.EvolutionConfig(**evolution, bits_per_dimension=bits, seed=0)
    snapshot = {
        "environment": config["environment"],
        "policy": policy_snapshot,
        "evolution": {
            key: getattr(evo_config, key)
            for key in ("population_size", "generations", "crossover_probability",
                        "mutation_probability", "tournament_size")
        },
        "encoding": {"bits_per_dimension": bits},
    }
    return Context(evodemo, spec, policy, evo_config, snapshot,
                   time.perf_counter() - start, train_s, train_steps)


def _policy(evodemo, spec, section: dict):
    (kind, params), = section.items()
    if kind == "gaussian_controller":
        kwargs = {"step_size": spec.step_size, **params}
        return evodemo.GaussianControllerPolicy(**kwargs), {kind: kwargs}, 0.0, 0
    if kind != "train":
        raise BenchError(f"unsupported policy kind {kind!r}")
    params = dict(params)
    steps = params.pop("steps")
    select = params.pop("select", "final")
    checkpoints = tuple(params.pop("checkpoints", ()))
    start = time.perf_counter()
    trained = evodemo.train_q_learning(spec, steps, checkpoint_steps=checkpoints, **params)
    train_s = time.perf_counter() - start
    if select == "final":
        policy, selected = trained.policy, steps
    else:  # earliest_success: first checkpoint whose greedy canonical rollout succeeds
        for selected in sorted(trained.checkpoints):
            policy = trained.checkpoints[selected]
            canonical = evodemo.generate(spec, policy, spec.canonical_start)
            if canonical.outcome == evodemo.rollout.OUTCOME_REACHED:
                break
        else:
            raise BenchError("no checkpoint reaches the target from the canonical start")
    snapshot = {"train": {**section[kind], "selected_step": selected}}
    return policy, snapshot, train_s, steps


def setup_samples(workload_name: str) -> list[tuple[float, float]]:
    """Set-up times of fresh processes, each importing and training anew.

    Each sample is (measured seconds, speed scale from the probes taken during it).
    """
    fewest, most = SETUP_SAMPLES
    samples: list[tuple[float, float]] = []
    while len(samples) < fewest or (sum(s for s, _ in samples) < SETUP_BUDGET_S
                                    and len(samples) < most):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((sample["setup_s"], sample["scale"]))
    return samples


def setup_probe(workload: Workload) -> dict:
    """One set-up in this fresh process, reading the host speed as it runs."""
    start = time.perf_counter()
    meter = SpeedMeter()  # imports numpy, which set-up imports anyway
    numpy_s = time.perf_counter() - start
    meter.probe()
    signal.signal(signal.SIGALRM, meter.probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        spent = meter.spent
        ctx = setup(workload)
        spent = meter.spent - spent
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
    meter.probe()
    return {"setup_s": numpy_s + ctx.setup_s - spent, "scale": meter.scale(0)}


# ---------------------------------------------------------------------------
# host speed


class SpeedMeter:
    """Reads the host's speed while work runs, to scale the work's timings.

    Other processes on a shared machine slow this one down by up to 2x, in
    states that last from a second to whole runs.  The program slows about in
    step with a fixed probe made of its own kinds of work, so a time measured
    while the probe read ``p`` on average is scaled by ``PROBE_REF_S / p``:
    it becomes the time the same work takes on an uncontended host.  The
    probes' own time is excluded from every timing taken with ``clock``.
    """

    def __init__(self):
        import numpy

        self._numpy = numpy
        self._others = [numpy.array([(float(i % 7), float(i * j % 5)) for j in range(12)])
                        for i in range(4)]
        self._arrays = [numpy.linspace(i, i + 1.0, 16) for i in range(2000)]
        self._picks = random.Random(0).sample(range(len(self._arrays)), 50)
        self.readings: list[float] = []
        self.spent = 0.0
        self._last = 0.0  # perf_counter when the last reading ended

    def _kernel(self) -> float:
        # an interpreted loop over ints and a dict, a walk of float tuples,
        # small-array distances to a few point sets, then numpy calls on
        # small arrays spread over half a megabyte: the mix of a rollout and
        # its scoring, written without evodemo so that a change to the
        # program cannot move it
        total, table = 0, {}
        for i in range(200):
            total += i * i
            table[i & 63] = total
        x = y = 0.0
        walk = [(x, y)]
        for i in range(16):
            x, y = (x + i % 3 - 1.0) % 9.0, (y + i % 2) % 9.0
            walk.append((x, y))
        points = self._numpy.asarray(walk, dtype=float)
        best = float("inf")
        for other in self._others:
            diff = points[:, None, :] - other[None, :, :]
            dist = self._numpy.sqrt((diff * diff).sum(axis=2))
            best = min(best, float(dist.min(axis=1).sum() + dist.min(axis=0).sum()))
        for i in self._picks:
            best += float(self._numpy.sqrt(self._arrays[i]).sum())
        return best

    def probe(self, *_signal) -> None:
        """Take one reading, the median of three kernel times; usable as a signal handler."""
        began = time.perf_counter()
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.readings.append(statistics.median(times))
        self._last = time.perf_counter()
        self.spent += self._last - began

    def observe(self, *_observed) -> None:
        """``evolution`` observer: take a reading if the last is PROBE_INTERVAL_S old."""
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.probe()

    def clock(self) -> float:
        """``perf_counter`` without the time spent in probes."""
        return time.perf_counter() - self.spent

    def scale(self, first: int) -> float:
        """Scale for the work done since reading ``first``, up to the last reading."""
        return PROBE_REF_S / statistics.fmean(self.readings[first:])


# ---------------------------------------------------------------------------
# one round: evolve + baseline per seed, then one comparison report


@dataclass
class SeedResult:
    seed: int
    # measured times, probes excluded; scale them by ``scale`` (see SpeedMeter)
    seed_s: float = 0.0  # run + export_bundle
    search_s: float = 0.0  # run + baseline
    pipeline_s: float = 0.0  # run + baseline + both exports
    scale: float = 1.0
    joint_mean: float = 0.0
    demos: int = 0
    failure_demos: int = 0
    error: str | None = None  # the seed raised; it has no timings
    mismatch: str | None = None  # the seed ran, but a bundle differs from the reference

    @property
    def failed(self) -> bool:
        return self.error is not None or self.mismatch is not None


@dataclass
class Round:
    seeds: list[SeedResult]
    wall_s: float  # speed probes excluded
    report_s: float
    report_scale: float
    report_error: str | None
    report_bytes: int


def run_round(ctx: Context, seeds: list[int], directory: Path, tracer=None,
              observer_factory=None, meter: SpeedMeter | None = None) -> Round:
    """One round; with a ``meter``, it probes the host speed and has no other observer."""
    evolution, report = ctx.evodemo.evolution, ctx.evodemo.report
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    search_dirs, baseline_dirs, results, written = [], [], [], []
    if meter is not None:
        clock = meter.clock
        observer_factory = lambda: meter.observe  # noqa: E731
        meter.probe()
    else:
        clock = time.perf_counter

    start = clock()
    for seed in seeds:
        result = SeedResult(seed)
        results.append(result)
        first = len(meter.readings) - 1 if meter is not None else 0
        config = replace(ctx.config, seed=seed)
        if tracer is not None:
            tracer.request = seed
        try:
            t0 = clock()
            with span("search.run"):
                evolved = evolution.run(ctx.spec, ctx.policy, config,
                                        observer_factory() if observer_factory else None)
            t1 = clock()
            with span("report.export_bundle"):
                written += report.export_bundle(evolved, directory / "search" / f"seed_{seed}",
                                                _snapshot(ctx, seed, "evolve"), mode="evolve")
            t2 = clock()
            with span("search.baseline"):
                base = evolution.baseline(ctx.spec, ctx.policy, config,
                                          observer_factory() if observer_factory else None)
            t3 = clock()
            with span("report.export_bundle"):
                written += report.export_bundle(base, directory / "baseline" / f"seed_{seed}",
                                                _snapshot(ctx, seed, "baseline"), mode="baseline")
        except Exception:  # a failing seed is counted, and the loop goes on
            result.error = traceback.format_exc()
            continue
        finally:
            t4 = clock()
            if meter is not None:
                meter.probe()
                result.scale = meter.scale(first)
        search_dirs.append(directory / "search" / f"seed_{seed}")
        baseline_dirs.append(directory / "baseline" / f"seed_{seed}")
        result.seed_s = t2 - t0
        result.search_s = (t1 - t0) + (t3 - t2)
        result.pipeline_s = t4 - t0
        joints = [ind.fitness.joint for ind in evolved.population]
        result.joint_mean = sum(joints) / len(joints)
        result.demos = len(evolved.population)
        result.failure_demos = sum(not _reached(ctx, ind.trajectory) for ind in evolved.population)
    if tracer is not None:
        tracer.request = -1
    report_error = None
    first = len(meter.readings) - 1 if meter is not None else 0
    t5 = clock()
    try:
        with span("report.write_comparison_report"):
            written += report.write_comparison_report(search_dirs, baseline_dirs,
                                                      directory / "report")
    except Exception:
        report_error = traceback.format_exc()
    end = clock()
    report_scale = 1.0
    if meter is not None:
        meter.probe()
        report_scale = meter.scale(first)
    return Round(results, end - start, end - t5, report_scale, report_error,
                 sum(p.stat().st_size for p in written))


def _snapshot(ctx: Context, seed: int, mode: str) -> dict:
    # only the seed itself, never the round's seed list or an absolute path,
    # so a bundle's bytes depend on (workload, seed, mode) alone
    return {**ctx.snapshot, "seed": seed, "seeds": [seed], "mode": mode, "output": "perfbench"}


def _reached(ctx: Context, trajectory) -> bool:
    """Grid demos must end on the target; reach demos must end within the goal radius."""
    if isinstance(ctx.spec, ctx.evodemo.GridSpec):
        return trajectory.outcome == ctx.evodemo.rollout.OUTCOME_REACHED
    return trajectory.rewards[-1] == 0.0


# ---------------------------------------------------------------------------
# correctness, outside the timed region


def bundle_digests(bundle: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(bundle.iterdir()) if p.is_file()}


def check_round(ctx: Context, rnd: Round, directory: Path, reference: dict) -> list[str]:
    """Mark seeds whose bundles differ from the reference; return round-level problems."""
    for result in rnd.seeds:
        if result.error is not None:
            continue
        expected = reference["seeds"][str(result.seed)]
        for mode, sub in (("evolve", "search"), ("baseline", "baseline")):
            actual = bundle_digests(directory / sub / f"seed_{result.seed}")
            if actual != expected[mode]["files"]:
                differing = sorted(name for name in set(actual) | set(expected[mode]["files"])
                                   if actual.get(name) != expected[mode]["files"].get(name))
                result.mismatch = f"{mode} bundle differs: {differing}"
                break
    problems = []
    if rnd.report_error is not None:
        problems.append(rnd.report_error)
    else:
        payload = json.loads((directory / "report" / "report.json").read_text(encoding="utf-8"))
        ok = sum(r.error is None for r in rnd.seeds)  # seeds whose bundles were written
        size = ctx.config.population_size
        for group in ("search", "baseline"):
            stats = payload["groups"].get(group, {})
            if stats.get("bundles") != ok or stats.get("individuals") != ok * size:
                problems.append(f"report group {group!r} does not pool {ok} bundles: {stats}")
        if not (directory / "report" / "population_analysis.csv").is_file():
            problems.append("report has no population_analysis.csv")
    for result in rnd.seeds:
        if result.failed:
            print(f"[perfbench] seed {result.seed} failed: {result.error or result.mismatch}",
                  file=sys.stderr)
    return problems


def make_observer_factory(problems: list[str], tracer):
    """Observers checking the invariants: set = image of population, max never drops."""

    def factory():
        best = [float("-inf")]

        def observer(generation, population, demos):
            with tracer.span("bench.observer"):
                members = sorted(map(id, demos.trajectories()))
                if members != sorted(id(ind.trajectory) for ind in population):
                    problems.append(f"seed {tracer.request} generation {generation}: "
                                    "demonstration set is not the image of the population")
                top = max(ind.fitness.joint for ind in population)
                if top < best[0]:
                    problems.append(f"seed {tracer.request} generation {generation}: "
                                    f"stored maximum fell from {best[0]} to {top}")
                best[0] = top

        return observer

    return factory


# ---------------------------------------------------------------------------
# timed (end-to-end) and traced (per-module) runs


def seed_order(workload_seed: int) -> list[int]:
    return random.Random(workload_seed).sample(range(SEED_POOL), SEED_POOL)


def _next_seeds(order: list[int], start: int) -> list[int]:
    return [order[(start + i) % len(order)] for i in range(ROUND_SEEDS)]


def timed_run(ctx, order, seconds, reference, directory):
    rounds, problems, elapsed = [], [], 0.0
    meter = SpeedMeter()
    # one seed first, so first-call costs stay out of the timings
    warmup = run_round(ctx, order[:1], directory)
    problems += check_round(ctx, warmup, directory, reference)
    shutil.rmtree(directory)
    while (len(rounds) < MIN_ROUNDS
           or elapsed + statistics.median(r.wall_s for r in rounds) <= seconds):
        seeds = _next_seeds(order, len(rounds) * ROUND_SEEDS)
        rnd = run_round(ctx, seeds, directory, meter=meter)
        elapsed += rnd.wall_s
        problems += check_round(ctx, rnd, directory, reference)
        shutil.rmtree(directory)
        rounds.append(rnd)
    ok = [s for r in rounds for s in r.seeds if s.error is None]
    if not ok:
        raise BenchError("every seed raised; nothing to time")
    evals = {s.seed: sum(reference["seeds"][str(s.seed)][m]["evals"] for m in ("evolve", "baseline"))
             for s in ok}
    latencies = [s.seed_s * s.scale for s in ok]
    # the workload's wall time is composed from seeds and reports at their
    # medians, so that one disturbed seed moves it no more than any other
    wall_s = (ROUND_SEEDS * statistics.median(s.pipeline_s * s.scale for s in ok)
              + statistics.median(r.report_s * r.report_scale for r in rounds))
    metrics = {
        "setup_s": (None, "s"),
        "wall_s": (wall_s, "s"),
        "seed_s.p50": (statistics.median(latencies), "s"),
        "seed_s.tail": (_percentile(latencies, TAIL_PERCENTILE), "s"),
        "evals_per_s": (statistics.median(evals[s.seed] / (s.search_s * s.scale) for s in ok),
                        "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "final_joint.mean": (statistics.fmean(s.joint_mean for s in ok), "1"),
    }
    scales = [s.scale for s in ok]
    notes = {
        "measured_seed_s.p50": statistics.median(s.seed_s for s in ok),
        "measured_round_wall_s": statistics.median(r.wall_s for r in rounds),
        "speed_scale": f"median {statistics.median(scales):.3f}, "
                       f"range {min(scales):.3f}-{max(scales):.3f}",
        "tail": f"p{TAIL_PERCENTILE} of {len(latencies)} seeds, "
                f"{sum(x > metrics['seed_s.tail'][0] for x in latencies)} beyond it",
        "failed_frac": _failed_frac([warmup] + rounds),
    }
    return [warmup] + rounds, problems, metrics, notes


def traced_run(ctx, order, seconds, reference, directory, spans_path):
    """Alternate one untraced and two traced rounds over the same seeds."""
    from tracing import Tracer

    seeds = _next_seeds(order, 0)
    tracer = Tracer()
    tracer.calibrate()
    problems: list[str] = []
    untraced, traced, summaries, elapsed = [], [], [], 0.0
    # one seed first, so first-call costs land on neither side of the comparison
    warmup = run_round(ctx, seeds[:1], directory)
    problems += check_round(ctx, warmup, directory, reference)
    shutil.rmtree(directory)
    while not traced or elapsed + 3 * statistics.median(r.wall_s for r in traced) <= seconds:
        for pass_index in range(3):
            if pass_index == 0:
                rnd = run_round(ctx, seeds, directory)
                untraced.append(rnd)
            else:
                tracer.install(ctx.evodemo)
                try:
                    rnd = run_round(ctx, seeds, directory, tracer,
                                    make_observer_factory(problems, tracer))
                finally:
                    tracer.uninstall()
                traced.append(rnd)
                summaries.append(tracer.take(keep_spans=len(traced) == 1))
            elapsed += rnd.wall_s
            problems += check_round(ctx, rnd, directory, reference)
            shutil.rmtree(directory)
    layers = [_layer_metrics(ctx, s, r) for s, r in zip(summaries, traced)]
    for name, (value, unit) in layers[0].items():
        exact = unit == "count" or name in EXACT_FRACTIONS
        if exact and any(layer[name][0] != value for layer in layers[1:]):
            problems.append(f"count {name} does not repeat: {[layer[name][0] for layer in layers]}")
    expected_evals = sum(reference["seeds"][str(s)][m]["evals"]
                         for s in seeds for m in ("evolve", "baseline"))
    if layers[0]["fitness.joint.calls"][0] != expected_evals:
        problems.append(f"{layers[0]['fitness.joint.calls'][0]} evaluations, "
                        f"reference has {expected_evals}")
    metrics = {name: (statistics.median(layer[name][0] for layer in layers), unit)
               for name, (value, unit) in layers[0].items()}
    rounds = [warmup] + untraced + traced
    metrics["failed_frac"] = (_failed_frac(rounds), "fraction")
    metrics["policy.train.steps_per_s"] = (
        ctx.train_steps / ctx.train_s if ctx.train_steps else 0.0, "1/s")
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                   - statistics.median(r.wall_s for r in untraced), "s")
    untraced_search_s = statistics.median(sum(s.search_s for s in r.seeds) for r in untraced)
    metrics["trace.accounted_frac"] = (metrics["search.s"][0] / untraced_search_s, "fraction")
    tracer.save(spans_path)
    notes = {"traced_rounds": len(traced), "untraced_rounds": len(untraced),
             "span_cost_us": round(1e6 * (tracer.inside_s + tracer.outside_s), 3),
             "unwrapped_names": tracer.missing, "breakdown": _breakdown(summaries[0])}
    return rounds, problems, metrics, notes


def _layer_metrics(ctx, summary: dict, rnd: Round) -> dict:
    """Per-module metrics of one traced round, as (value, unit)."""
    self_s, total_s, calls = summary["self_s"], summary["total_s"], summary["calls"]
    counts = summary["counts"]

    def self_of(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    search_s = total_s.get("search.run", 0.0) + total_s.get("search.baseline", 0.0)
    proposed = calls.get("encoding.crossover", 0) + calls.get("encoding.mutate", 0)
    valid = counts.get("evolution.offspring_valid", 0)
    rollouts = calls.get("rollout.generate", 0)
    demos = sum(s.demos for s in rnd.seeds)
    return {
        "search.s": (search_s, "s"),
        "fitness.joint.self_s": (self_of("fitness.joint_fitness"), "s"),
        "fitness.joint.share": (total_s.get("fitness.joint_fitness", 0.0) / search_s, "fraction"),
        "fitness.joint.calls": (calls.get("fitness.joint_fitness", 0), "count"),
        "fitness.pairs": (counts.get("fitness.pairs", 0), "count"),
        "fitness.dist_elems": (counts.get("fitness.dist_elems", 0), "count"),
        "fitness.demoset.s": (self_of("fitness.demoset.add", "fitness.demoset.discard"), "s"),
        "rollout.self_s": (self_of("rollout.generate"), "s"),
        "rollout.share": (total_s.get("rollout.generate", 0.0) / search_s, "fraction"),
        "rollout.calls": (rollouts, "count"),
        "rollout.steps": (counts.get("rollout.steps", 0), "count"),
        "rollout.distinct_start_frac": (summary["distinct_starts"] / rollouts if rollouts else 0.0,
                                        "fraction"),
        "environments.step.s": (self_of("environments.step"), "s"),
        "environments.step.calls": (calls.get("environments.step", 0), "count"),
        "policy.act.calls": (calls.get("policy.act", 0), "count"),
        "policy.certainty.calls": (calls.get("policy.certainty", 0), "count"),
        "policy.s": (self_of("policy.act", "policy.certainty"), "s"),
        "evolution.self_s": (self_of("search.run", "search.baseline", "evolution.init_population",
                                     "evolution.make_offspring", "evolution.evaluate_offspring",
                                     "evolution.migrate"), "s"),
        "evolution.offspring.s": (total_s.get("evolution.make_offspring", 0.0), "s"),
        "evolution.migrate.s": (total_s.get("evolution.migrate", 0.0), "s"),
        "evolution.invalid_frac": ((proposed - valid) / proposed if proposed else 0.0, "fraction"),
        "evolution.admitted_frac": (counts.get("evolution.admitted", 0) / valid if valid else 0.0,
                                    "fraction"),
        "encoding.s": (self_of("encoding.decode", "encoding.crossover", "encoding.mutate",
                               "encoding.random_genome"), "s"),
        "report.export.s": (total_s.get("report.export_bundle", 0.0), "s"),
        "report.bytes": (rnd.report_bytes, "count"),
        "report.compare.s": (total_s.get("report.write_comparison_report", 0.0), "s"),
        "failure_demos_frac": (sum(s.failure_demos for s in rnd.seeds) / demos if demos else 0.0,
                               "fraction"),
    }


def _breakdown(summary: dict) -> dict:
    """Self time of every span name inside the search calls, as a share of them."""
    total = summary["total_s"].get("search.run", 0.0) + summary["total_s"].get("search.baseline", 0.0)
    outside = ("report.export_bundle", "report.write_comparison_report")
    return {name: round(value / total, 4) for name, value in
            sorted(summary["self_s"].items(), key=lambda item: -item[1])
            if name not in outside and value > 0}


def _failed_frac(rounds) -> float:
    seeds = [s for r in rounds for s in r.seeds]
    return sum(s.failed for s in seeds) / len(seeds)


def _percentile(values: list[float], percentile: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[percentile - 1]


# ---------------------------------------------------------------------------
# reference digests


def record(workload_name: str) -> None:
    """Rewrite the reference digests and evaluation counts of every pooled seed."""
    from tracing import Tracer

    workload = WORKLOADS[workload_name]
    ctx = setup(workload)
    directory = OUT / f"{workload_name}-record"
    tracer = Tracer()
    problems: list[str] = []
    seeds = {}
    for seed in range(SEED_POOL):
        entry = {}
        for mode, call in (("evolve", ctx.evodemo.evolution.run),
                           ("baseline", ctx.evodemo.evolution.baseline)):
            tracer.install(ctx.evodemo)
            try:
                result = call(ctx.spec, ctx.policy, replace(ctx.config, seed=seed),
                              make_observer_factory(problems, tracer)())
            finally:
                tracer.uninstall()
            evals = tracer.take(keep_spans=False)["calls"].get("fitness.joint_fitness", 0)
            bundle = directory / mode / f"seed_{seed}"
            ctx.evodemo.report.export_bundle(result, bundle, _snapshot(ctx, seed, mode), mode=mode)
            entry[mode] = {"evals": evals, "files": bundle_digests(bundle)}
        seeds[str(seed)] = entry
    shutil.rmtree(directory)
    if problems:
        raise BenchError("invariants broken while recording: " + "; ".join(problems[:5]))
    REFERENCE.mkdir(exist_ok=True)
    payload = {"workload": workload_name, "snapshot": ctx.snapshot, "seeds": seeds}
    path = REFERENCE / f"{workload_name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"[perfbench] wrote {path}")


# ---------------------------------------------------------------------------


def environment_info(ctx: Context) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "evodemo": ctx.evodemo.__version__,
        "commit": _git_commit(),
        "machine": platform.machine(),
        "threads_pinned": os.environ["OMP_NUM_THREADS"],
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text(encoding="utf-8").strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference digests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(workload)))
            return 0
        if args.record:
            record(args.workload)
            return 0
        return measure(args, workload)
    except (BenchError, OSError, KeyError, ValueError, subprocess.SubprocessError) as exc:
        print(f"[perfbench] cannot run: {exc!r}", file=sys.stderr)
        return 2


def measure(args, workload: Workload) -> int:
    require_sources(workload)
    reference_path = REFERENCE / f"{args.workload}.json"
    if not reference_path.is_file():
        raise BenchError(f"missing reference digests {reference_path}")
    reference = json.loads(reference_path.read_text(encoding="utf-8"))
    samples = [] if args.trace else setup_samples(args.workload)
    ctx = setup(workload)
    if reference["snapshot"] != ctx.snapshot:
        raise BenchError(f"reference was recorded for {reference['snapshot']}, "
                         f"not {ctx.snapshot}")
    OUT.mkdir(exist_ok=True)
    directory = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if directory.exists():
        shutil.rmtree(directory)
    order = seed_order(args.seed)
    if args.trace:
        rounds, problems, metrics, notes = traced_run(ctx, order, args.seconds, reference,
                                                      directory, OUT / f"{args.workload}-spans.npz")
    else:
        rounds, problems, metrics, notes = timed_run(ctx, order, args.seconds, reference,
                                                     directory)
        metrics["setup_s"] = (statistics.median(s * scale for s, scale in samples), "s")
        notes["setup_samples"] = len(samples)
        notes["measured_setup_s"] = statistics.median(s for s, _ in samples)
    for problem in problems[:10]:
        print(f"[perfbench] check failed: {problem}", file=sys.stderr)
    if len(problems) > 10:
        print(f"[perfbench] ... {len(problems) - 10} more failed checks", file=sys.stderr)
    seeds = [s for r in rounds for s in r.seeds]
    failed = sum(s.failed for s in seeds)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(seeds),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    workload_info = {"name": args.workload, "seed": args.seed, "trace": args.trace,
                     "seconds": args.seconds, **ctx.snapshot["evolution"], **notes}
    record_path = directory.with_suffix(".json")
    record_path.write_text(json.dumps({
        "environment": environment_info(ctx),
        "workload": workload_info,
        "result": result,
        "rounds": [{"wall_s": r.wall_s, "report_error": r.report_error,
                    "report_s": r.report_s, "report_scale": r.report_scale,
                    "seeds": [vars(s) for s in r.seeds]} for r in rounds],
        "problems": problems,
    }, indent=1) + "\n", encoding="utf-8")
    print("# environment " + json.dumps(environment_info(ctx), sort_keys=True))
    print("# workload " + json.dumps(workload_info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name:28s} {value:>16.6g} {unit}")
    print(f"# details in {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
