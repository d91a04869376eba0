"""Run statistics and file exports.

Box plots use linear-interpolation quartiles with plain min/max whiskers, so
the most extreme demonstrations stay visible instead of being clipped as
outliers.  A result exports into a flat bundle directory:

* ``returns.csv`` / ``lengths.csv``: final population, one row per individual
* ``boxplots.json``: box-plot statistics of those two columns
* ``histogram.csv``: state-visit counts as a height x width matrix (grids
  only; continuous runs ship raw paths in ``trajectories.json`` instead)
* ``trajectories.json``: full final demonstrations with genomes and scores
* ``generations.csv``: every individual's score components per generation
* ``config.json`` / ``manifest.json``: reproduction metadata

Exports are deterministic: re-running the same seed rewrites every file
byte-identically.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .environments import GridSpec, ReachSpec
from .errors import ConfigurationError, ContractViolationError
from .evolution import RunResult
from .rollout import Trajectory, trajectory_to_dict
from .fitness import FitnessComponents

BUNDLE_FORMAT = "evodemo-bundle"
BUNDLE_VERSION = 1

GENERATION_COLUMNS = (
    "id",
    "generation",
    "local_diversity",
    "certainty",
    "global_diversity",
    "local_distance",
    "joint_fitness",
)


@dataclass(frozen=True)
class BoxplotStats:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    count: int

    def as_dict(self) -> dict:
        return {
            "minimum": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "maximum": self.maximum,
            "count": self.count,
        }

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def boxplot_stats(values: Iterable[float]) -> BoxplotStats:
    """Five-number summary with linear-interpolation quartiles."""
    data = [float(v) for v in values]
    if not data:
        raise ContractViolationError("cannot summarize an empty value sequence")
    q1, median, q3 = np.percentile(data, [25.0, 50.0, 75.0])
    return BoxplotStats(min(data), float(q1), float(median), float(q3), max(data), len(data))


def visit_histogram(trajectories: Iterable[Trajectory], grid_spec: GridSpec) -> np.ndarray:
    """Per-cell visit counts over the collapsed states of all demonstrations."""
    if not isinstance(grid_spec, GridSpec):
        raise ContractViolationError("state-visit histograms are defined for grid runs only")
    counts = np.zeros((grid_spec.height, grid_spec.width), dtype=int)
    for trajectory in trajectories:
        for row, col in trajectory.states:
            counts[int(round(row)), int(round(col))] += 1
    return counts


def fitness_decomposition(result: RunResult) -> tuple[list[dict], list[dict]]:
    """Per-individual and per-generation component tables.

    The population table lists the final individuals sorted by descending
    joint score; the generation table carries the population mean of every
    component per generation.
    """
    population_rows = [
        {
            "id": ind.id,
            "birth_generation": ind.birth_generation,
            "local_diversity": ind.fitness.local_diversity,
            "certainty": ind.fitness.certainty,
            "global_diversity": ind.fitness.global_diversity,
            "local_distance": ind.fitness.local_distance,
            "joint_fitness": ind.fitness.joint,
            "episode_return": ind.trajectory.episode_return,
            "final_length": ind.trajectory.final_length,
        }
        for ind in result.population
    ]
    generation_rows = []
    for stats in result.history:
        members = [snap.fitness for snap in stats.individuals]
        generation_rows.append(
            {
                "generation": stats.generation,
                "mean_local_diversity": _mean(c.local_diversity for c in members),
                "mean_certainty": _mean(c.certainty for c in members),
                "mean_global_diversity": _mean(c.global_diversity for c in members),
                "mean_local_distance": _mean(c.local_distance for c in members),
                "mean_joint_fitness": stats.mean_joint,
                "admitted": len(stats.admitted_ids),
            }
        )
    return population_rows, generation_rows


def export_bundle(
    result: RunResult,
    out_dir: str | Path,
    config_snapshot: dict | None = None,
    mode: str = "evolve",
) -> list[Path]:
    """Write a full result bundle; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    returns_rows = [[ind.id, ind.trajectory.episode_return] for ind in result.population]
    written.append(_write_csv(out / "returns.csv", ("id", "episode_return"), returns_rows))

    lengths_rows = [[ind.id, ind.trajectory.final_length] for ind in result.population]
    written.append(_write_csv(out / "lengths.csv", ("id", "final_length"), lengths_rows))

    boxplots = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "returns": boxplot_stats(r for _, r in returns_rows).as_dict(),
        "lengths": boxplot_stats(l for _, l in lengths_rows).as_dict(),
    }
    written.append(_write_json(out / "boxplots.json", boxplots))

    if isinstance(result.env_spec, GridSpec):
        histogram = visit_histogram(
            (ind.trajectory for ind in result.population), result.env_spec
        )
        written.append(_write_histogram(out / "histogram.csv", histogram))

    trajectories = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "individuals": [
            {
                "id": ind.id,
                "birth_generation": ind.birth_generation,
                "genome": ind.genome.as_string(),
                "initial_state": _state_to_dict(result.env_spec, ind.initial_state),
                "fitness": _components_to_dict(ind.fitness),
                "trajectory": trajectory_to_dict(ind.trajectory),
            }
            for ind in result.population
        ],
    }
    written.append(_write_json(out / "trajectories.json", trajectories))

    generation_rows = []
    for stats in result.history:
        for snap in stats.individuals:
            generation_rows.append(
                [
                    snap.id,
                    stats.generation,
                    snap.fitness.local_diversity,
                    snap.fitness.certainty,
                    snap.fitness.global_diversity,
                    snap.fitness.local_distance,
                    snap.fitness.joint,
                ]
            )
    written.append(_write_csv(out / "generations.csv", GENERATION_COLUMNS, generation_rows))

    snapshot = dict(config_snapshot) if config_snapshot else {}
    snapshot.setdefault("evolution", _config_to_dict(result.config))
    written.append(_write_json(out / "config.json", snapshot))

    manifest = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "mode": mode,
        "seed": result.config.seed,
        "files": sorted(p.name for p in written),
    }
    written.append(_write_json(out / "manifest.json", manifest))
    return written


@dataclass
class BundleData:
    path: Path
    config: dict
    manifest: dict
    returns: list[float]
    lengths: list[int]
    histogram: np.ndarray | None
    generations: list[dict]
    individuals: list[dict]


BUNDLE_FILES = ("manifest.json", "config.json", "returns.csv", "lengths.csv",
                "generations.csv", "trajectories.json")


def load_bundle(path: str | Path) -> BundleData:
    """Read a bundle back; anything missing or malformed is a ConfigurationError naming the file."""
    path = Path(path)
    for name in BUNDLE_FILES:
        if not (path / name).is_file():
            raise ConfigurationError(f"{path} is not a result bundle: missing {name}")
    manifest = _read_bundle_json(path / "manifest.json")
    if (manifest.get("format"), manifest.get("version")) != (BUNDLE_FORMAT, BUNDLE_VERSION):
        raise ConfigurationError(
            f"{path / 'manifest.json'}: expected format {BUNDLE_FORMAT!r} version "
            f"{BUNDLE_VERSION}, found {manifest.get('format')!r} version {manifest.get('version')!r}"
        )
    config = _read_bundle_json(path / "config.json")
    trajectories = _read_bundle_json(path / "trajectories.json")
    with _malformed(path / "returns.csv"):
        returns = [float(row["episode_return"]) for row in _read_csv(path / "returns.csv")]
    with _malformed(path / "lengths.csv"):
        lengths = [int(row["final_length"]) for row in _read_csv(path / "lengths.csv")]
    histogram = None
    if (path / "histogram.csv").is_file():
        with _malformed(path / "histogram.csv"):
            histogram = _read_histogram(path / "histogram.csv")
    with _malformed(path / "generations.csv"):
        generations = [
            {key: (int(row[key]) if key in ("id", "generation") else float(row[key])) for key in row}
            for row in _read_csv(path / "generations.csv")
        ]
    with _malformed(path / "trajectories.json"):
        individuals = trajectories["individuals"]
    return BundleData(path, config, manifest, returns, lengths, histogram, generations, individuals)


def _read_bundle_json(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{path}: top level must be a JSON object")
    return payload


@contextmanager
def _malformed(path: Path):
    """Turn a missing column or an unparsable cell of ``path`` into a ConfigurationError."""
    try:
        yield
    except (IndexError, KeyError, ValueError) as exc:
        raise ConfigurationError(f"{path}: malformed bundle file ({exc!r})") from exc


def write_comparison_report(
    search_dirs: Sequence[str | Path],
    baseline_dirs: Sequence[str | Path],
    out_dir: str | Path,
) -> list[Path]:
    """Aggregate bundles into side-by-side statistics.

    Multi-seed groups pool their individuals for the box plots and sum their
    visit histograms.  Mixing bundles from different environments is refused.
    """
    search = [load_bundle(d) for d in search_dirs]
    base = [load_bundle(d) for d in baseline_dirs]
    if not search and not base:
        raise ConfigurationError("report needs at least one bundle")
    environments = {b.config.get("environment") for b in search + base}
    if len(environments) > 1:
        raise ConfigurationError(
            f"refusing to mix bundles from different environments: {sorted(map(str, environments))}"
        )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

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
            "returns": boxplot_stats(returns).as_dict(),
            "lengths": boxplot_stats(lengths).as_dict(),
        }
        histograms = [b.histogram for b in bundles if b.histogram is not None]
        if histograms:
            written.append(_write_histogram(out / f"histogram_{name}.csv", sum(histograms)))
    written.append(_write_json(out / "report.json", payload))

    if search:
        population_rows = []
        for bundle in search:
            for ind in bundle.individuals:
                population_rows.append(
                    [
                        bundle.path.name,
                        ind["id"],
                        ind["fitness"]["local_diversity"],
                        ind["fitness"]["certainty"],
                        ind["fitness"]["global_diversity"],
                        ind["fitness"]["local_distance"],
                        ind["fitness"]["joint"],
                        ind["trajectory"]["episode_return"],
                        len(ind["trajectory"]["states"]),
                    ]
                )
        population_rows.sort(key=lambda row: -row[6])
        written.append(
            _write_csv(
                out / "population_analysis.csv",
                (
                    "bundle",
                    "id",
                    "local_diversity",
                    "certainty",
                    "global_diversity",
                    "local_distance",
                    "joint_fitness",
                    "episode_return",
                    "final_length",
                ),
                population_rows,
            )
        )

        by_generation: dict[int, list[dict]] = {}
        for bundle in search:
            for row in bundle.generations:
                by_generation.setdefault(int(row["generation"]), []).append(row)
        generation_rows = [
            [
                generation,
                _mean(r["local_diversity"] for r in rows),
                _mean(r["certainty"] for r in rows),
                _mean(r["global_diversity"] for r in rows),
                _mean(r["local_distance"] for r in rows),
                _mean(r["joint_fitness"] for r in rows),
            ]
            for generation, rows in sorted(by_generation.items())
        ]
        written.append(
            _write_csv(
                out / "generation_analysis.csv",
                (
                    "generation",
                    "mean_local_diversity",
                    "mean_certainty",
                    "mean_global_diversity",
                    "mean_local_distance",
                    "mean_joint_fitness",
                ),
                generation_rows,
            )
        )
    return written


def _mean(values: Iterable[float]) -> float:
    data = list(values)
    return sum(data) / len(data)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        raise ContractViolationError("boolean CSV cells are not supported")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    lines = [",".join(header)]
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _read_csv(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _write_histogram(path: Path, histogram: np.ndarray) -> Path:
    header = tuple(f"col_{c}" for c in range(histogram.shape[1]))
    return _write_csv(path, header, histogram.tolist())


def _read_histogram(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    return np.array([[int(cell) for cell in line.split(",")] for line in lines[1:]], dtype=int)


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _components_to_dict(components: FitnessComponents) -> dict:
    return {
        "local_diversity": components.local_diversity,
        "certainty": components.certainty,
        "global_diversity": components.global_diversity,
        "local_distance": components.local_distance,
        "joint": components.joint,
    }


def _state_to_dict(env_spec, state) -> dict:
    if isinstance(env_spec, GridSpec):
        return {"row": state.row, "col": state.col}
    if isinstance(env_spec, ReachSpec):
        return {"effector": list(state.effector), "target": list(state.target)}
    raise ContractViolationError(f"unknown environment spec {type(env_spec).__name__}")


def _config_to_dict(config) -> dict:
    return {
        "population_size": config.population_size,
        "generations": config.generations,
        "crossover_probability": config.crossover_probability,
        "mutation_probability": config.mutation_probability,
        "tournament_size": config.tournament_size,
        "bits_per_dimension": config.bits_per_dimension,
        "seed": config.seed,
    }
