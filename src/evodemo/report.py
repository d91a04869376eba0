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

A multi-seed run also gets one ``manifest.json`` above its bundles
(``write_run_manifest``) that lists them.

Exports are deterministic: re-running the same seed rewrites every file
byte-identically.  Every JSON file is exactly
``json.dumps(payload, indent=2, sort_keys=True) + "\n"``, produced by the
package's own writer (``jsonfile``) without ``json``'s slow indenting encoder.
Every CSV file is written in one write, each cell by one rule
(``_csv_line``); ``generations.csv`` formats the score cells of each
``FitnessComponents`` object once, however many generations repeat it.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .environments import PRESET_NAMES, EnvSpec, preset
from .errors import ConfigurationError, ContractViolationError
from .evolution import GenerationStats, RunResult
from .fitness import FitnessComponents
from .jsonfile import write_json
from .rollout import Trajectory, trajectory_to_dict

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
FITNESS_KEYS = tuple(field.name for field in fields(FitnessComponents))
SCORE_COLUMNS = GENERATION_COLUMNS[2:]  # the FITNESS_KEYS fields as bundle CSVs name them


@dataclass(frozen=True)
class BoxplotStats:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    count: int


def boxplot_stats(values: Iterable[float]) -> BoxplotStats:
    """Five-number summary with linear-interpolation quartiles."""
    data = [float(v) for v in values]
    if not data:
        raise ContractViolationError("cannot summarize an empty value sequence")
    q1, median, q3 = np.percentile(data, [25.0, 50.0, 75.0])
    return BoxplotStats(min(data), float(q1), float(median), float(q3), max(data), len(data))


def _fields(record) -> dict:
    """A dataclass's fields by name, shallow (``asdict`` deep-copies every value)."""
    return {field.name: getattr(record, field.name) for field in fields(record)}


def visit_histogram(trajectories: Iterable[Trajectory], env_spec: EnvSpec) -> np.ndarray:
    """Per-cell visit counts over the collapsed states of all demonstrations."""
    if env_spec.grid_shape is None:
        raise ContractViolationError("state-visit histograms are defined for grid runs only")
    counts = np.zeros(env_spec.grid_shape, dtype=int)
    for trajectory in trajectories:
        for row, col in trajectory.states:
            counts[int(round(row)), int(round(col))] += 1
    return counts


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
        "returns": _fields(boxplot_stats(r for _, r in returns_rows)),
        "lengths": _fields(boxplot_stats(l for _, l in lengths_rows)),
    }
    written.append(write_json(out / "boxplots.json", boxplots))

    if result.env_spec.grid_shape is not None:
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
                "initial_state": _fields(ind.initial_state),
                "fitness": _fields(ind.fitness),
                "trajectory": trajectory_to_dict(ind.trajectory),
            }
            for ind in result.population
        ],
    }
    written.append(write_json(out / "trajectories.json", trajectories))

    written.append(_write_generations(out / "generations.csv", result.history))

    snapshot = dict(config_snapshot) if config_snapshot else {}
    snapshot.setdefault("evolution", _fields(result.config))
    written.append(write_json(out / "config.json", snapshot))

    manifest = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "mode": mode,
        "seed": result.config.seed,
        "files": sorted(p.name for p in written),
    }
    written.append(write_json(out / "manifest.json", manifest))
    return written


def write_run_manifest(
    out_dir: str | Path, mode: str, environment: str, seeds: Sequence[int], bundles: Sequence[str]
) -> Path:
    """Write the index of a multi-seed run: a ``manifest.json`` next to its bundles."""
    manifest = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "mode": mode,
        "environment": environment,
        "seeds": list(seeds),
        "bundles": list(bundles),
    }
    return write_json(Path(out_dir) / "manifest.json", manifest)


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
        # a preset fixes the grid; a layout path was resolved against a config
        # the report does not have, so such bundles are only held to one
        # shape among themselves (write_comparison_report)
        environment = config.get("environment")
        if environment in PRESET_NAMES and histogram.shape != preset(environment).grid_shape:
            grid = preset(environment).grid_shape
            raise ConfigurationError(
                f"{path}: its histogram.csv has shape {histogram.shape}, but config.json names "
                f"{environment}, " + (f"whose grid is {grid[0]}x{grid[1]}" if grid else "which has no grid")
            )
    with _malformed(path / "generations.csv"):
        generations = [
            {key: (int(row[key]) if key in ("id", "generation") else float(row[key])) for key in row}
            for row in _read_csv(path / "generations.csv", GENERATION_COLUMNS)
        ]
    with _malformed(path / "trajectories.json"):
        individuals = trajectories["individuals"]
        for ind in individuals:
            _check_individual(ind)
        if not individuals:
            raise ValueError("no individuals")
    # both tables hold one row per individual of the final population
    for name, rows in (("returns.csv", returns), ("lengths.csv", lengths)):
        if len(rows) != len(individuals):
            raise ConfigurationError(
                f"{path / name}: malformed bundle file ({len(rows)} rows for the "
                f"{len(individuals)} individuals of trajectories.json)"
            )
    return BundleData(path, config, manifest, returns, lengths, histogram, generations, individuals)


def _read_bundle_json(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{path}: top level must be a JSON object")
    return payload


def _check_individual(ind: dict) -> None:
    """Raise KeyError/TypeError unless ``ind`` has every field the comparison report reads."""
    values = [ind["id"], ind["trajectory"]["episode_return"]]
    values += [ind["fitness"][key] for key in FITNESS_KEYS]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise TypeError(f"individual {ind['id']!r}: id, fitness and episode_return must be numbers")
    if not isinstance(ind["trajectory"]["states"], list):
        raise TypeError(f"individual {ind['id']!r}: trajectory states must be a list")


@contextmanager
def _malformed(path: Path):
    """Turn a missing field or an unparsable cell of ``path`` into a ConfigurationError."""
    try:
        yield
    except (IndexError, KeyError, TypeError, ValueError) as exc:
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
    with_histogram = [b for b in search + base if b.histogram is not None]
    for previous, bundle in zip(with_histogram, with_histogram[1:]):
        if bundle.histogram.shape != previous.histogram.shape:
            raise ConfigurationError(
                f"{bundle.path}: its histogram.csv has shape {bundle.histogram.shape}, but "
                f"{previous.path}'s has {previous.histogram.shape}; refusing to sum them"
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
            "returns": _fields(boxplot_stats(returns)),
            "lengths": _fields(boxplot_stats(lengths)),
        }
        histograms = [b.histogram for b in bundles if b.histogram is not None]
        if histograms:
            written.append(_write_histogram(out / f"histogram_{name}.csv", sum(histograms)))
    written.append(write_json(out / "report.json", payload))

    if search:
        population_rows = []
        for bundle in search:
            for ind in bundle.individuals:
                population_rows.append(
                    [
                        bundle.path.name,
                        ind["id"],
                        *(ind["fitness"][key] for key in FITNESS_KEYS),
                        ind["trajectory"]["episode_return"],
                        len(ind["trajectory"]["states"]),
                    ]
                )
        population_rows.sort(key=lambda row: -row[6])
        written.append(
            _write_csv(
                out / "population_analysis.csv",
                ("bundle", "id", *SCORE_COLUMNS, "episode_return", "final_length"),
                population_rows,
            )
        )

        by_generation: dict[int, list[dict]] = {}
        for bundle in search:
            for row in bundle.generations:
                by_generation.setdefault(int(row["generation"]), []).append(row)
        generation_rows = [
            [generation, *(_mean(r[column] for r in rows) for column in SCORE_COLUMNS)]
            for generation, rows in sorted(by_generation.items())
        ]
        written.append(
            _write_csv(
                out / "generation_analysis.csv",
                ("generation", *(f"mean_{column}" for column in SCORE_COLUMNS)),
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


# cell types whose repr is their CSV text, which never needs quoting
_NUMBERS = frozenset((int, float))


def _csv_line(row: Sequence) -> str:
    """The CSV text of ``row``, without its line end.

    Each cell is ``_format_cell`` of it, quoted by the csv module where it
    needs quoting, so a cell's text does not depend on the cells beside it.
    """
    if _NUMBERS.issuperset(map(type, row)):
        return ",".join(map(repr, row))
    # a bool, a numpy scalar or a string: the cell-by-cell path
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([_format_cell(cell) for cell in row])
    return line.getvalue()[:-1]


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    return path


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    return _write_lines(path, [_csv_line(header), *map(_csv_line, rows)])


def _write_generations(path: Path, history: Sequence[GenerationStats]) -> Path:
    """``generations.csv``: one row per individual per generation, as
    ``_write_csv`` writes them, with each ``FitnessComponents`` object's
    score cells formatted once.

    An individual keeps its object from generation to generation; objects are
    keyed by identity, which ``history`` holds for as long as this runs.
    """
    scores: dict[int, str] = {}
    lines = [_csv_line(GENERATION_COLUMNS)]
    for stats in history:
        for snap in stats.individuals:
            text = scores.get(id(snap.fitness))
            if text is None:
                cells = [getattr(snap.fitness, key) for key in FITNESS_KEYS]
                text = scores[id(snap.fitness)] = _csv_line(cells)
            lines.append(_csv_line((snap.id, stats.generation)) + "," + text)
    return _write_lines(path, lines)


def _read_rows(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _read_csv(path: Path, columns: Sequence[str] = ()) -> list[dict]:
    """The rows of ``path`` keyed by its header; a ValueError unless the header
    names each of ``columns`` and every row has one cell per header column."""
    header, *rows = _read_rows(path)
    for column in columns:
        if column not in header:
            raise ValueError(f"no column {column!r}")
    for number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"line {number} has {len(row)} cells for {len(header)} columns")
    return [dict(zip(header, row)) for row in rows]


def _write_histogram(path: Path, histogram: np.ndarray) -> Path:
    header = tuple(f"col_{c}" for c in range(histogram.shape[1]))
    return _write_csv(path, header, histogram.tolist())


def _read_histogram(path: Path) -> np.ndarray:
    histogram = np.array([[int(cell) for cell in row] for row in _read_rows(path)[1:]], dtype=int)
    if histogram.ndim != 2:  # a header with no rows under it
        raise ValueError(f"histogram rows do not form a table: shape {histogram.shape}")
    return histogram
