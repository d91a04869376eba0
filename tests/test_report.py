import json

import numpy as np
import pytest

from evodemo.errors import ConfigurationError, ContractViolationError
from evodemo.evolution import EvolutionConfig, baseline, run
from evodemo.report import (
    GENERATION_COLUMNS,
    boxplot_stats,
    export_bundle,
    fitness_decomposition,
    load_bundle,
    visit_histogram,
    write_comparison_report,
)
from evodemo.rollout import trajectory_from_dict


@pytest.fixture(scope="module")
def flat_result(flat_spec, well_trained_policy):
    return run(flat_spec, well_trained_policy, EvolutionConfig(generations=5, seed=0))


@pytest.fixture(scope="module")
def reach_result(reach_spec, reach_controller):
    config = EvolutionConfig(
        population_size=6, generations=3, bits_per_dimension=9, seed=0
    )
    return run(reach_spec, reach_controller, config)


# ---------------------------------------------------------------------------
# statistics


def test_boxplot_quartiles_interpolate_linearly():
    stats = boxplot_stats([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (stats.minimum, stats.q1, stats.median, stats.q3, stats.maximum) == (
        1.0,
        2.0,
        3.0,
        4.0,
        5.0,
    )
    stats = boxplot_stats([1.0, 2.0, 3.0, 4.0])
    assert stats.q1 == 1.75
    assert stats.median == 2.5
    assert stats.q3 == 3.25
    assert stats.iqr == 1.5
    assert stats.count == 4


def test_boxplot_requires_values():
    with pytest.raises(ContractViolationError):
        boxplot_stats([])


def test_visit_histogram_counts_cells(flat_spec, well_trained_policy):
    from evodemo.environments import GridState
    from evodemo.rollout import generate

    trajectory = generate(flat_spec, well_trained_policy, GridState(1, 1))
    histogram = visit_histogram([trajectory, trajectory], flat_spec)
    assert histogram.shape == (11, 11)
    assert histogram[1, 1] == 2  # both copies start there
    assert histogram.sum() == 2 * len(trajectory.states)
    assert histogram[0, 0] == 0


def test_visit_histogram_rejects_continuous_spaces(reach_spec, reach_result):
    with pytest.raises(ContractViolationError):
        visit_histogram([reach_result.population[0].trajectory], reach_spec)


def test_fitness_decomposition_tables(flat_result):
    population_rows, generation_rows = fitness_decomposition(flat_result)
    assert len(population_rows) == 10
    joints = [row["joint_fitness"] for row in population_rows]
    assert joints == sorted(joints, reverse=True)
    assert len(generation_rows) == 6
    assert generation_rows[0]["admitted"] == 10
    assert set(generation_rows[0]) == {
        "generation",
        "mean_local_diversity",
        "mean_certainty",
        "mean_global_diversity",
        "mean_local_distance",
        "mean_joint_fitness",
        "admitted",
    }


# ---------------------------------------------------------------------------
# bundle export


def test_grid_bundle_contains_every_artifact(tmp_path, flat_result):
    out = tmp_path / "bundle"
    written = export_bundle(flat_result, out)
    names = sorted(p.name for p in written)
    assert names == [
        "boxplots.json",
        "config.json",
        "generations.csv",
        "histogram.csv",
        "lengths.csv",
        "manifest.json",
        "returns.csv",
        "trajectories.json",
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "evolve"
    assert manifest["seed"] == 0
    assert manifest["files"] == [n for n in names if n != "manifest.json"]


def test_reach_bundle_skips_the_histogram(tmp_path, reach_result):
    written = export_bundle(reach_result, tmp_path / "bundle")
    assert "histogram.csv" not in {p.name for p in written}


def test_generations_csv_has_pinned_columns(tmp_path, flat_result):
    export_bundle(flat_result, tmp_path / "bundle")
    header = (tmp_path / "bundle" / "generations.csv").read_text().splitlines()[0]
    assert tuple(header.split(",")) == GENERATION_COLUMNS
    assert GENERATION_COLUMNS == (
        "id",
        "generation",
        "local_diversity",
        "certainty",
        "global_diversity",
        "local_distance",
        "joint_fitness",
    )


def test_export_is_byte_identical_across_reruns(tmp_path, flat_spec, well_trained_policy):
    config = EvolutionConfig(generations=4, seed=11)
    first = export_bundle(run(flat_spec, well_trained_policy, config), tmp_path / "a")
    second = export_bundle(run(flat_spec, well_trained_policy, config), tmp_path / "b")
    for path_a, path_b in zip(first, second):
        assert path_a.name == path_b.name
        assert path_a.read_bytes() == path_b.read_bytes()


def test_bundle_round_trips_through_load(tmp_path, flat_result):
    out = tmp_path / "bundle"
    export_bundle(flat_result, out)
    data = load_bundle(out)
    assert data.returns == [i.trajectory.episode_return for i in flat_result.population]
    assert data.lengths == [i.trajectory.final_length for i in flat_result.population]
    assert data.histogram is not None
    assert len(data.generations) == 6 * 10
    for stored, individual in zip(data.individuals, flat_result.population):
        assert stored["id"] == individual.id
        assert stored["genome"] == individual.genome.as_string()
        assert trajectory_from_dict(stored["trajectory"]) == individual.trajectory


def test_load_bundle_rejects_non_bundles(tmp_path):
    with pytest.raises(ConfigurationError, match="missing"):
        load_bundle(tmp_path)


@pytest.mark.parametrize("name", ["lengths.csv", "trajectories.json"])
def test_load_bundle_names_a_missing_file(tmp_path, flat_result, name):
    export_bundle(flat_result, tmp_path)
    (tmp_path / name).unlink()
    with pytest.raises(ConfigurationError, match=f"missing {name}"):
        load_bundle(tmp_path)


@pytest.mark.parametrize("name", ["manifest.json", "config.json", "trajectories.json"])
def test_load_bundle_names_a_malformed_json_file(tmp_path, flat_result, name):
    export_bundle(flat_result, tmp_path)
    (tmp_path / name).write_text("{not json")
    with pytest.raises(ConfigurationError, match=f"{name}: not valid JSON"):
        load_bundle(tmp_path)


@pytest.mark.parametrize("field, value", [("format", "something-else"), ("version", 2)])
def test_load_bundle_checks_the_manifest_header(tmp_path, flat_result, field, value):
    export_bundle(flat_result, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest[field] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigurationError, match="manifest.json: expected format"):
        load_bundle(tmp_path)


@pytest.mark.parametrize("name, text", [
    ("returns.csv", "id,episode_return\n0,lots\n"),
    ("generations.csv", ""),
    ("trajectories.json", '{"format": "evodemo-bundle"}'),
])
def test_load_bundle_names_a_malformed_table(tmp_path, flat_result, name, text):
    export_bundle(flat_result, tmp_path)
    (tmp_path / name).write_text(text)
    with pytest.raises(ConfigurationError, match=f"{name}: malformed"):
        load_bundle(tmp_path)


def test_config_snapshot_is_preserved(tmp_path, flat_result):
    out = tmp_path / "bundle"
    export_bundle(flat_result, out, {"environment": "FlatGrid11", "note": "x"})
    config = json.loads((out / "config.json").read_text())
    assert config["environment"] == "FlatGrid11"
    assert config["note"] == "x"
    assert config["evolution"]["generations"] == 5  # filled in from the run itself


# ---------------------------------------------------------------------------
# comparison reports


@pytest.fixture()
def two_group_bundles(tmp_path, flat_spec, early_stopped_policy):
    search_dirs = []
    baseline_dirs = []
    for seed in (0, 1):
        config = EvolutionConfig(generations=5, seed=seed)
        search = run(flat_spec, early_stopped_policy, config)
        rand = baseline(flat_spec, early_stopped_policy, config)
        search_dirs.append(
            export_bundle(search, tmp_path / f"search_{seed}", {"environment": "FlatGrid11"})[
                0
            ].parent
        )
        baseline_dirs.append(
            export_bundle(
                rand, tmp_path / f"base_{seed}", {"environment": "FlatGrid11"}, mode="baseline"
            )[0].parent
        )
    return search_dirs, baseline_dirs


def test_comparison_report_pools_groups(tmp_path, two_group_bundles):
    search_dirs, baseline_dirs = two_group_bundles
    out = tmp_path / "cmp"
    written = write_comparison_report(search_dirs, baseline_dirs, out)
    names = {p.name for p in written}
    assert names == {
        "histogram_search.csv",
        "histogram_baseline.csv",
        "report.json",
        "population_analysis.csv",
        "generation_analysis.csv",
    }
    payload = json.loads((out / "report.json").read_text())
    assert payload["groups"]["search"]["bundles"] == 2
    assert payload["groups"]["search"]["individuals"] == 20
    assert payload["groups"]["baseline"]["individuals"] == 20
    for group in payload["groups"].values():
        box = group["returns"]
        assert box["minimum"] <= box["q1"] <= box["median"] <= box["q3"] <= box["maximum"]


def test_comparison_histogram_sums_seeds(tmp_path, two_group_bundles):
    search_dirs, baseline_dirs = two_group_bundles
    out = tmp_path / "cmp"
    write_comparison_report(search_dirs, baseline_dirs, out)
    total = np.loadtxt(out / "histogram_search.csv", delimiter=",", skiprows=1)
    parts = [
        np.loadtxt(d / "histogram.csv", delimiter=",", skiprows=1) for d in search_dirs
    ]
    assert np.array_equal(total, parts[0] + parts[1])


def test_population_analysis_sorted_by_joint(tmp_path, two_group_bundles):
    search_dirs, _ = two_group_bundles
    out = tmp_path / "cmp"
    write_comparison_report(search_dirs, [], out)
    lines = (out / "population_analysis.csv").read_text().splitlines()
    joints = [float(line.split(",")[6]) for line in lines[1:]]
    assert joints == sorted(joints, reverse=True)


def test_comparison_refuses_mixed_environments(tmp_path, flat_result, reach_result):
    a = tmp_path / "a"
    b = tmp_path / "b"
    export_bundle(flat_result, a, {"environment": "FlatGrid11"})
    export_bundle(reach_result, b, {"environment": "PointReach"})
    with pytest.raises(ConfigurationError, match="different environments"):
        write_comparison_report([a], [b], tmp_path / "cmp")


def test_comparison_requires_some_input(tmp_path):
    with pytest.raises(ConfigurationError):
        write_comparison_report([], [], tmp_path / "cmp")
