import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import iqr, trajectory_from_dict
from evodemo.errors import ConfigurationError, ContractViolationError
from evodemo.evolution import EvolutionConfig, baseline, run
from evodemo.jsonfile import dumps
from evodemo.report import (
    GENERATION_COLUMNS,
    _format_cell,
    _write_csv,
    boxplot_stats,
    export_bundle,
    load_bundle,
    visit_histogram,
    write_comparison_report,
)


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
    assert iqr(stats) == 1.5
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


# ---------------------------------------------------------------------------
# the JSON writer and CSV rows

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e22, 0.1]
json_floats = st.floats() | st.sampled_from(SPECIAL_FLOATS) | st.floats().map(np.float64)
json_strings = st.text(st.characters() | st.sampled_from('"\\\n\t\x00\x1f\x7fé€😀'))
json_scalars = (
    json_floats
    | st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.none()
    | json_strings
    # the shapes the writer joins in one go: lists of floats or ints, rows of floats
    | st.lists(json_floats)
    | st.lists(st.integers(-(2**70), 2**70))
    | st.lists(st.lists(json_floats, max_size=4).map(tuple), max_size=6)
)
json_values = st.recursive(
    json_scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(json_strings, children, max_size=5)
        | st.dictionaries(st.integers(), children, max_size=3)  # handed to json itself
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_json_writer_matches_json_dumps(value):
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(value=json_values, bad=st.sampled_from([{1.0}, np.float32(0.5), object()]))
def test_json_writer_rejects_what_json_rejects(value, bad):
    for payload in ([value, bad], {"a": value, "b": bad}, [[1.0, bad]], {"a": [{"b": (bad,)}]}):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dumps(payload)


csv_cells = (
    st.integers(-(2**70), 2**70)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.floats()
    | st.floats().map(np.float64)
    | st.sampled_from(SPECIAL_FLOATS)
    | st.text()
    | st.just('a,"b"\nc')
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(csv_cells, max_size=7)))
def test_csv_rows_match_format_cell_and_csv_writer(tmp_path_factory, rows):
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(("id", "value"))
    writer.writerows([_format_cell(cell) for cell in row] for row in rows)
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    _write_csv(path, ("id", "value"), rows)
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


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


GENERATIONS_HEADER = "id,generation,local_diversity,certainty,global_diversity,local_distance,joint_fitness\n"


@pytest.mark.parametrize("name, text", [
    ("returns.csv", "id,episode_return\n0,lots\n"),
    ("returns.csv", "id,episode_return\n"),
    ("lengths.csv", "id,final_length\n"),
    ("lengths.csv", "id,final_length\n0,3\n"),
    ("generations.csv", ""),
    ("generations.csv", "id,generation,certainty,joint_fitness\n0,0,0.5,0.5\n"),
    ("generations.csv", GENERATIONS_HEADER + "0,0,0.5\n"),
    ("histogram.csv", "col_0,col_1\n"),
    ("histogram.csv", "col_0,col_1\n0,1\n2\n"),
    ("trajectories.json", '{"format": "evodemo-bundle"}'),
], ids=["text return", "no returns", "no lengths", "one length for ten individuals",
        "empty generations", "no score columns", "short generations row",
        "no histogram rows", "ragged histogram", "no individuals key"])
def test_load_bundle_names_a_malformed_table(tmp_path, flat_result, name, text):
    export_bundle(flat_result, tmp_path)
    (tmp_path / name).write_text(text)
    with pytest.raises(ConfigurationError, match=f"{name}: malformed"):
        load_bundle(tmp_path)


def _drop(field):
    def edit(ind):
        del ind[field]
    return edit


def _set(path, value):
    def edit(ind):
        *parents, last = path
        for key in parents:
            ind = ind[key]
        ind[last] = value
    return edit


@pytest.mark.parametrize("edit", [
    _drop("fitness"),
    _drop("trajectory"),
    _drop("id"),
    _set(("fitness", "joint"), "high"),
    _set(("fitness",), None),
    _set(("trajectory", "episode_return"), None),
    _set(("trajectory", "states"), 7),
], ids=["no fitness", "no trajectory", "no id", "text joint", "null fitness",
        "null return", "states not a list"])
def test_load_bundle_names_malformed_individuals(tmp_path, flat_result, edit):
    export_bundle(flat_result, tmp_path)
    payload = json.loads((tmp_path / "trajectories.json").read_text())
    edit(payload["individuals"][0])
    (tmp_path / "trajectories.json").write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError, match="trajectories.json: malformed"):
        load_bundle(tmp_path)


@pytest.mark.parametrize("individuals", [[5], 3, []], ids=["not an object", "not a list", "empty"])
def test_load_bundle_names_malformed_individual_lists(tmp_path, flat_result, individuals):
    export_bundle(flat_result, tmp_path)
    payload = json.loads((tmp_path / "trajectories.json").read_text())
    payload["individuals"] = individuals
    (tmp_path / "trajectories.json").write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError, match="trajectories.json: malformed"):
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


def test_generation_analysis_averages_each_generation(tmp_path, two_group_bundles):
    search_dirs, _ = two_group_bundles
    out = tmp_path / "cmp"
    write_comparison_report(search_dirs, [], out)
    by_generation = {}
    for bundle in search_dirs:
        with (bundle / "generations.csv").open(newline="") as handle:
            for row in csv.DictReader(handle):
                by_generation.setdefault(int(row["generation"]), []).append(row)
    with (out / "generation_analysis.csv").open(newline="") as handle:
        analysis = list(csv.DictReader(handle))
    assert [int(row["generation"]) for row in analysis] == sorted(by_generation) == list(range(6))
    for row in analysis:
        members = by_generation[int(row["generation"])]
        assert len(members) == 20  # the whole population of both seeds
        for column in GENERATION_COLUMNS[2:]:
            values = [float(member[column]) for member in members]
            expected = sum(values) / len(values)
            assert float(row[f"mean_{column}"]) == pytest.approx(expected, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("name", ['seed,0', 'seed "0"', 'a,"b",c'])
def test_population_analysis_round_trips_awkward_bundle_names(tmp_path, flat_result, name):
    bundle = tmp_path / name
    export_bundle(flat_result, bundle, {"environment": "FlatGrid11"})
    write_comparison_report([bundle], [], tmp_path / "cmp")
    with (tmp_path / "cmp" / "population_analysis.csv").open(newline="") as handle:
        header, *rows = csv.reader(handle)
    assert len(rows) == len(flat_result.population)
    assert all(len(row) == len(header) for row in rows)
    assert {row[0] for row in rows} == {name}
    assert sorted(int(row[1]) for row in rows) == sorted(i.id for i in flat_result.population)


def test_comparison_refuses_mixed_environments(tmp_path, flat_result, reach_result):
    a = tmp_path / "a"
    b = tmp_path / "b"
    export_bundle(flat_result, a, {"environment": "FlatGrid11"})
    export_bundle(reach_result, b, {"environment": "PointReach"})
    with pytest.raises(ConfigurationError, match="different environments"):
        write_comparison_report([a], [b], tmp_path / "cmp")


@pytest.mark.parametrize("extra_column", [True, False], ids=["column", "row"])
def test_comparison_refuses_histograms_of_different_shapes(tmp_path, flat_result, extra_column):
    a, b = tmp_path / "a", tmp_path / "b"
    for bundle in (a, b):
        export_bundle(flat_result, bundle, {"environment": "FlatGrid11"})
    header, *rows = (b / "histogram.csv").read_text().splitlines()
    if extra_column:
        header, rows = header + ",col_11", [row + ",0" for row in rows]
    else:
        rows.append(rows[-1])
    (b / "histogram.csv").write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(ConfigurationError, match=f"{b}: its histogram.csv has shape"):
        write_comparison_report([a], [b], tmp_path / "cmp")
    assert not (tmp_path / "cmp").exists()


def test_comparison_requires_some_input(tmp_path):
    with pytest.raises(ConfigurationError):
        write_comparison_report([], [], tmp_path / "cmp")
