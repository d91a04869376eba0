import json

import pytest

from evodemo.cli import main


def write_yaml(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture()
def train_config(tmp_path):
    return write_yaml(
        tmp_path / "train.yaml",
        f"""
environment: FlatGrid11
training:
  steps: 2000
  checkpoints: [500, 1000]
  seed: 0
output: {tmp_path / 'policies'}
""",
    )


@pytest.fixture()
def evolve_config(tmp_path):
    return write_yaml(
        tmp_path / "evolve.yaml",
        f"""
environment: FlatGrid11
policy:
  train:
    steps: 12000
    checkpoints: [2000, 4000, 8000, 12000]
    select: earliest_success
evolution:
  generations: 3
seeds: [0, 1]
output: {tmp_path / 'runs'}
""",
    )


def test_train_writes_checkpoint_files(tmp_path, train_config, capsys):
    assert main(["train", train_config]) == 0
    out = tmp_path / "policies"
    assert sorted(p.name for p in out.iterdir()) == [
        "policy_1000.json",
        "policy_2000.json",
        "policy_500.json",
    ]
    assert "canonical start" in capsys.readouterr().out


def test_evolve_writes_one_bundle_per_seed(tmp_path, evolve_config, capsys):
    assert main(["evolve", evolve_config]) == 0
    runs = tmp_path / "runs"
    assert (runs / "seed_0" / "manifest.json").is_file()
    assert (runs / "seed_1" / "returns.csv").is_file()
    parent = json.loads((runs / "manifest.json").read_text())
    assert parent["mode"] == "evolve"
    assert parent["seeds"] == [0, 1]
    assert parent["bundles"] == ["seed_0", "seed_1"]
    config = json.loads((runs / "seed_0" / "config.json").read_text())
    assert config["environment"] == "FlatGrid11"
    assert config["policy"]["train"]["selected_step"] in (2000, 4000, 8000, 12000)
    assert config["seed"] == 0


def test_seed_and_out_overrides(tmp_path, evolve_config):
    assert main(["evolve", evolve_config, "--seed", "7", "--out", str(tmp_path / "o")]) == 0
    parent = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert parent["seeds"] == [7]
    assert (tmp_path / "o" / "seed_7").is_dir()
    assert not (tmp_path / "runs").exists()


def test_baseline_mode_is_recorded(tmp_path, evolve_config):
    assert main(["baseline", evolve_config, "--seed", "0"]) == 0
    manifest = json.loads((tmp_path / "runs" / "seed_0" / "manifest.json").read_text())
    assert manifest["mode"] == "baseline"


def test_policy_file_round_trip_through_cli(tmp_path, train_config):
    assert main(["train", train_config]) == 0
    config = write_yaml(
        tmp_path / "reuse.yaml",
        f"""
environment: FlatGrid11
policy: {tmp_path / 'policies' / 'policy_2000.json'}
evolution:
  generations: 2
seeds: [3]
output: {tmp_path / 'reuse_runs'}
""",
    )
    assert main(["evolve", config]) == 0
    assert (tmp_path / "reuse_runs" / "seed_3" / "trajectories.json").is_file()


def test_report_aggregates_bundles(tmp_path, evolve_config, capsys):
    assert main(["evolve", evolve_config]) == 0
    out = tmp_path / "cmp"
    code = main(
        [
            "report",
            "--search",
            str(tmp_path / "runs" / "seed_0"),
            str(tmp_path / "runs" / "seed_1"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["groups"]["search"]["bundles"] == 2


def test_sweep_runs_every_cell(tmp_path, capsys):
    config = write_yaml(
        tmp_path / "sweep.yaml",
        f"""
environment: PointReach
policy:
  gaussian_controller: {{}}
evolution:
  population_size: 4
  generations: 2
encoding:
  bits_per_dimension: 5
seeds: [0]
output: {tmp_path / 'sweep'}
sweep:
  "crossover_probability,mutation_probability": [[0.9, 0.25], [0.5, 0.75]]
""",
    )
    assert main(["sweep", config]) == 0
    cells = sorted(p.name for p in (tmp_path / "sweep").iterdir())
    assert cells == [
        "crossover_probability=0.5__mutation_probability=0.75",
        "crossover_probability=0.9__mutation_probability=0.25",
    ]
    for cell in cells:
        assert (tmp_path / "sweep" / cell / "seed_0" / "manifest.json").is_file()


def test_sweep_with_empty_grid_is_a_no_op(tmp_path, capsys):
    config = write_yaml(
        tmp_path / "sweep.yaml",
        f"""
environment: PointReach
policy:
  gaussian_controller: {{}}
seeds: [0]
output: {tmp_path / 'sweep'}
sweep: {{}}
""",
    )
    assert main(["sweep", config]) == 0
    assert not (tmp_path / "sweep").exists()
    assert "nothing to run" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# error handling


def test_missing_config_exits_one(tmp_path, capsys):
    assert main(["evolve", str(tmp_path / "nope.yaml")]) == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_exits_one(tmp_path, capsys):
    config = write_yaml(
        tmp_path / "bad.yaml",
        "environment: FlatGrid11\npolicy: {train: {steps: 100}}\noutput: x\nwhat: 1\n",
    )
    assert main(["evolve", config]) == 1
    assert "what" in capsys.readouterr().err


def test_unknown_environment_exits_one(tmp_path):
    config = write_yaml(
        tmp_path / "bad.yaml",
        "environment: Swamp\npolicy: {train: {steps: 100}}\noutput: x\n",
    )
    assert main(["evolve", config]) == 1


def test_mismatched_policy_kind_exits_one(tmp_path):
    config = write_yaml(
        tmp_path / "bad.yaml",
        "environment: FlatGrid11\npolicy: {gaussian_controller: {}}\noutput: x\n",
    )
    assert main(["evolve", config]) == 1


def test_policy_file_that_does_not_fit_exits_one_naming_the_file(tmp_path, capsys):
    from evodemo.policy import GaussianControllerPolicy, save_policy

    save_policy(GaussianControllerPolicy(), tmp_path / "ctrl.json")
    config = write_yaml(
        tmp_path / "bad.yaml",
        f"environment: FlatGrid11\npolicy: ctrl.json\noutput: {tmp_path / 'out'}\n",
    )
    assert main(["evolve", config]) == 1
    message = capsys.readouterr().err
    assert str(tmp_path / "ctrl.json") in message
    assert "GaussianControllerPolicy" in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("setting", "field"),
    [
        ("evolution: {population_size: ten}", "population_size"),
        ("evolution: {tournament_size: 2.5}", "tournament_size"),
        ("evolution: {generations: true}", "generations"),
        ("evolution: {crossover_probability: high}", "crossover_probability"),
        ("evolution: {mutation_probability: true}", "mutation_probability"),
        ("encoding: {bits_per_dimension: 3}", "bits_per_dimension"),  # 9 interior rows
        ("seeds: [true]", "seeds"),
    ],
)
def test_bad_search_values_exit_one_naming_the_field(tmp_path, capsys, setting, field):
    config = write_yaml(
        tmp_path / "bad.yaml",
        f"environment: FlatGrid11\npolicy: {{train: {{steps: 100}}}}\n"
        f"output: {tmp_path / 'runs'}\n{setting}\n",
    )
    assert main(["evolve", config]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_a_training_temperature_that_overflows_exits_one_naming_it(tmp_path, capsys):
    config = write_yaml(
        tmp_path / "bad.yaml",
        "environment: FlatGrid11\n"
        "policy: {train: {steps: 2000, seed: 0, temperature: 1.0e-310}}\n"
        f"output: {tmp_path / 'runs'}\n",
    )
    assert main(["evolve", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "temperature" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    ("setting", "flags"),
    [("seeds: [0, -1]", []), ("seeds: [0]", ["--seed", "0", "--seed", "-1"])],
)
def test_negative_seed_exits_one_naming_the_seed(tmp_path, capsys, setting, flags):
    config = write_yaml(
        tmp_path / "bad.yaml",
        f"environment: FlatGrid11\npolicy: {{train: {{steps: 100}}}}\n"
        f"output: {tmp_path / 'runs'}\n{setting}\n",
    )
    assert main(["evolve", config, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed" in err and "-1" in err
    assert not (tmp_path / "runs").exists()  # checked before seed 0 runs


@pytest.mark.parametrize(
    ("environment", "policy", "parameter"),
    [
        ("PointReach", "{gaussian_controller: {gain: x}}", "gain"),
        ("PointReach", "{gaussian_controller: {window: true}}", "window"),
        ("PointReach", "{gaussian_controller: {noise_scale: .inf}}", "noise_scale"),
        ("FlatGrid11", "{train: {steps: 100, alpha: x}}", "alpha"),
        ("FlatGrid11", "{train: {steps: 100, gamma: true}}", "gamma"),
        ("FlatGrid11", "{train: {steps: 100, checkpoints: [true]}}", "checkpoint"),
        ("FlatGrid11", "{train: {steps: 100, epsilon_end: x}}", "epsilon_end"),
        ("FlatGrid11", "{train: {steps: 100, seed: -1}}", "seed"),
        ("FlatGrid11", "{train: {steps: 100, seed: 1.5}}", "seed"),
    ],
)
def test_bad_policy_parameters_exit_one_naming_the_parameter(
    tmp_path, capsys, environment, policy, parameter
):
    config = write_yaml(
        tmp_path / "bad.yaml",
        f"environment: {environment}\npolicy: {policy}\noutput: {tmp_path / 'runs'}\n",
    )
    assert main(["evolve", config]) == 1
    assert parameter in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_invalid_flag_exits_one(tmp_path, capsys):
    assert main(["evolve", "--bogus"]) == 1


def test_unknown_sweep_parameter_exits_one(tmp_path):
    config = write_yaml(
        tmp_path / "bad.yaml",
        f"""
environment: PointReach
policy:
  gaussian_controller: {{}}
output: {tmp_path / 'x'}
sweep:
  seed: [1, 2]
""",
    )
    assert main(["sweep", config]) == 1


def test_corrupt_bundle_exits_one(tmp_path, capsys):
    bad = tmp_path / "bundle"
    bad.mkdir()
    (bad / "manifest.json").write_text("not json")
    for name in ("config.json", "returns.csv", "lengths.csv", "generations.csv", "trajectories.json"):
        (bad / name).write_text("")
    assert main(["report", "--search", str(bad), "--out", str(tmp_path / "cmp")]) == 1
    assert "manifest.json: not valid JSON" in capsys.readouterr().err


def test_bundle_missing_a_file_exits_one(tmp_path, capsys):
    config = write_yaml(
        tmp_path / "evolve.yaml",
        f"""
environment: PointReach
policy:
  gaussian_controller: {{}}
evolution: {{population_size: 4, generations: 1}}
seeds: [0]
output: {tmp_path / 'out'}
""",
    )
    assert main(["evolve", config]) == 0
    (tmp_path / "out" / "seed_0" / "lengths.csv").unlink()
    code = main(["report", "--search", str(tmp_path / "out" / "seed_0"), "--out", str(tmp_path / "cmp")])
    assert code == 1
    assert "missing lengths.csv" in capsys.readouterr().err


def test_bundle_with_malformed_individuals_exits_one(tmp_path, capsys):
    config = write_yaml(
        tmp_path / "evolve.yaml",
        f"""
environment: PointReach
policy:
  gaussian_controller: {{}}
evolution: {{population_size: 4, generations: 1}}
seeds: [0]
output: {tmp_path / 'out'}
""",
    )
    assert main(["evolve", config]) == 0
    trajectories = tmp_path / "out" / "seed_0" / "trajectories.json"
    payload = json.loads(trajectories.read_text())
    payload["individuals"] = [{"id": 1}]
    trajectories.write_text(json.dumps(payload))
    code = main(["report", "--search", str(tmp_path / "out" / "seed_0"), "--out", str(tmp_path / "cmp")])
    assert code == 1
    assert "trajectories.json: malformed" in capsys.readouterr().err


def test_report_refuses_histograms_of_different_shapes_naming_the_bundle(
    tmp_path, evolve_config, capsys,
):
    assert main(["evolve", evolve_config]) == 0
    histogram = tmp_path / "runs" / "seed_1" / "histogram.csv"
    header, *rows = histogram.read_text().splitlines()
    widened = [f"{header},col_{len(header.split(','))}"] + [f"{row},0" for row in rows]
    histogram.write_text("\n".join(widened) + "\n")
    code = main(["report", "--search", str(tmp_path / "runs" / "seed_0"),
                 str(tmp_path / "runs" / "seed_1"), "--out", str(tmp_path / "cmp")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert str(tmp_path / "runs" / "seed_1") in err
    assert "(11, 12)" in err
    assert not (tmp_path / "cmp").exists()  # refused before anything is written


def test_layout_path_resolves_relative_to_config(tmp_path):
    (tmp_path / "maps").mkdir()
    (tmp_path / "maps" / "tiny.map").write_text("#####\n#...#\n#.T.#\n#####\n")
    config = write_yaml(
        tmp_path / "evolve.yaml",
        f"""
environment: maps/tiny.map
policy:
  train:
    steps: 500
evolution:
  population_size: 3
  generations: 2
  tournament_size: 2
encoding:
  bits_per_dimension: 3
seeds: [0]
output: {tmp_path / 'tiny_runs'}
""",
    )
    assert main(["evolve", config]) == 0
    assert (tmp_path / "tiny_runs" / "seed_0" / "returns.csv").is_file()
