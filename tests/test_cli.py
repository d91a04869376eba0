import contextlib
import inspect
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from evodemo import cli
from evodemo.cli import main
from evodemo.policy import CONTROLLER_PARAMETERS, TabularPolicy, load_policy, save_policy


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


@pytest.mark.parametrize("command", ["evolve", "baseline"])
def test_a_layout_without_a_start_exits_one_naming_it(tmp_path, capsys, command):
    # the one interior cell is the target: no draw decodes to a valid start
    (tmp_path / "walled.map").write_text("###\n#T#\n###\n")
    save_policy(TabularPolicy(np.zeros((3, 3, 4))), tmp_path / "q.json")
    config = write_yaml(
        tmp_path / "walled.yaml",
        f"environment: walled.map\npolicy: q.json\nseeds: [0]\noutput: {tmp_path / 'out'}\n",
    )
    assert main([command, config]) == 1
    assert "walled.map: no valid start found in 10000 attempts" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("setting", "field"),
    [
        ("evolution: {population_size: ten}", "population_size"),
        ("evolution: {tournament_size: 2.5}", "tournament_size"),
        ("evolution: {tournament_size: 1000000000}", "tournament_size"),  # above the cap
        ("evolution: {population_size: 1000000000}", "population_size"),
        ("evolution: {generations: true}", "generations"),
        ("evolution: {crossover_probability: high}", "crossover_probability"),
        ("evolution: {mutation_probability: true}", "mutation_probability"),
        ("encoding: {bits_per_dimension: 3}", "bits_per_dimension"),  # 9 interior rows
        ("encoding: {bits_per_dimension: 1000000000}", "bits_per_dimension"),  # above the cap
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
    ("command", "setting", "flags"),
    [
        ("evolve", "seeds: [3, 3]", []),
        ("baseline", "seeds: [0]", ["--seed", "3", "--seed", "3"]),
        ("sweep", "seeds: [3, 4, 3]\nsweep: {population_size: [4]}", []),
    ],
)
def test_a_repeated_seed_exits_one_naming_it(tmp_path, capsys, command, setting, flags):
    config = write_yaml(
        tmp_path / "bad.yaml",
        f"environment: PointReach\npolicy: {{gaussian_controller: {{}}}}\n"
        f"output: {tmp_path / 'runs'}\n{setting}\n",
    )
    assert main([command, config, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed 3 " in err
    assert not (tmp_path / "runs").exists()  # refused before the first search


@pytest.mark.parametrize(
    ("axes", "cell"),
    [
        ("{population_size: [4, 4]}", "population_size=4"),
        # the tuple axis sets generations again, so both cells are the same
        ('{generations: [2, 3], "generations,population_size": [[2, 4]]}',
         "generations=2__population_size=4"),
    ],
)
def test_a_repeated_sweep_cell_exits_one_naming_it(tmp_path, capsys, axes, cell):
    config = write_yaml(
        tmp_path / "bad.yaml",
        f"environment: PointReach\npolicy: {{gaussian_controller: {{}}}}\n"
        f"evolution: {{generations: 2}}\nseeds: [0]\noutput: {tmp_path / 'sweep'}\n"
        f"sweep: {axes}\n",
    )
    assert main(["sweep", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"sweep cell {cell} " in err
    assert not (tmp_path / "sweep").exists()  # refused before the first search


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
        ("FlatGrid11", "{path: 5}", "policy path"),
        ("FlatGrid11", "{path: [a]}", "policy path"),
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


def test_train_refuses_more_than_one_seed_naming_them(tmp_path, train_config, capsys):
    assert main(["train", train_config, "--seed", "1", "--seed", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--seed" in err
    assert "[1, 2]" in err
    assert not (tmp_path / "policies").exists()


def test_train_seed_flag_sets_the_training_seed(tmp_path, train_config):
    assert main(["train", train_config, "--seed", "3", "--out", str(tmp_path / "s3")]) == 0
    assert main(["train", train_config, "--out", str(tmp_path / "s0")]) == 0
    policy_3 = (tmp_path / "s3" / "policy_2000.json").read_text()
    assert policy_3 != (tmp_path / "s0" / "policy_2000.json").read_text()


@pytest.mark.parametrize("output", ["5", "[1]", "true"])
@pytest.mark.parametrize(
    ("command", "setting"),
    [("evolve", "environment: PointReach\npolicy: {gaussian_controller: {}}"),
     ("train", "environment: FlatGrid11\ntraining: {steps: 100}")],
    ids=["evolve", "train"],
)
def test_an_output_that_is_not_a_path_exits_one_naming_it(
    tmp_path, capsys, monkeypatch, command, setting, output,
):
    monkeypatch.chdir(tmp_path)  # a relative directory would be made here
    config = write_yaml(tmp_path / "bad.yaml", f"{setting}\noutput: {output}\n")
    assert main([command, config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'output'" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "bad.yaml"]


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("below", ["", "runs"], ids=["the file", "under the file"])
@pytest.mark.parametrize("command", ["evolve", "baseline", "sweep", "train"])
def test_an_output_path_through_a_file_exits_one_before_any_search(
    tmp_path, capsys, monkeypatch, command, below, where,
):
    def refuse(*args, **kwargs):
        raise AssertionError("a search or training ran")

    for name in ("run", "baseline"):
        monkeypatch.setattr(cli.evolution, name, refuse)
    monkeypatch.setattr(cli, "train_q_learning", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / below if below else blocker
    setting = ("environment: FlatGrid11\ntraining: {steps: 100}\n" if command == "train" else
               "environment: PointReach\npolicy: {gaussian_controller: {}}\nseeds: [0]\n")
    if command == "sweep":
        setting += "sweep: {population_size: [4, 5]}\n"
    if where == "config":
        config, flags = write_yaml(tmp_path / "c.yaml", f"{setting}output: {out}\n"), []
    else:
        config, flags = write_yaml(tmp_path / "c.yaml", setting), ["--out", str(out)]
    assert main([command, config, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{blocker} is not a directory" in err
    assert str(out) in err
    assert sorted(tmp_path.iterdir()) == [tmp_path / "c.yaml", blocker]
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("below", ["", "runs"], ids=["the file", "under the file"])
def test_a_report_output_path_through_a_file_exits_one_before_any_bundle_is_read(
    tmp_path, capsys, monkeypatch, below,
):
    def refuse(*args, **kwargs):
        raise AssertionError("a bundle was read")

    monkeypatch.setattr(cli.report, "load_bundle", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / below if below else blocker
    search = tmp_path / "search"
    assert main(["report", "--search", str(search), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"config error: output directory {out} cannot be made: "
                   f"{blocker} is not a directory\n")
    assert sorted(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize(("command", "blocked", "named"), [
    ("evolve", "seed_1", "seed_1"),
    ("baseline", "seed_1", "seed_1"),
    ("sweep", "population_size=5/seed_1", "population_size=5/seed_1"),
    # the cell's directory itself: its first bundle is named
    ("sweep", "population_size=5", "population_size=5/seed_0"),
])
def test_a_bundle_path_through_a_file_exits_one_before_any_search(
    tmp_path, capsys, monkeypatch, command, blocked, named,
):
    def refuse(*args, **kwargs):
        raise AssertionError("a search ran")

    for name in ("run", "baseline"):
        monkeypatch.setattr(cli.evolution, name, refuse)
    out = tmp_path / "out"
    blocker = out / blocked
    blocker.parent.mkdir(parents=True)
    blocker.write_text("kept\n")
    setting = "environment: PointReach\npolicy: {gaussian_controller: {}}\nseeds: [0, 1]\n"
    if command == "sweep":
        setting += "sweep: {population_size: [4, 5]}\n"
    config = write_yaml(tmp_path / "c.yaml", f"{setting}output: {out}\n")
    before = sorted(tmp_path.rglob("*"))
    assert main([command, config]) == 1
    err = capsys.readouterr().err
    assert err == (f"config error: bundle directory {out / named} cannot be made: "
                   f"{blocker} is not a directory\n")
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "kept\n"


def test_train_refuses_select_as_an_unknown_training_key(tmp_path, capsys):
    config = write_yaml(
        tmp_path / "train.yaml",
        "environment: FlatGrid11\n"
        "training: {steps: 100, checkpoints: [50], select: earliest_success}\n"
        f"output: {tmp_path / 'policies'}\n",
    )
    assert main(["train", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "select" in err
    assert not (tmp_path / "policies").exists()


def test_every_training_key_reaches_the_trainer_under_its_parameter_name(
    tmp_path, monkeypatch,
):
    train = cli.train_q_learning
    trainer = inspect.signature(train)
    calls = []

    def recording_trainer(*args, **kwargs):
        calls.append(trainer.bind(*args, **kwargs).arguments)
        return train(*args, **kwargs)

    monkeypatch.setattr(cli, "train_q_learning", recording_trainer)
    training = {"steps": 40, "checkpoints": [10, 20], "alpha": 0.5, "gamma": 0.9,
                "epsilon_start": 0.9, "epsilon_end": 0.2, "epsilon_decay_fraction": 0.5,
                "temperature": 2.0, "seed": 7}
    config = write_yaml(
        tmp_path / "train.yaml",
        yaml.safe_dump({"environment": "FlatGrid11", "training": training,
                        "output": str(tmp_path / "policies")}),
    )
    assert main(["train", config]) == 0
    [arguments] = calls
    expected = {name: value for name, value in training.items() if name != "checkpoints"}
    expected["checkpoint_steps"] = (10, 20)
    assert {name: arguments[name] for name in expected} == expected
    # every parameter but the environment is set, and none to its default
    assert set(arguments) == set(trainer.parameters) == {"spec", *expected}
    for name, value in expected.items():
        assert value != trainer.parameters[name].default, name


def test_every_controller_parameter_reaches_the_policy_and_the_bundle(tmp_path, monkeypatch):
    controller = {"gain": 2.0, "noise_scale": 0.2, "window": 0.3, "step_size": 0.04}
    assert set(controller) == set(CONTROLLER_PARAMETERS)
    search = cli.evolution.run
    policies = []

    def recording_run(env_spec, policy, config):
        policies.append(policy)
        return search(env_spec, policy, config)

    monkeypatch.setattr(cli.evolution, "run", recording_run)
    config = write_yaml(
        tmp_path / "evolve.yaml",
        yaml.safe_dump({"environment": "PointReach",
                        "policy": {"gaussian_controller": controller},
                        "evolution": {"population_size": 4, "generations": 1},
                        "seeds": [0], "output": str(tmp_path / "runs")}),
    )
    assert main(["evolve", config]) == 0
    [policy] = policies
    assert {name: getattr(policy, name) for name in CONTROLLER_PARAMETERS} == controller
    snapshot = json.loads((tmp_path / "runs" / "seed_0" / "config.json").read_text())
    assert snapshot["policy"] == {"gaussian_controller": controller}
    save_policy(policy, tmp_path / "controller.json")
    loaded = load_policy(tmp_path / "controller.json")
    assert {name: getattr(loaded, name) for name in CONTROLLER_PARAMETERS} == controller


@pytest.mark.parametrize(
    ("axis", "cell"),
    [("population_size: [4, 1]", "population_size=1"),
     ("bits_per_dimension: [6, 2]", "bits_per_dimension=2")],  # 9 interior rows need 4 bits
)
def test_a_bad_sweep_cell_is_refused_before_any_cell_runs(tmp_path, capsys, axis, cell):
    config = write_yaml(
        tmp_path / "bad.yaml",
        f"environment: FlatGrid11\npolicy: {{train: {{steps: 100}}}}\n"
        f"evolution: {{generations: 1}}\nseeds: [0]\noutput: {tmp_path / 'sweep'}\n"
        f"sweep: {{{axis}}}\n",
    )
    assert main(["sweep", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"sweep cell {cell}:" in err
    assert not (tmp_path / "sweep").exists()  # the valid first cell did not run either


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


def test_report_refuses_histograms_that_do_not_fit_the_preset_grid(tmp_path, evolve_config, capsys):
    # both bundles widened to 11x12 still match each other; FlatGrid11 is 11x11
    assert main(["evolve", evolve_config]) == 0
    for seed in (0, 1):
        histogram = tmp_path / "runs" / f"seed_{seed}" / "histogram.csv"
        header, *rows = histogram.read_text().splitlines()
        widened = [f"{header},col_{len(header.split(','))}"] + [f"{row},0" for row in rows]
        histogram.write_text("\n".join(widened) + "\n")
    code = main(["report", "--search", str(tmp_path / "runs" / "seed_0"),
                 str(tmp_path / "runs" / "seed_1"), "--out", str(tmp_path / "cmp")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"{tmp_path / 'runs' / 'seed_0'}: its histogram.csv has shape (11, 12)" in err
    assert "FlatGrid11, whose grid is 11x11" in err
    assert not (tmp_path / "cmp").exists()


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


# ---------------------------------------------------------------------------
# generated sweep and seed inputs

SWEEPABLE = ("population_size", "generations", "crossover_probability",
             "mutation_probability", "tournament_size", "bits_per_dimension")
UNKNOWN = ("seed", "seeds", "gain", "steps", "")
VALID = {
    "population_size": st.integers(2, 4),
    "generations": st.integers(1, 2),
    "crossover_probability": st.floats(0, 1) | st.sampled_from([0, 1]),
    "mutation_probability": st.floats(0, 1) | st.sampled_from([0, 1]),
    "tournament_size": st.integers(1, 4),
    "bits_per_dimension": st.integers(1, 12),  # FlatGrid11 needs 4 or more
}
# on or past the edge of the valid ranges, and values of the wrong type
EDGE_VALUES = st.sampled_from([-1, 0, 1, 1.25])
ODD_VALUES = (st.booleans() | st.floats() | st.text(max_size=3)
              | st.lists(st.integers(0, 3), max_size=2))


@st.composite
def sweeps(draw):
    """A ``sweep`` mapping of one or two axes, each a parameter or a comma-joined
    pair, and a seed list.  Each example draws at most one kind of fault (bad
    values, unknown names, misshapen axes or bad seeds) and takes it at about
    every other choice of that kind; cells may also repeat, and a bit width may
    be too narrow for the grid."""
    fault = draw(st.sampled_from([None, "value", "value", "name", "shape", "seeds"]))

    def off_path(kind):
        return fault == kind and draw(st.booleans())

    def value(name):
        if name in VALID and not off_path("value"):
            return draw(VALID[name])
        return draw(EDGE_VALUES | ODD_VALUES)

    def axis():
        names = [draw(st.sampled_from(UNKNOWN if off_path("name") else SWEEPABLE))
                 for _ in range(draw(st.integers(1, 2)))]

        def point():
            if len(names) == 1:
                return value(names[0])
            return draw(ODD_VALUES) if off_path("shape") else [value(name) for name in names]

        count = 0 if off_path("shape") else draw(st.integers(1, 2))
        return ",".join(names), [point() for _ in range(count)]

    grid = dict(axis() for _ in range(draw(st.integers(1, 2))))
    seeds = draw(st.lists(st.integers(-1, 2), max_size=3) if fault == "seeds"
                 else st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True))
    return grid, seeds


SEARCHES = st.sampled_from([
    {"environment": "PointReach", "policy": {"gaussian_controller": {}}},
    {"environment": "FlatGrid11", "policy": {"train": {"steps": 100}}},
])


@settings(max_examples=30, deadline=None)
@given(search=SEARCHES, population=st.integers(2, 4), sweep=sweeps())
def test_a_sweep_runs_every_cell_and_seed_or_writes_nothing(search, population, sweep):
    grid, seeds = sweep
    with tempfile.TemporaryDirectory() as directory:
        out = Path(directory) / "sweep"
        config = {**search, "evolution": {"population_size": population, "generations": 1},
                  "seeds": seeds, "output": str(out), "sweep": grid}
        path = Path(directory) / "sweep.yaml"
        path.write_text(yaml.safe_dump(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["sweep", str(path)])
        assert code in (0, 1), err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("config error:")
            assert not out.exists()
            return
        bundles = sorted(p.parent.relative_to(out) for p in out.rglob("manifest.json"))
        cells = {bundle.parent for bundle in bundles}
        assert len(cells) == math.prod(len(values) for values in grid.values())
        assert bundles == sorted(cell / f"seed_{seed}" for cell in cells for seed in seeds)
