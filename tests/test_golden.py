"""Golden sha256 digests of exported bundles for pinned seeds.

Rerun-versus-rerun identity (``test_report.py``) cannot catch drift between
two versions of the code; these digests can.  A refactor or optimisation
must leave every file of every pinned bundle byte-identical.

The digests live in ``golden_digests.json`` next to this file, together
with the numpy version they were recorded under; ``paper_scale_digests.json``
holds those of one PointReach seed at the paper's defaults (population 30,
1000 generations, 9 bits).  To re-record both after a deliberate change of
output, run from the repository root:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from evodemo import EvolutionConfig, GaussianControllerPolicy, preset, train_q_learning
from evodemo.evolution import run
from evodemo.report import export_bundle

DIGESTS = Path(__file__).with_name("golden_digests.json")
GRID_SEEDS = (0, 7)
REACH_SEEDS = (0, 3)
REACH_CONFIG = dict(population_size=30, generations=10, bits_per_dimension=9)
# one PointReach seed at the paper's defaults: 1000 generations
PAPER_DIGESTS = Path(__file__).with_name("paper_scale_digests.json")
PAPER_CASE = "PointReach/seed_0/paper"
PAPER_CONFIG = dict(population_size=30, generations=1000, bits_per_dimension=9, seed=0)


def golden_cases(flat_policy, holey_policy, reach_policy):
    """(case name, env spec, policy, config) for every pinned bundle."""
    flat, holey, reach = preset("FlatGrid11"), preset("HoleyGrid11"), preset("PointReach")
    cases = []
    for seed in GRID_SEEDS:
        cases.append((f"FlatGrid11/seed_{seed}", flat, flat_policy, EvolutionConfig(seed=seed)))
        cases.append((f"HoleyGrid11/seed_{seed}", holey, holey_policy, EvolutionConfig(seed=seed)))
    for seed in REACH_SEEDS:
        config = EvolutionConfig(**REACH_CONFIG, seed=seed)
        cases.append((f"PointReach/seed_{seed}", reach, reach_policy, config))
    return cases


def bundle_digests(cases, directory: Path) -> dict[str, dict[str, str]]:
    digests = {}
    for name, spec, policy, config in cases:
        out = directory / name
        export_bundle(run(spec, policy, config), out, {"case": name})
        digests[name] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
        }
    return digests


def paper_cases(reach_policy):
    return [(PAPER_CASE, preset("PointReach"), reach_policy, EvolutionConfig(**PAPER_CONFIG))]


def test_bundles_match_golden_digests(
    tmp_path, well_trained_policy, just_converged_holey_policy, reach_controller
):
    cases = golden_cases(well_trained_policy, just_converged_holey_policy, reach_controller)
    _assert_digests(DIGESTS, bundle_digests(cases, tmp_path))


def test_paper_scale_bundle_matches_digests(tmp_path, reach_controller):
    _assert_digests(PAPER_DIGESTS, bundle_digests(paper_cases(reach_controller), tmp_path))


def _assert_digests(path: Path, actual: dict[str, dict[str, str]]) -> None:
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(actual) == sorted(golden["bundles"])
    differing = [
        f"{name}/{file}"
        for name, files in sorted(golden["bundles"].items())
        for file in sorted(set(files) | set(actual[name]))
        if files.get(file) != actual[name].get(file)
    ]
    assert not differing, (
        f"bundle files differ from the golden digests (recorded under numpy "
        f"{golden['numpy']}, running numpy {np.__version__}): {differing}"
    )


def _record() -> None:
    from conftest import earliest_successful_checkpoint

    flat, holey, reach = preset("FlatGrid11"), preset("HoleyGrid11"), preset("PointReach")
    flat_policy = train_q_learning(flat, 100_000, seed=0).policy
    trained = train_q_learning(
        holey, 20_000, seed=0, checkpoint_steps=tuple(range(1000, 21_000, 1000))
    )
    _, holey_policy = earliest_successful_checkpoint(holey, trained)
    reach_policy = GaussianControllerPolicy(step_size=reach.step_size)
    recordings = (
        (DIGESTS, golden_cases(flat_policy, holey_policy, reach_policy)),
        (PAPER_DIGESTS, paper_cases(reach_policy)),
    )
    for path, cases in recordings:
        with tempfile.TemporaryDirectory() as directory:
            bundles = bundle_digests(cases, Path(directory))
        payload = {"numpy": np.__version__, "python": sys.version.split()[0], "bundles": bundles}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {sum(map(len, bundles.values()))} digests to {path}")


if __name__ == "__main__":
    _record()
