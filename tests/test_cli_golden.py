"""Golden sha256 digests of every file the CLI writes for the shipped configs.

``test_golden.py`` pins bundles exported by library calls with their own
config snapshot.  This test pins what only the CLI builds: the per-bundle
``config.json``, the parent ``manifest.json``, the sweep-cell directory
layout, the trained policy files and the comparison report.

The digests live in ``cli_digests.json`` next to this file.  To re-record them
after a deliberate change of output, run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from evodemo.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.json")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# (command, config file or None, output directory); the report reads the two
# FlatGrid11 runs before it
CLI_RUNS = (
    ("train", "train_flatgrid11.yaml", "train"),
    ("evolve", "flatgrid11.yaml", "flat_evolve"),
    ("baseline", "flatgrid11.yaml", "flat_baseline"),
    ("evolve", "holeygrid11.yaml", "holey_evolve"),
    ("sweep", "sweep_example.yaml", "sweep"),
    ("report", None, "flat_report"),
)


def run_cli() -> None:
    """Run every command of ``CLI_RUNS`` in the current directory with seed 0."""
    for command, config, out in CLI_RUNS:
        if config is None:
            argv = [command, "--search", "flat_evolve/seed_0",
                    "--baseline", "flat_baseline/seed_0", "--out", out]
        else:
            argv = [command, str(CONFIGS / config), "--seed", "0", "--out", out]
        assert main(argv) == 0, argv


def written_digests(directory: Path) -> dict[str, str]:
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli()
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))["files"]
    actual = written_digests(tmp_path)
    assert sorted(actual) == sorted(golden)
    differing = [name for name in sorted(golden) if golden[name] != actual[name]]
    assert not differing, f"CLI outputs differ from the golden digests: {differing}"


def _record() -> None:
    import numpy as np

    with tempfile.TemporaryDirectory() as directory:
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            run_cli()
        finally:
            os.chdir(cwd)
        files = written_digests(Path(directory))
    payload = {"numpy": np.__version__, "python": sys.version.split()[0], "files": files}
    DIGESTS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(files)} digests to {DIGESTS}")


if __name__ == "__main__":
    _record()
