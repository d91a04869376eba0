import importlib
import pkgutil
import re
from pathlib import Path

import evodemo

README = Path(__file__).resolve().parent.parent / "README.md"

# `Name.member` at the start of an inline code span
DOTTED = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)")
FILE_SUFFIXES = frozenset(("csv", "json", "map", "md", "py", "yaml"))
# the names a README may qualify: the package, its modules and its exports
OWNERS = {name: getattr(evodemo, name) for name in evodemo.__all__}
OWNERS.update((info.name, importlib.import_module(f"evodemo.{info.name}"))
              for info in pkgutil.iter_modules(evodemo.__path__))
OWNERS["evodemo"] = evodemo


def unresolved_names(text: str) -> list[str]:
    """Each backticked ``Name.member`` of ``text`` that ``getattr`` does not find on
    ``OWNERS[Name]``.  File names (``report.json``) and names from outside the
    package (``rng.integers``) are skipped."""
    return [
        f"{name}.{member}" for name, member in DOTTED.findall(text)
        if name in OWNERS and member not in FILE_SUFFIXES and not hasattr(OWNERS[name], member)
    ]


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "out" / "holey_seed3" / "manifest.json").is_file()
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 10  # one line per individual of the default population


def test_every_package_name_in_the_readme_exists():
    assert unresolved_names(README.read_text(encoding="utf-8")) == []


def test_the_name_check_finds_a_deleted_method():
    text = ("`GaussianControllerPolicy.mean_action` and `policy.TabularPolicy` and "
            "`evolution.make_offspring`, `errors.is_index`, `evodemo.nothing`; skipped: "
            "`rng.integers(4)`, `generations.csv`, `environments.py`, `np.add.reduceat`")
    assert unresolved_names(text) == [
        "GaussianControllerPolicy.mean_action", "errors.is_index", "evodemo.nothing",
    ]
