"""Command-line entry point.

Commands read a YAML (or JSON) config file; only the seed list and the output
directory can be overridden on the command line (for ``train``, ``--seed`` sets
the training seed).  Exit codes: 0 success, 1 configuration error, 2 runtime
error.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import yaml

from . import evolution, report, rollout
from .environments import (
    KIND_CONTROLLER,
    KIND_TABULAR,
    PRESET_NAMES,
    EnvSpec,
    load_layout,
    preset,
)
from .errors import ConfigurationError, ContractViolationError, is_int
from .evolution import EvolutionConfig
from .policy import (
    CONTROLLER_PARAMETERS,
    GaussianControllerPolicy,
    Policy,
    load_policy,
    save_policy,
    train_q_learning,
)

# train_q_learning's keyword parameters and defaults, but for 'checkpoint_steps',
# which a config lists as 'checkpoints'
_TRAINER_DEFAULTS = {
    name: parameter.default
    for name, parameter in inspect.signature(train_q_learning).parameters.items()
    if parameter.kind is parameter.KEYWORD_ONLY and name != "checkpoint_steps"
}
_TRAIN_KEYS = {"steps", "checkpoints", *_TRAINER_DEFAULTS}
# the seed comes from the seed list, the bit width from 'encoding:'
_EVOLUTION_KEYS = {field.name for field in fields(EvolutionConfig)} - {"seed", "bits_per_dimension"}
_SWEEPABLE_KEYS = _EVOLUTION_KEYS | {"bits_per_dimension"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are configuration errors, not crashes
        raise ConfigurationError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="evodemo", description=__doc__)
    commands = parser.add_subparsers(required=True, metavar="command")

    train = commands.add_parser("train", help="train a tabular policy on a grid layout")
    _add_config_arguments(train)
    train.set_defaults(func=cmd_train)

    evolve = commands.add_parser("evolve", help="run the demonstration search, one bundle per seed")
    _add_config_arguments(evolve)
    evolve.set_defaults(func=cmd_evolve)

    base = commands.add_parser("baseline", help="evaluate only the random initial populations")
    _add_config_arguments(base)
    base.set_defaults(func=cmd_baseline)

    rep = commands.add_parser("report", help="aggregate result bundles into one comparison")
    rep.add_argument("--search", nargs="+", default=[], metavar="DIR", help="search bundles")
    rep.add_argument("--baseline", nargs="+", default=[], metavar="DIR", help="baseline bundles")
    rep.add_argument("--out", required=True, metavar="DIR")
    rep.set_defaults(func=cmd_report)

    sweep = commands.add_parser("sweep", help="run the search over a parameter grid")
    _add_config_arguments(sweep)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="YAML or JSON config file")
    parser.add_argument("--out", default=None, help="override the config's output directory")
    parser.add_argument(
        "--seed",
        type=int,
        action="append",
        default=None,
        help="override the config's seed list (repeatable); for train, the training seed",
    )


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    config, base_dir = _load_config_file(args.config)
    _check_keys(config, {"environment", "training", "output"}, "config")
    env_name, env_spec = _build_env(config, base_dir)
    training = _training_section(config.get("training"), _TRAIN_KEYS, seed_override=args.seed)
    out = _output_dir(config, args)

    result = _train(env_spec, training)
    steps = training["steps"]
    out.mkdir(parents=True, exist_ok=True)
    file_steps = sorted(set(training["checkpoints"]) | {steps})
    for step in file_steps:
        policy = result.checkpoints.get(step, result.policy)
        save_policy(policy, out / f"policy_{step}.json")
        print(f"[train] wrote {out / f'policy_{step}.json'}")

    sanity = rollout.generate(env_spec, result.policy, env_spec.canonical_start)
    print(
        f"[train] {env_name}: final policy from canonical start: outcome={sanity.outcome} "
        f"return={sanity.episode_return} length={sanity.final_length}"
    )
    return 0


def cmd_evolve(args) -> int:
    return _run_search(args, "evolve")


def cmd_baseline(args) -> int:
    return _run_search(args, "baseline")


def cmd_report(args) -> int:
    if not args.search and not args.baseline:
        raise ConfigurationError("report needs at least one --search or --baseline bundle")
    _check_makeable(Path(args.out), "output directory")  # before any bundle is read
    written = report.write_comparison_report(args.search, args.baseline, args.out)
    for path in written:
        print(f"[report] wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    return _run_search(args, "sweep")


def _run_search(args, command: str) -> int:
    """Plan every search ``command`` asks for, then run and export them in turn.

    ``evolve`` and ``baseline`` are a sweep of the single empty cell: their
    bundles go into the output directory itself, next to a run manifest.
    ``sweep`` writes ``out/<cell>/seed_<n>``.  Every cell and seed, the
    output path and every bundle path are checked, and each cell's genome
    encoding built, before the first search runs or any directory is made.
    """
    config, base_dir = _load_config_file(args.config)
    sweeping = command == "sweep"
    allowed = {"environment", "policy", "evolution", "encoding", "seeds", "output"}
    _check_keys(config, allowed | {"sweep"} if sweeping else allowed, "config")
    cells = _sweep_cells(config.get("sweep")) if sweeping else [{}]
    if not cells:
        print("[sweep] empty parameter grid, nothing to run")
        return 0
    cell_names = [
        "__".join(f"{key}={_cell_value(value)}" for key, value in cell.items()) for cell in cells
    ]
    _require_distinct(cell_names, "sweep cell")

    env_name, env_spec = _build_env(config, base_dir)
    base_config = _evolution_config(config, env_spec)
    seeds = _seed_list(config, args)
    out = _output_dir(config, args)
    jobs = []
    for cell, cell_name in zip(cells, cell_names):
        try:
            cell_config = replace(base_config, **cell)
            env_spec.encoding_spec(cell_config.bits_per_dimension)
        except ConfigurationError as exc:
            if not cell:
                raise
            raise ConfigurationError(f"invalid sweep cell {cell_name}: {exc}") from exc
        # a bad seed is reported as itself, not as a fault of the cell
        jobs += [(cell, out / cell_name / f"seed_{seed}", replace(cell_config, seed=seed))
                 for seed in seeds]
    for _, bundle, _ in jobs:
        _check_makeable(bundle, "bundle directory")

    policy, policy_snapshot = _resolve_policy(config.get("policy"), env_spec, base_dir)
    mode = "baseline" if command == "baseline" else "evolve"
    snapshot = {"environment": env_name, "policy": policy_snapshot, "seeds": seeds,
                "output": str(out), "mode": mode}
    bundles = [
        _export_seed(env_spec, policy, seeded, bundle, mode,
                     {**snapshot, "sweep_cell": dict(cell)} if sweeping else snapshot)
        for cell, bundle, seeded in jobs
    ]
    if not sweeping:
        report.write_run_manifest(out, mode, env_name, seeds, bundles)
    return 0


def _export_seed(env_spec: EnvSpec, policy: Policy, seeded: EvolutionConfig, bundle: Path,
                 mode: str, snapshot: dict) -> str:
    """Run one search and export it to ``bundle``; returns the bundle name.

    The bundle's ``config.json`` is ``snapshot`` plus the seed and the search
    settings, with the genome's bit width under ``encoding``.
    """
    search = evolution.baseline if mode == "baseline" else evolution.run
    try:
        result = search(env_spec, policy, seeded)
    except ConfigurationError as exc:  # e.g. no valid start to sample: name the environment
        raise ConfigurationError(f"{snapshot['environment']}: {exc}") from exc
    settings = asdict(seeded)
    seed = settings.pop("seed")
    encoding = {"bits_per_dimension": settings.pop("bits_per_dimension")}
    config_json = {**snapshot, "evolution": settings, "encoding": encoding, "seed": seed}
    report.export_bundle(result, bundle, config_json, mode=mode)
    print(
        f"[{mode}] seed {seed}: {len(result.population)} demonstrations, "
        f"best joint fitness {result.population[0].fitness.joint:.4f} -> {bundle}"
    )
    return bundle.name


# ---------------------------------------------------------------------------
# config plumbing


def _load_config_file(path: str) -> tuple[dict, Path]:
    config_path = Path(path)
    if not config_path.is_file():
        raise ConfigurationError(f"config file not found: {config_path}")
    try:
        data = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{config_path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{config_path}: config must be a key/value mapping")
    return data, config_path.parent


def _check_keys(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown {context} keys: {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _build_env(config: dict, base_dir: Path) -> tuple[str, EnvSpec]:
    name = config.get("environment")
    if not isinstance(name, str) or not name:
        raise ConfigurationError("config needs an 'environment' (preset name or layout path)")
    if name in PRESET_NAMES:
        return name, preset(name)
    if name.endswith(".map"):
        return name, load_layout((base_dir / name) if not Path(name).is_absolute() else name)
    raise ConfigurationError(
        f"unknown environment {name!r}; use one of {', '.join(PRESET_NAMES)} or a .map layout path"
    )


def _output_dir(config: dict, args) -> Path:
    out = args.out if args.out is not None else config.get("output")
    if not out:
        raise ConfigurationError("an output directory is required (config 'output' or --out)")
    if not isinstance(out, str):
        raise ConfigurationError(f"'output' must be a directory path, got {out!r}")
    out = Path(out)
    _check_makeable(out, "output directory")
    return out


def _check_makeable(path: Path, what: str) -> None:
    """Refuse ``path`` unless the nearest part of it that exists, where its
    directories would be made, is a directory."""
    existing = next(part for part in (path, *path.parents) if part.exists())
    if not existing.is_dir():
        raise ConfigurationError(f"{what} {path} cannot be made: {existing} is not a directory")


def _seed_list(config: dict, args) -> list[int]:
    seeds = args.seed if args.seed is not None else config.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(is_int(s) for s in seeds):
        raise ConfigurationError("'seeds' must be a non-empty list of integers")
    _require_distinct(seeds, "seed")
    return seeds


def _require_distinct(names: list, what: str) -> None:
    """Refuse a repeated seed or sweep cell, which would run again into the same directory."""
    for index, name in enumerate(names):
        if name in names[:index]:
            raise ConfigurationError(
                f"{what} {name} is listed twice; each {what} writes its own directory"
            )


def _training_section(section, keys: set[str], seed_override=None) -> dict:
    """A ``training`` mapping with ``keys`` allowed, completed with the defaults;
    the trainer checks the values."""
    if not isinstance(section, dict):
        raise ConfigurationError("config needs a 'training' mapping")
    _check_keys(section, keys, "training")
    if "steps" not in section:
        raise ConfigurationError("training needs 'steps'")
    resolved = {**_TRAINER_DEFAULTS, "checkpoints": [], **section}
    if seed_override:  # train's --seed flags
        if len(seed_override) > 1:
            raise ConfigurationError(f"train takes at most one --seed, got {seed_override}")
        resolved["seed"] = seed_override[0]
    if not isinstance(resolved["checkpoints"], list):
        raise ConfigurationError("training 'checkpoints' must be a list of step counts")
    return resolved


def _train(env_spec: EnvSpec, training: dict):
    if env_spec.policy_kind != KIND_TABULAR:
        raise ConfigurationError(
            f"training makes {KIND_TABULAR} policies, but this environment needs a "
            f"{env_spec.policy_kind} policy"
        )
    try:
        return train_q_learning(
            env_spec,
            training["steps"],
            **{name: training[name] for name in _TRAINER_DEFAULTS},
            checkpoint_steps=tuple(training["checkpoints"]),
        )
    except ContractViolationError as exc:
        raise ConfigurationError(f"invalid training parameters: {exc}") from exc


def _resolve_policy(section, env_spec: EnvSpec, base_dir: Path) -> tuple[Policy, dict]:
    """Build the fixed policy under analysis and a snapshot for config.json."""
    if isinstance(section, str):
        section = {"path": section}
    if not isinstance(section, dict) or len(section) != 1:
        raise ConfigurationError(
            "config needs a 'policy': a file path, or one of "
            "{path: ...}, {train: {...}}, {gaussian_controller: {...}}"
        )
    key, value = next(iter(section.items()))
    if key == "path":
        if not isinstance(value, str):
            raise ConfigurationError(f"the policy path must be a file path, got {value!r}")
        path = Path(value)
        if not path.is_absolute():
            path = base_dir / path
        policy = load_policy(path)
        try:
            env_spec.check_policy(policy)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from exc
        return policy, {"path": str(path)}
    if key == "train":
        # a policy trained for the search also takes the rule that picks its snapshot
        training = {"select": "final", **_training_section(value, _TRAIN_KEYS | {"select"})}
        if training["select"] not in ("final", "earliest_success"):
            raise ConfigurationError("training 'select' must be 'final' or 'earliest_success'")
        if training["select"] == "earliest_success" and not training["checkpoints"]:
            raise ConfigurationError("'earliest_success' needs a non-empty 'checkpoints' list")
        result = _train(env_spec, training)
        policy, selected = _select_policy(result, training, env_spec)
        snapshot = dict(training)
        snapshot["selected_step"] = selected
        return policy, {"train": snapshot}
    if key == "gaussian_controller":
        if env_spec.policy_kind != KIND_CONTROLLER:
            raise ConfigurationError("'gaussian_controller' needs the PointReach environment")
        if not isinstance(value, dict):
            raise ConfigurationError("'gaussian_controller' must be a mapping")
        _check_keys(value, set(CONTROLLER_PARAMETERS), "gaussian_controller")
        kwargs = {"step_size": env_spec.step_size}
        kwargs.update(value)
        try:
            policy = GaussianControllerPolicy(**kwargs)
        except ContractViolationError as exc:
            raise ConfigurationError(f"invalid controller parameters: {exc}") from exc
        return policy, {"gaussian_controller": dict(kwargs)}
    raise ConfigurationError(f"unknown policy kind {key!r}")


def _select_policy(result, training: dict, env_spec: EnvSpec):
    """Apply the training 'select' rule; returns (policy, selected step)."""
    if training["select"] == "final":
        return result.policy, training["steps"]
    for step in sorted(result.checkpoints):
        candidate = result.checkpoints[step]
        sanity = rollout.generate(env_spec, candidate, env_spec.canonical_start)
        if sanity.outcome == rollout.OUTCOME_REACHED:
            return candidate, step
    raise ConfigurationError(
        "no checkpoint policy reaches the target from the canonical start; "
        "train longer or add later checkpoints"
    )


def _evolution_config(config: dict, env_spec: EnvSpec) -> EvolutionConfig:
    section = config.get("evolution", {}) or {}
    if not isinstance(section, dict):
        raise ConfigurationError("'evolution' must be a mapping")
    _check_keys(section, _EVOLUTION_KEYS, "evolution")
    encoding_section = config.get("encoding", {}) or {}
    if not isinstance(encoding_section, dict):
        raise ConfigurationError("'encoding' must be a mapping")
    _check_keys(encoding_section, {"bits_per_dimension"}, "encoding")

    # settings neither the config nor the environment gives keep EvolutionConfig's defaults
    values = {**env_spec.search_defaults, **section}
    if "bits_per_dimension" in encoding_section:
        values["bits_per_dimension"] = encoding_section["bits_per_dimension"]
    return EvolutionConfig(**values)


def _sweep_cells(grid) -> list[dict]:
    """Cartesian product over the axes of a config's ``sweep`` mapping.

    A key may name several comma-separated parameters whose values are given
    as tuples, e.g. ``crossover_probability,mutation_probability: [[0.9, 0.25], ...]``.
    """
    if grid is None:
        raise ConfigurationError("sweep config needs a 'sweep' mapping")
    if not isinstance(grid, dict):
        raise ConfigurationError("'sweep' must map parameter names to value lists")
    if not grid:
        return []
    axes: list[list[dict]] = []
    for key, values in grid.items():
        names = [part.strip() for part in str(key).split(",")]
        unknown = set(names) - _SWEEPABLE_KEYS
        if unknown:
            raise ConfigurationError(
                f"cannot sweep over {sorted(unknown)}; sweepable: {sorted(_SWEEPABLE_KEYS)}"
            )
        if not isinstance(values, list) or not values:
            raise ConfigurationError(f"sweep axis {key!r} needs a non-empty value list")
        points = [[value] for value in values] if len(names) == 1 else values
        for point in points:
            if not isinstance(point, list) or len(point) != len(names):
                raise ConfigurationError(
                    f"sweep axis {key!r} needs {len(names)}-element value tuples"
                )
        axes.append([dict(zip(names, point)) for point in points])
    return [
        {name: value for point in combo for name, value in point.items()}
        for combo in itertools.product(*axes)
    ]


def _cell_value(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


if __name__ == "__main__":
    raise SystemExit(main())
