"""Batch entry point: experiment configuration, execution, result emission.

Results are written as a deterministic results.jsonl (byte-identical given
the same config and seed), a summary.csv with the fixed column set, and a
metadata.json holding timestamps and per-row runtimes (excluded from the
determinism contract).

Each battery subcommand accepts `--config`, `--out` and only the settings
its runner reads, on the command line and in a config alike.

Exit codes: 0 all asserted bounds satisfied, 1 any violation, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from .experiments import (
    CSV_COLUMNS,
    run_collision_battery,
    run_commutator_battery,
    run_early_extraction_battery,
    run_equivalence_battery,
    run_fo_battery,
    run_grover_battery,
    run_interfaces_battery,
    run_sigma_battery,
    run_sweep,
)
from .properties import theorem2_property_suite


class ConfigError(ValueError):
    pass


def _json_default(value):
    import numpy as np

    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, frozenset):
        return sorted(value)
    return str(value)


def write_outputs(rows, runtimes, out_dir: Path, meta: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, default=_json_default) + "\n")
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row, ms in zip(rows, runtimes):
            rec = {k: row.get(k, "") for k in CSV_COLUMNS}
            rec["runtime_ms"] = f"{ms:.3f}"
            writer.writerow(rec)
    meta = dict(meta)
    meta["runtimes_ms"] = [round(ms, 3) for ms in runtimes]
    with open(out_dir / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True, default=_json_default)


# Every battery setting with its one default and its one check: a least
# value for a count or a seed, or the choices.
SETTINGS = {
    "seed": dict(type=int, default=0, least=0),
    "relations": dict(type=int, default=40, least=0,
                      help="random relations in the commutator sweep"),
    "trials": dict(type=int, default=1000, least=1),
    "backend": dict(type=str, choices=["dense", "sparse"], default="dense"),
}

# subcommand -> (the settings its runner reads, the runner, called with them)
BATTERIES = {
    "verify-commutator": (("seed", "relations"), lambda seed, relations:
                          run_commutator_battery(seed, relations)),
    "verify-theorem2": ((), theorem2_property_suite),
    "grover": ((), run_grover_battery),
    "collision": ((), run_collision_battery),
    "interfaces": ((), lambda: run_interfaces_battery() + run_early_extraction_battery()),
    "sigma": (("seed", "trials"), run_sigma_battery),
    "fo": (("seed", "trials"), run_fo_battery),
    "equivalence": (("backend",), run_equivalence_battery),
    "sweep": (("seed",), run_sweep),
}


def list_fixtures_command(args) -> int:
    from .fixtures import list_fixtures

    rows = list_fixtures(kind=args.kind)
    for name, kind in rows:
        print(f"{kind:10s} {name}")
    return 0


def load_config(path: str, command: str) -> dict:
    """The settings a config file gives battery `command`: `out`, and only
    settings the battery reads, at the top level or under `params` (the top
    level wins).  main checks their values with _checked, as it checks the
    command line's."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict) or "experiment" not in cfg:
        raise ConfigError("config must be an object with an 'experiment' field")
    if cfg["experiment"] != command:
        raise ConfigError(f"config names experiment {cfg['experiment']!r}, "
                          f"not {command!r}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config 'params' must be an object")
    top = {k: v for k, v in cfg.items() if k not in ("experiment", "out", "params")}
    reads = BATTERIES[command][0]
    for key in [*top, *params]:
        if key not in reads:
            raise ConfigError(f"{command} reads no setting {key!r}")
    settings = {**params, **top}
    if "out" in cfg:
        if not isinstance(cfg["out"], str):
            raise ConfigError("config 'out' must be a string")
        settings["out"] = cfg["out"]
    return settings


def _checked(name: str, value):
    """value, if it has the setting's type and passes its check."""
    spec = SETTINGS[name]
    if type(value) is not spec["type"]:
        raise ConfigError(f"{name} must be a JSON {spec['type'].__name__}, not {value!r}")
    if "choices" in spec and value not in spec["choices"]:
        raise ConfigError(f"{name} must be one of {spec['choices']}, not {value!r}")
    if "least" in spec and value < spec["least"]:
        raise ConfigError(f"{name} must be at least {spec['least']}, not {value!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrolab",
        description="compressed-oracle extraction: bound verification and games",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (reads, _) in BATTERIES.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file overriding flags")
        p.add_argument("--out", default="qrolab-out")
        for setting in reads:
            spec = {k: v for k, v in SETTINGS[setting].items() if k != "least"}
            p.add_argument(f"--{setting}", **spec)
    lf = sub.add_parser("list-fixtures")
    lf.add_argument("--kind", default=None,
                    help="filter by fixture type (relation, commit, sigma, "
                         "pke, circuit)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list-fixtures":
        return list_fixtures_command(args)
    reads, runner = BATTERIES[args.command]
    try:
        if args.config:
            for key, val in load_config(args.config, args.command).items():
                setattr(args, key, val)
        settings = {name: _checked(name, getattr(args, name)) for name in reads}
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    start = time.time()
    reports = runner(**settings)
    rows = [rep.row() for rep in reports]
    runtimes = [float(rep.runtime_ms) for rep in reports]
    n_bad = sum(not rep.satisfied for rep in reports)
    meta = {
        "command": args.command,
        **settings,
        "started_unix": start,
        "elapsed_s": round(time.time() - start, 3),
    }
    write_outputs(rows, runtimes, Path(args.out), meta)
    print(f"{args.command}: {len(rows)} rows, {n_bad} violations -> {args.out}/")
    return 0 if n_bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
