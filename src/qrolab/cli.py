"""Batch entry point: experiment configuration, execution, result emission.

Results are written as a deterministic results.jsonl (byte-identical given
the same config and seed), a summary.csv with the fixed column set, and a
metadata.json holding timestamps and per-row runtimes (excluded from the
determinism contract).

Exit codes: 0 all asserted bounds satisfied, 1 any violation, 2 config error.
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


BATTERIES = {
    "verify-commutator": lambda a: run_commutator_battery(
        seed=a.seed, random_count=a.relations, bound_scale=a.bound_scale),
    "verify-theorem2": lambda a: _theorem2(a),
    "grover": lambda a: run_grover_battery(),
    "collision": lambda a: run_collision_battery(),
    "interfaces": lambda a: run_interfaces_battery() + run_early_extraction_battery(),
    "sigma": lambda a: run_sigma_battery(seed=a.seed, trials=a.trials),
    "fo": lambda a: run_fo_battery(seed=a.seed, trials=a.trials),
    "equivalence": lambda a: run_equivalence_battery(backend=a.backend),
    "sweep": lambda a: run_sweep(seed=a.seed),
}


def _theorem2(args):
    from .properties import theorem2_property_suite

    return theorem2_property_suite()


def list_fixtures_command(args) -> int:
    from .fixtures import list_fixtures

    rows = list_fixtures(kind=args.kind)
    for name, kind in rows:
        print(f"{kind:10s} {name}")
    return 0


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict) or "experiment" not in cfg:
        raise ConfigError("config must be an object with an 'experiment' field")
    if cfg["experiment"] not in BATTERIES:
        raise ConfigError(f"unknown experiment {cfg['experiment']!r}")
    if not isinstance(cfg.get("params", {}), dict):
        raise ConfigError("config 'params' must be an object")
    for name in cfg.get("fixtures", []):
        from .fixtures import fixture_names

        if name not in fixture_names():
            raise ConfigError(f"config references missing fixture {name!r}")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrolab",
        description="compressed-oracle extraction: bound verification and games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file overriding flags")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--backend", choices=["dense", "sparse"], default="dense")
        p.add_argument("--out", default="qrolab-out")
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--relations", type=int, default=40,
                       help="random relations in the commutator sweep")
        p.add_argument("--bound-scale", type=float, default=1.0,
                       help="test hook: scales every bound (wrong constants "
                            "must fail)")

    for name in BATTERIES:
        common(sub.add_parser(name))
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
    try:
        if args.config:
            cfg = load_config(args.config)
            args.command = cfg["experiment"]
            for key, val in cfg.get("params", {}).items():
                attr = key.replace("-", "_")
                if attr in ("command", "config") or not hasattr(args, attr):
                    raise ConfigError(f"unknown param {key!r}")
                setattr(args, attr, val)
            if "seed" in cfg:
                args.seed = int(cfg["seed"])
            if "backend" in cfg:
                args.backend = cfg["backend"]
            if "out" in cfg:
                args.out = cfg["out"]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    start = time.time()
    reports = BATTERIES[args.command](args)
    rows = [rep.row() for rep in reports]
    runtimes = [float(rep.runtime_ms) for rep in reports]
    n_bad = sum(not rep.satisfied for rep in reports)
    meta = {
        "command": args.command,
        "seed": args.seed,
        "started_unix": start,
        "elapsed_s": round(time.time() - start, 3),
    }
    write_outputs(rows, runtimes, Path(args.out), meta)
    print(f"{args.command}: {len(rows)} rows, {n_bad} violations -> {args.out}/")
    return 0 if n_bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
