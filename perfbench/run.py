"""qrolab benchmark: run workloads in child processes, print metrics, gate outputs.

    python3 perfbench/run.py                                   # all four, untraced
    python3 perfbench/run.py --workload sigma-extract --seed 3
    python3 perfbench/run.py --workload game-tree --trace 1    # per-layer metrics

Each workload runs in its own child process (worker.py), so peak_rss_mb is
that workload's alone and a killed child fails only its own units.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import RUN_SECONDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("commutator-sweep", "sigma-extract", "game-tree", "sparse-map")
BLAS_THREADS = 1  # pinned in every child; ROADMAP measured BLAS threads as a slowdown here
SETUPS = 3        # setup_s is the median over this many child set-ups
DEADLINE_S = 170  # one invocation per workload must end within 180 s

END_TO_END = (("setup_s", "s"), ("units_per_s", "1/s"), ("unit_ms_p50", "ms"),
              ("unit_ms_p90", "ms"), ("peak_rss_mb", "MiB"))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion; returns its plan, result, exit code and RSS."""
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args, "--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    finally:
        killer.cancel()
        proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = {"code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
             "plan": None, "result": None}
    for line in out.splitlines():
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(msg, dict):
            child.update((k, v) for k, v in msg.items() if k in ("plan", "result"))
    return child


def child_outcome(child: dict) -> tuple[int, int, list]:
    """(attempted, failed, errors); a child without a result failed every unit."""
    res = child["result"]
    if child["code"] == 0 and res is not None:
        return res["attempted"], res["failed"], res["errors"]
    planned = (child["plan"] or {}).get("planned_units") or 1
    return planned, planned, [f"child exited with code {child['code']} and no result"]


def measure(workload: str, seed: int) -> dict:
    """Untraced run: end-to-end metrics of one workload."""
    t_end = time.perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    main_child = run_child(base, t_end - time.perf_counter())
    attempted, failed, errors = child_outcome(main_child)
    setups = [main_child["plan"]["setup_s"]] if main_child["plan"] else []
    for _ in range(SETUPS - 1):
        extra = run_child(base + ["--setup-only"], t_end - time.perf_counter())
        if extra["plan"]:
            setups.append(extra["plan"]["setup_s"])
    res = main_child["result"] or {}
    metrics = {
        "setup_s": statistics.median(setups) if setups else None,
        "units_per_s": res.get("units_per_s"),
        "unit_ms_p50": res.get("unit_ms_p50"),
        "unit_ms_p90": res.get("unit_ms_p90"),
        "peak_rss_mb": main_child["rss_mb"],
    }
    return {"workload": workload, "attempted": attempted, "failed": failed,
            "errors": errors, "metrics": metrics, "result": res,
            "units": dict(END_TO_END)}


def measure_traced(workload: str, seed: int) -> dict:
    """The workload's minimum number of passes, untraced and then traced:
    per-layer metrics and the tracing overhead."""
    from layers import PER_LAYER

    t_end = time.perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    plain = run_child(base + ["--exact-passes"], t_end - time.perf_counter())
    spans = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.npz"
    traced = run_child(base + ["--trace", "1", "--spans-out", str(spans)],
                       t_end - time.perf_counter())
    (a1, f1, e1), (a2, f2, e2) = child_outcome(plain), child_outcome(traced)
    attempted, failed, errors = a1 + a2, f1 + f2, e1 + e2
    layers = dict((traced["result"] or {}).get("layers", {}))
    if plain["result"] and traced["result"]:
        layers["trace.overhead_frac"] = (plain["result"]["units_per_s"]
                                        / traced["result"]["units_per_s"] - 1.0)
    metrics = {name: layers.get(name) for name, _, _ in PER_LAYER}
    unpatched = (traced["result"] or {}).get("unpatched", [])
    if unpatched:
        errors.append(f"bindings left unwrapped: {unpatched}")
    return {"workload": workload, "attempted": attempted, "failed": failed,
            "errors": errors, "metrics": metrics, "result": traced["result"] or {},
            "units": {name: unit for name, unit, _ in PER_LAYER}, "spans": str(spans)}


def report(run: dict) -> bool:
    """Print one workload's metrics; True when its outputs are all correct."""
    res = run["result"]
    correct = run["failed"] == 0 and not run["errors"] and \
        all(v is not None for v in run["metrics"].values())
    print(f"== {run['workload']}: {'correct' if correct else 'INCORRECT'}")
    for name, value in run["metrics"].items():
        print(f"  {name:52s} {value!r:>24} {run['units'][name]}")
    print(f"  {'ops_failed_frac':52s} {run['failed'] / run['attempted']!r:>24} ratio"
          f"  ({run['failed']} of {run['attempted']} units)")
    if "unit_ms_p90" in run["metrics"]:
        print(f"  samples for p50/p90: {res.get('samples')} units in {res.get('passes')} "
              f"passes; by kind (wall ms): {json.dumps(res.get('kinds'))}")
        print(f"  wall clock, not speed-adjusted: setup_s {res.get('wall_setup_s')!r}"
              f", units_per_s {res.get('wall_units_per_s')!r}"
              f", unit_ms_p50 {res.get('wall_unit_ms_p50')!r}"
              f", unit_ms_p90 {res.get('wall_unit_ms_p90')!r}"
              f"; speed probe median {res.get('probe_ms_median')!r} ms"
              f" (reference {res.get('probe_ref_ms')!r} ms)")
    for err in run["errors"]:
        print(f"  error: {err}")
    print(f"  env: {json.dumps(environment(res))}")
    return correct


def environment(res: dict) -> dict:
    env = dict(res.get("env") or {})
    env["blas_threads_pinned"] = BLAS_THREADS
    env["commit"] = git_commit()
    env["src_sha256"] = source_digest()
    return env


def source_digest() -> str:
    """sha256 over src/qrolab's files, which identifies the code when git cannot."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qrolab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, choices=(RUN_SECONDS,), default=RUN_SECONDS,
                   help="the run length, which the benchmark fixes; no other value is accepted")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qrolab" / "__init__.py").is_file():
        print(f"no qrolab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        if args.workload == "all" or not args.trace:
            runs.append(measure(name, args.seed))
        if args.trace:
            runs.append(measure_traced(name, args.seed))
    correct = all([report(run) for run in runs])
    prefix = args.workload == "all"
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {(f"{r['workload']}/{k}" if prefix else k): {"value": v, "unit": r["units"][k]}
                    for r in runs for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
