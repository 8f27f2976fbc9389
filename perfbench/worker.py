"""One workload in one process: set up, warm up, time whole passes, gate.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Prints
a "plan" line when set-up ends and a "result" line at the end, both JSON on
stdout; run.py reads them.  With --trace the public qrolab functions are
wrapped (spans.py) before the warm-up, and the worker times exactly the
workload's minimum number of passes.

    python3 perfbench/worker.py --workload game-tree --seed 0
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (needs HERE on sys.path)
from spans import Tracer  # noqa: E402
MIN_UNITS = 100
RUN_SECONDS = 10  # BENCHMARK.json's run_seconds; run.py accepts no other


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--exact-passes", action="store_true",
                   help="time exactly the workload's minimum number of passes")
    p.add_argument("--smoke", action="store_true",
                   help="one unit per kind (binding-site test)")
    p.add_argument("--setup-only", action="store_true",
                   help="exit after set-up, reporting only setup_s")
    p.add_argument("--spawned-at", type=float, default=None,
                   help="time.perf_counter() of the parent when it started this process")
    p.add_argument("--spans-out", default=None)
    p.add_argument("--record-reference", default=None,
                   help="write this run's outputs as the reference file")
    return p.parse_args(argv)


def emit(kind: str, payload: dict) -> None:
    print(json.dumps({kind: payload}), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.perf_counter()

    import qrolab
    import workloads

    src = Path(qrolab.__file__).resolve().parent
    if src != HERE.parent / "src" / "qrolab":
        print(f"imported qrolab from {src}, not from this checkout's src/", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install_counters(tracer)
        tracer.install()
    for unit in wl.warmup:
        unit.run()
    if tracer is not None:
        tracer.counts.reset()
        tracer.raised.clear()
    wall_setup_s = time.perf_counter() - spawned_at
    probe = SpeedProbe()
    for _ in range(3):
        probe.tick(force=True)
    setup_s = wall_setup_s * probe.REF_PROBE_S / sorted(probe.samples)[1]
    emit("plan", {"setup_s": setup_s, "wall_setup_s": wall_setup_s,
                  "planned_units": wl.min_passes * len(wl.units_for_pass(0))})
    if args.setup_only:
        return 0

    reference = load_reference(args.workload)
    results, times, moments, errors = [], [], [], []
    passes = 0
    start = time.perf_counter()

    def run_unit(unit):
        probe.tick()
        if tracer is not None:
            tracer.unit_id = len(results)
        t0 = time.perf_counter()
        try:
            outs = unit.run()
        except Exception:  # a raising unit is a failed unit; keep measuring
            outs = None
            errors.append((unit.key, traceback.format_exc(limit=3)))
        t1 = time.perf_counter()
        times.append(t1 - t0)
        moments.append((t0 + t1) / 2)
        if outs is not None:
            problems = gate(unit, outs, reference, args.seed)
            if problems:
                errors.append((unit.key, "; ".join(problems)))
                outs = None
        results.append((unit, outs))

    # Whole passes only, so the unit mix is the same in every run, and at
    # least MIN_UNITS so that p90 has ten samples beyond it.  A traced run
    # times exactly the minimum number of passes.
    exact = args.exact_passes or args.trace
    while True:
        for unit in wl.units_for_pass(passes):
            run_unit(unit)
        passes += 1
        if passes >= wl.min_passes and (exact or (
                time.perf_counter() - start >= RUN_SECONDS and len(results) >= MIN_UNITS)):
            break
    wall = time.perf_counter() - start
    for _ in range(SpeedProbe.NEAREST // 2):  # probes after the last unit
        probe.tick(force=True)
    if tracer is not None:
        tracer.unit_id = -1

    failed_ids = {id(u) for u, outs in results if outs is None}
    if tracer is not None:
        for u, message in layers.mass_failures(tracer.counts).items():
            errors.append((results[u][0].key, message))
            failed_ids.add(id(results[u][0]))
    for kind, message in wl.finish(results):
        errors.append((kind, message))
        failed_ids.update(id(u) for u, _ in results if u.kind == kind)
    ok = np.array([id(u) not in failed_ids for u, _ in results], dtype=bool)
    passed = int(ok.sum())

    wall_t = np.array(times)
    adj_t = wall_t * probe.scales(moments)

    def pct(t, q):
        return float(np.percentile(t[ok], q)) * 1e3 if passed else None

    payload = {
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "attempted": len(results), "failed": len(results) - passed, "wall_s": wall,
        "setup_s": setup_s, "wall_setup_s": wall_setup_s, "samples": passed,
        # speed-adjusted: each unit's wall time scaled to the reference CPU speed
        "units_per_s": passed / float(adj_t.sum()),
        "unit_ms_p50": pct(adj_t, 50), "unit_ms_p90": pct(adj_t, 90),
        # as measured on the wall clock
        "wall_units_per_s": passed / wall,
        "wall_unit_ms_p50": pct(wall_t, 50), "wall_unit_ms_p90": pct(wall_t, 90),
        "probe_ms_median": float(np.median(probe.samples)) * 1e3,
        "probe_ref_ms": probe.REF_PROBE_S * 1e3,
        "kinds": kind_stats(results, times),
        "errors": [f"{k}: {m}" for k, m in errors[:20]],
        "env": environment(args.seed),
    }
    if tracer is not None:
        payload["layers"] = layers.per_layer_values(tracer)
        payload["unpatched"] = tracer.unpatched_bindings()
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            tracer.save(args.spans_out)
    if args.record_reference:
        record_reference(args.record_reference, args.workload, results)
    emit("result", payload)
    return 0


class SpeedProbe:
    """Tracks how fast this CPU runs right now, from a fixed probe kernel.

    On a shared host the same code runs up to 2x slower for tens of seconds
    at a time.  Every PROBE_EVERY_S, between units, the worker times a fixed
    kernel that uses no qrolab code: an integer loop, a dict fill with
    untracked int keys (so it neither triggers nor depends on the garbage
    collector) and small complex matrix products.  A unit's scale is
    REF_PROBE_S over the median of the NEAREST probes around it (half
    before, half after); its wall time times that scale is the time it
    would take on a CPU where the probe takes REF_PROBE_S.
    """

    REF_PROBE_S = 0.006
    PROBE_EVERY_S = 0.25
    NEAREST = 4

    def __init__(self):
        self.at: list[float] = []
        self.samples: list[float] = []
        self._matrix = (np.arange(64 * 64).reshape(64, 64) % 7 + 1j).astype(complex)

    def kernel(self) -> float:
        """Geometric mean of three parts: interpreter, dict memory, BLAS."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        t1 = time.perf_counter()
        table = {}
        for i in range(40_000):
            table[i * 7919 % 65521] = i * 0.5
        t2 = time.perf_counter()
        for _ in range(60):
            self._matrix @ self._matrix
        t3 = time.perf_counter()
        return ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1 / 3)

    def tick(self, force: bool = False) -> None:
        if force or not self.at or time.perf_counter() - self.at[-1] >= self.PROBE_EVERY_S:
            sample = self.kernel()
            self.at.append(time.perf_counter())
            self.samples.append(sample)

    def scales(self, moments):
        at, samples = np.array(self.at), np.array(self.samples)
        out = np.empty(len(moments))
        for k, t in enumerate(moments):
            hi = min(len(at), max(int(np.searchsorted(at, t)) + self.NEAREST // 2, self.NEAREST))
            out[k] = self.REF_PROBE_S / np.median(samples[max(0, hi - self.NEAREST):hi])
        return out


def kind_stats(results, times) -> dict:
    """Unit count and median ms per population, to show where p50/p90 fall."""
    by_kind: dict[str, list] = {}
    for (unit, _), t in zip(results, times):
        by_kind.setdefault(unit.kind, []).append(t)
    return {k: {"units": len(v), "ms_p50": float(np.median(v)) * 1e3}
            for k, v in by_kind.items()}


# -- correctness gate ------------------------------------------------------------


def load_reference(workload: str) -> dict:
    path = HERE / "reference.json"
    with open(path) as fh:
        return json.load(fh).get(workload, {})


def gate(unit, outs, reference: dict, seed: int) -> list[str]:
    """Verdicts, and measured values against the reference where it applies.

    The reference was recorded at DEFAULT_SEED.  Units whose inputs do not
    depend on the seed are held to it on every seed; seeded units only on
    DEFAULT_SEED, and on other seeds every verdict must hold.
    """
    from workloads import ATOL, DEFAULT_SEED

    ref = reference.get(unit.key) if (not unit.seeded or seed == DEFAULT_SEED) else None
    if ref is None:
        return [f"{label} verdict false (measured {value!r})"
                for label, value, verdict in outs if not verdict]
    if [o[0] for o in outs] != [r[0] for r in ref]:
        return [f"output labels {[o[0] for o in outs]} != reference {[r[0] for r in ref]}"]
    problems = []
    for (label, value, verdict), (_, ref_value, ref_verdict) in zip(outs, ref):
        if bool(verdict) != bool(ref_verdict):
            problems.append(f"{label} verdict {verdict} != reference {ref_verdict}")
        if abs(value - ref_value) > ATOL:
            problems.append(f"{label} measured {value!r} != reference {ref_value!r}")
    return problems


def record_reference(path: str, workload: str, results) -> None:
    """Merge this run's per-unit outputs into the reference file."""
    target = Path(path)
    data = json.loads(target.read_text()) if target.exists() else {}
    entry = data.setdefault(workload, {})
    for unit, outs in results:
        if outs is not None and unit.key not in entry:
            entry[unit.key] = [[label, value, bool(verdict)] for label, value, verdict in outs]
    target.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# -- environment block -----------------------------------------------------------


def environment(seed: int) -> dict:
    import platform

    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def blas_threads():
    """Thread count OpenBLAS reports in this process, or None if unknown."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())
