"""Benchmark self-tests: binding-site coverage, per-workload call predictions,
the correctness gate, and BENCHMARK.json against the code.

The traced checks run in child processes, because installing the tracer
patches qrolab's modules for the life of the process.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def child(code_or_args, timeout=300):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, *code_or_args], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=timeout)
    assert out.returncode == 0, out.stderr[-3000:]
    return [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]


BINDINGS = """
import json, sys
sys.path.insert(0, "perfbench")
from spans import Tracer
import qrolab.bounds, qrolab.engine, qrolab.properties, qrolab.fokem
import qrolab.experiments, qrolab.sigma, qrolab.circuits, qrolab.branching
t = Tracer()
t.install()
m = sys.modules
sites = {f"{mod}.{name}": hasattr(getattr(m["qrolab." + mod], name), "__wrapped__")
         for mod, name in [
             ("bounds", "apply_on_axes"), ("engine", "apply_on_axes"),
             ("properties", "apply_on_axes"), ("linalg", "apply_on_axes"),
             ("bounds", "enumerate_paths"), ("properties", "enumerate_paths"),
             ("fokem", "enumerate_paths"), ("experiments", "enumerate_paths"),
             ("branching", "enumerate_paths"), ("circuits", "enumerate_distribution"),
             ("sparse", "fwht"), ("simulator", "measure_extraction_dense")]}
print(json.dumps({"sites": sites, "unpatched": t.unpatched_bindings()}))
"""


def test_every_binding_site_is_wrapped():
    (msg,) = child(["-c", BINDINGS])
    assert msg["unpatched"] == []
    assert all(msg["sites"].values()), msg["sites"]


# Where each workload is meant to do work (non-zero) and to bypass a layer (zero).
SPARSE_FLAT = [f"sparse.SparseState.{op}.calls" for op in layers.SPARSE_OPS]
PRODUCT = ["sparse.ProductState.classical_query.calls",
           "sparse.ProductState.measure_relation.calls", "sparse.product.bytes_computed"]
ENGINE = ["engine.RegisterState.apply.calls", "engine.RegisterState.measure.calls",
          "engine.RegisterState.add_register.calls",
          "engine.RegisterState.remove_register.calls"]
DENSE_ORACLE = ["oracle.DenseOracleState.classical_query.calls",
                "oracle.DenseOracleState.quantum_query.calls"]
SIGMA = ["sigma.online_extract.calls", "sigma.run_real_game.calls"]
FOKEM = ["fokem.backend_agreement_experiment.calls", "fokem.indcca_game.calls"]
CIRCUITS = ["circuits.run_circuit_compressed.calls", "circuits.run_circuit_reference.calls"]
PROPS = [f"properties.property_{p}_report.self_s" for p in layers.PROPERTIES]
COMMUTATOR = ["bounds.OxMCommutator.norm.calls", "bounds.OxMCommutator.apply.calls",
              "bounds.verify_local_bounds.calls",
              "experiments.commutator_relation_reports.calls"]
SIMULATOR = ["simulator.SimulatorS.ro_classical.calls", "simulator.SimulatorS.e_query.calls"]

PREDICTIONS = {
    "commutator-sweep": (
        ["linalg.apply_on_axes.calls", "linalg.operator_norm.calls",
         "linalg.spectral_norm_linop.calls", "linalg.lanczos_matvecs",
         "relations.outcome_array.calls"] + COMMUTATOR,
        SPARSE_FLAT + PRODUCT + ENGINE + DENSE_ORACLE + SIGMA + FOKEM + CIRCUITS
        + PROPS + SIMULATOR + ["branching.enumerate_paths.calls", "sparse.fwht.calls",
                               "bounds.grover_experiment.calls"]),
    "sigma-extract": (
        SIGMA + SIMULATOR + PRODUCT + ["oracle.LazyRandomOracle.query.calls",
                                       "branching.RandomChooser.choose.calls"],
        ["linalg.apply_on_axes.calls", "linalg.operator_norm.calls",
         "linalg.spectral_norm_linop.calls", "branching.enumerate_paths.calls",
         "relations.measure_extraction_dense.calls", "sparse.fwht.calls"]
        + ENGINE + SPARSE_FLAT + DENSE_ORACLE + COMMUTATOR + FOKEM + CIRCUITS + PROPS),
    "game-tree": (
        ENGINE + DENSE_ORACLE + SIMULATOR + FOKEM + CIRCUITS + PROPS
        + ["linalg.apply_on_axes.calls", "relations.measure_extraction_dense.calls",
           "branching.enumerate_paths.calls", "branching.leaves",
           "branching.replay_choices"],
        ["linalg.spectral_norm_linop.calls", "linalg.lanczos_matvecs", "sparse.fwht.calls"]
        + SPARSE_FLAT + PRODUCT + SIGMA + COMMUTATOR),
    "sparse-map": (
        SPARSE_FLAT + SIMULATOR + ["sparse.SparseState.peak_support",
                                   "circuits.run_circuit_compressed.calls",
                                   "bounds.grover_experiment.calls",
                                   "branching.enumerate_paths.calls", "sparse.fwht.calls"],
        ["linalg.spectral_norm_linop.calls", "linalg.operator_norm.calls",
         "relations.measure_extraction_dense.calls"]
        + PRODUCT + ENGINE + DENSE_ORACLE + SIGMA + FOKEM + PROPS + COMMUTATOR),
}


@pytest.mark.parametrize("name", sorted(PREDICTIONS))
def test_traced_calls_match_predictions(name):
    msgs = child(["perfbench/worker.py", "--workload", name, "--trace", "1", "--smoke"])
    result = next(m["result"] for m in msgs if "result" in m)
    assert result["failed"] == 0 and not result["errors"], result["errors"]
    values = result["layers"]
    assert set(values) == {m for m, _, _ in layers.PER_LAYER} - {"trace.overhead_frac"}
    busy, bypassed = PREDICTIONS[name]
    assert [m for m in busy if not values[m] > 0] == []
    assert [m for m in bypassed if values[m] != 0] == []
    assert values["branching.leaf_mass_missing"] <= layers.MASS_LIMIT
    assert values["sparse.SparseState.pruned_mass"] <= layers.MASS_LIMIT


def test_gate_compares_with_reference_and_verdicts():
    unit = workloads.Unit("k", "key", lambda: [], seeded=True)
    ref = {"key": [["a", 1.0, True]]}
    seed = workloads.DEFAULT_SEED
    assert worker.gate(unit, [("a", 1.0 + 1e-12, True)], ref, seed) == []
    assert worker.gate(unit, [("a", 1.0 + 1e-6, True)], ref, seed)
    assert worker.gate(unit, [("a", 1.0, False)], ref, seed)
    # other seeds: seeded units are held to their verdicts only
    assert worker.gate(unit, [("a", 5.0, True)], ref, seed + 1) == []
    assert worker.gate(unit, [("a", 5.0, False)], ref, seed + 1)
    fixed = workloads.Unit("k", "key", lambda: [], seeded=False)
    assert worker.gate(fixed, [("a", 5.0, True)], ref, seed + 1)


def test_sigma_bands():
    honest = workloads.Unit("HonestProver-n16", "h", None, True)
    trivial = workloads.Unit("TrivialAttackProver-n16", "t", None, True)

    def rows(unit, won, extracted, count):
        return [(unit, [("real_game_won", float(i < won), True),
                        ("witness_extracted", float(i < extracted), True)])
                for i in range(count)]

    assert workloads.sigma_bands(rows(honest, 100, 100, 100)
                                 + rows(trivial, 33, 0, 100)) == []
    assert workloads.sigma_bands(rows(honest, 100, 90, 100))
    assert workloads.sigma_bands(rows(trivial, 33, 1, 100))
    assert workloads.sigma_bands(rows(trivial, 80, 0, 100))


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert spec["run_seconds"] == worker.RUN_SECONDS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
