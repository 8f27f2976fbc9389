"""Per-layer metrics: which spans and counters the traced run reports.

PER_LAYER lists every metric of BENCHMARK.json's per_layer section, in
order.  `install_counters` adds the hooks that count work the spans alone do
not show (tree leaves, lost probability mass, sparse support, product-column
bytes, extraction successes); `per_layer_values` turns spans and counters
into the metric values.  A metric whose layer a workload never calls reads 0.
"""

from __future__ import annotations

import numpy as np

from spans import calls_inside, span_summary

MASS_LIMIT = 1e-9  # gate on branching.leaf_mass_missing and SparseState.pruned_mass

SPARSE_OPS = ("quantum_query", "apply_prefix_unitary", "basis_switch",
              "classical_query", "measure_prefix", "measure_relation")
PROPERTIES = ("2a", "2b", "2c", "3a", "3b", "4a", "4b")


def _timed(*names):
    return [(f"{n}.calls", "count", "lower") for n in names] + \
        [(f"{n}.self_s", "s", "lower") for n in names]


PER_LAYER = (
    _timed("linalg.apply_on_axes", "linalg.operator_norm", "linalg.spectral_norm_linop")
    + [("linalg.lanczos_matvecs", "count", "lower"),
       ("linalg.power_fallbacks", "count", "lower")]
    + _timed("bounds.OxMCommutator.norm", "bounds.verify_local_bounds",
             "bounds.grover_experiment")
    + [("bounds.OxMCommutator.apply.calls", "count", "lower")]
    + _timed("relations.outcome_array", "relations.measure_extraction_dense")
    + _timed("engine.RegisterState.apply", "engine.RegisterState.measure")
    + [("engine.RegisterState.add_register.calls", "count", "lower"),
       ("engine.RegisterState.remove_register.calls", "count", "lower")]
    + _timed("oracle.DenseOracleState.classical_query",
             "oracle.DenseOracleState.quantum_query")
    + [("oracle.LazyRandomOracle.query.calls", "count", "lower")]
    + [("branching.enumerate_paths.calls", "count", "lower"),
       ("branching.leaves", "count", "lower"),
       ("branching.replay_choices", "count", "lower"),
       ("branching.leaf_mass_missing", "prob", "lower")]
    + _timed("branching.RandomChooser.choose")
    + _timed("simulator.SimulatorS.ro_classical", "simulator.SimulatorS.e_query")
    + _timed("sparse.ProductState.classical_query", "sparse.ProductState.measure_relation")
    + [("sparse.product.bytes_computed", "bytes", "lower")]
    + _timed(*(f"sparse.SparseState.{op}" for op in SPARSE_OPS))
    + [("sparse.SparseState.peak_support", "count", "lower"),
       ("sparse.SparseState.pruned_mass", "norm2", "lower")]
    + _timed("sparse.fwht")
    + _timed("circuits.run_circuit_compressed", "circuits.run_circuit_reference")
    + [(f"properties.property_{p}_report.self_s", "s", "lower") for p in PROPERTIES]
    + _timed("sigma.online_extract", "sigma.run_real_game")
    + [("sigma.extract_success_ratio", "ratio", "higher")]
    + _timed("fokem.backend_agreement_experiment")
    + [("fokem.indcca_game.calls", "count", "lower")]
    + _timed("experiments.commutator_relation_reports")
    + [("trace.overhead_frac", "ratio", "lower")]
)


class Counts:
    """Hook-side tallies; per-unit masses feed the correctness gate."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.leaves = 0
        self.missing_by_unit: dict[int, float] = {}
        self.pruned_by_unit: dict[int, float] = {}
        self.peak_support = 0
        self.product_bytes = 0
        self.honest_attempts = 0
        self.witnesses = 0


def install_counters(tracer) -> Counts:
    import qrolab.sparse as sparse

    counts = Counts()
    tracer.counts = counts

    def no_token(args, kwargs):
        return None

    def tree_done(_, args, kwargs, leaves):
        counts.leaves += len(leaves)
        missing = 1.0 - sum(p for p, _ in leaves)
        u = tracer.unit_id
        counts.missing_by_unit[u] = max(counts.missing_by_unit.get(u, 0.0), missing)

    tracer.hook("branching.enumerate_paths", no_token, tree_done)

    def prune_before(args, kwargs):
        state = args[0]
        eps = args[1] if len(args) > 1 else kwargs.get("eps", sparse.PRUNE_EPS)
        return sum(abs(a) ** 2 for a in state.amps.values() if abs(a) <= eps)

    def prune_after(removed, args, kwargs, _):
        u = tracer.unit_id
        counts.pruned_by_unit[u] = counts.pruned_by_unit.get(u, 0.0) + removed

    tracer.hook("sparse.SparseState.prune", prune_before, prune_after)

    def support_after(_, args, kwargs, __):
        counts.peak_support = max(counts.peak_support, len(args[0].amps))

    for op in SPARSE_OPS:
        tracer.hook(f"sparse.SparseState.{op}", no_token, support_after)

    def column_bytes(columns):
        def before(args, kwargs):
            state = args[0]
            counts.product_bytes += 16 * (2**state.n + 1) * columns(state)
        return before

    tracer.hook("sparse.ProductState.classical_query", column_bytes(lambda s: 1),
                lambda *_: None)
    tracer.hook("sparse.ProductState.measure_relation",
                column_bytes(lambda s: len(s.columns)), lambda *_: None)

    def extract_done(_, args, kwargs, result):
        if type(args[0]).__name__ == "HonestProver":
            counts.honest_attempts += 1
            counts.witnesses += result[0] is not None

    tracer.hook("sigma.online_extract", no_token, extract_done)
    return counts


def mass_failures(counts: Counts) -> dict[int, str]:
    """Timed units that lost more than MASS_LIMIT of probability mass."""
    bad = {}
    for u, m in counts.missing_by_unit.items():
        if u >= 0 and m > MASS_LIMIT:
            bad[u] = f"leaf mass missing {m:.3g} > {MASS_LIMIT}"
    for u, m in counts.pruned_by_unit.items():
        if u >= 0 and m > MASS_LIMIT:
            bad[u] = f"pruned mass {m:.3g} > {MASS_LIMIT}"
    return bad


def per_layer_values(tracer) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_frac, over the timed units."""
    spans = tracer.arrays()
    names = tracer.names
    summary = span_summary(spans, names)
    counts = tracer.counts
    timed = spans["unit"] >= 0
    values: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if field in ("calls", "self_s") and base in summary:
            values[metric] = summary[base][field]
        elif field in ("calls", "self_s"):
            values[metric] = 0
    values["linalg.lanczos_matvecs"] = calls_inside(
        spans, names, "bounds.OxMCommutator.apply", "linalg.spectral_norm_linop", timed)
    values["linalg.power_fallbacks"] = tracer.raised.get("scipy.sparse.linalg.eigsh", 0)
    values["branching.leaves"] = counts.leaves
    values["branching.replay_choices"] = summary.get(
        "branching.ReplayChooser.choose", {"calls": 0})["calls"]
    values["branching.leaf_mass_missing"] = max(
        [m for u, m in counts.missing_by_unit.items() if u >= 0], default=0.0)
    values["sparse.SparseState.peak_support"] = counts.peak_support
    values["sparse.SparseState.pruned_mass"] = float(sum(
        m for u, m in counts.pruned_by_unit.items() if u >= 0))
    values["sparse.product.bytes_computed"] = counts.product_bytes
    values["sigma.extract_success_ratio"] = (
        counts.witnesses / counts.honest_attempts if counts.honest_attempts else 0.0)
    return {k: (float(v) if isinstance(v, (float, np.floating)) else int(v))
            for k, v in values.items()}
