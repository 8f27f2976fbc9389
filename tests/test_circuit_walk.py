"""The walked circuit trees against their closure replays (circuits_reference.py).

compressed_distribution and reference_distribution walk each circuit once:
every step is one split of a walk node's state, so each distinct prefix
evolves once.  A seeded run applies every step in place and makes the
replay's draws.
"""

import numpy as np
import pytest

import circuits_reference
from qrolab import circuits
from qrolab.branching import RandomChooser, ReplayChooser, distribution, enumerate_paths
from qrolab.circuits import (
    compressed_distribution,
    equivalence_suite,
    named_circuits,
    reference_distribution,
    run_circuit_compressed,
    run_circuit_reference,
    validate_circuit,
)
from qrolab.engine import RegisterState
from qrolab.experiments import grover_one_iteration_circuit
from qrolab.oracle import DenseOracleState, oracle_state

SPARSE_TOL = 1e-15


def sparse_circuits():
    """The circuits TestSparseRunnerAgreement runs: single-register unitaries."""
    return [c for c in named_circuits(1, 2)
            if all(len(s.get("targets", [])) <= 1 for s in c["steps"] if s["op"] == "unitary")]


def unmeasured(circ):
    return not any(s["op"] == "measure" for s in circ["steps"])


@pytest.mark.parametrize("circ", equivalence_suite(), ids=lambda c: c["name"])
def test_dense_walk_equals_replay(circ):
    assert compressed_distribution(circ) == circuits_reference.compressed_distribution(circ)
    assert reference_distribution(circ) == circuits_reference.purified_distribution(circ)


@pytest.mark.parametrize("circ", sparse_circuits(), ids=lambda c: c["name"])
def test_sparse_walk_matches_replay(circ):
    walked = compressed_distribution(circ, backend="sparse")
    replayed = circuits_reference.compressed_distribution(circ, backend="sparse")
    assert set(walked) == set(replayed)
    assert max(abs(walked[k] - replayed[k]) for k in replayed) <= SPARSE_TOL


SAMPLED = ([(c, "dense") for c in equivalence_suite()[::4]]
           + [(c, "sparse") for c in sparse_circuits()])


@pytest.mark.parametrize("circ,backend", SAMPLED, ids=lambda v: v if isinstance(v, str)
                         else v["name"])
def test_seeded_runs_draw_as_the_replay(circ, backend):
    for seed in range(4):
        ours, theirs = RandomChooser(seed), RandomChooser(seed)
        assert (run_circuit_compressed(circ, ours, backend)
                == circuits_reference.replay_compressed(circ, theirs, backend))
        assert ours.rng.bit_generator.state == theirs.rng.bit_generator.state
        if backend == "dense":
            ours, theirs = RandomChooser(seed), RandomChooser(seed)
            assert run_circuit_reference(circ, ours) == circuits_reference.replay_purified(
                circ, theirs)
            assert ours.rng.bit_generator.state == theirs.rng.bit_generator.state


def test_seeded_grover_path_draws_as_the_replay():
    # as perfbench's sparse-map runs it: the default q_cap, one seeded path
    circ = grover_one_iteration_circuit(5, 8, True)
    for seed in (3, 11):
        ours, theirs = RandomChooser(seed), RandomChooser(seed)
        assert (run_circuit_compressed(circ, ours, backend="sparse")
                == circuits_reference.replay_compressed(circ, theirs, "sparse"))
        assert ours.rng.bit_generator.state == theirs.rng.bit_generator.state


class Counts:
    """Counting wrappers around the dense work a circuit walk can do."""

    def __init__(self, monkeypatch):
        self.calls = {"apply": 0, "quantum_query": 0, "table_query": 0, "measure": 0,
                      "new_state": 0}
        for owner, name, key in [(RegisterState, "apply", "apply"),
                                 (DenseOracleState, "quantum_query", "quantum_query"),
                                 (RegisterState, "born_probs", "measure"),
                                 (circuits, "_table_index", "table_query"),
                                 (circuits, "oracle_state", "new_state")]:
            monkeypatch.setattr(owner, name, self._counted(getattr(owner, name), key))
        monkeypatch.setattr(RegisterState, "__init__",
                            self._counted(RegisterState.__init__, "new_state"))

    def _counted(self, fn, key):
        def wrapper(*args, **kw):
            self.calls[key] += 1
            return fn(*args, **kw)
        return wrapper


@pytest.mark.parametrize("circ", [c for c in named_circuits(2, 3) if unmeasured(c)],
                         ids=lambda c: c["name"])
def test_each_step_runs_once_per_walk(circ, monkeypatch):
    """Without a mid-circuit measurement every step has one prefix, so a walk
    evaluates it once however many leaves the output measurement has."""
    ops = [s["op"] for s in circ["steps"]]
    counts = Counts(monkeypatch)
    assert len(compressed_distribution(circ)) > 1
    # the oracle_state call and the DenseOracleState it builds
    assert counts.calls == {"apply": ops.count("unitary"), "quantum_query": ops.count("query"),
                            "table_query": 0, "measure": 1, "new_state": 2}
    counts.calls = dict.fromkeys(counts.calls, 0)
    assert len(reference_distribution(circ)) > 1
    assert counts.calls == {"apply": ops.count("unitary"), "quantum_query": 0,
                            "table_query": ops.count("query"), "measure": 1, "new_state": 1}


def test_measured_prefixes_run_once_each(monkeypatch):
    """After a mid-circuit measurement each outcome's suffix runs once."""
    circ = next(c for c in named_circuits(1, 2) if c["name"] == "mid-circuit-measurement")
    counts = Counts(monkeypatch)
    dist = reference_distribution(circ)
    outcomes = len({k[0] for k in dist})  # the mid-circuit X value leads each result
    assert outcomes == 2
    # fourier before the measurement, the phase gate once per outcome after it
    assert counts.calls["apply"] == 1 + outcomes
    assert counts.calls["table_query"] == 2 * outcomes
    assert counts.calls["measure"] == 1 + outcomes


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_walk_leaves_its_root_alone(backend):
    """A split copies the state it extends: a walk from a given root leaves
    it as it was, and yields the distribution of a walk that builds it."""
    circ = next(c for c in sparse_circuits() if c["name"] == "classical-two-queries")
    mats = validate_circuit(circ)
    root = oracle_state(backend, circ["n"], circ["m"], circuits.circuit_registers(circ),
                        q_cap=circ.get("q_cap", 8))
    before = (root.tensor.copy(),) if backend == "dense" else (
        root.pre.copy(), root.reg.copy(), root.cell.copy(), root.amp.copy())
    paths = enumerate_paths(lambda ch: run_circuit_compressed(circ, ch, backend, mats), root)
    after = (root.tensor,) if backend == "dense" else (root.pre, root.reg, root.cell, root.amp)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert distribution(paths) == compressed_distribution(circ, backend, mats)


def test_walk_memo_names_each_step():
    """A walk node records one split per step of the circuit, the output
    measurement last, each named by its step index."""
    for circ in named_circuits(1, 2):
        node = ReplayChooser()
        run_circuit_reference(circ, node)
        n_steps = len(circ["steps"]) + 1
        assert sorted(key for _, key in node.memo) == [("circuit", i) for i in range(n_steps)]
        assert len(node.taken) == n_steps


def test_collapses_are_the_collapses_measure_makes():
    rng = np.random.default_rng(5)
    state = RegisterState([("A", 3), ("B", 2), ("C", 2)])
    state.set_vector(rng.normal(size=12) + 1j * rng.normal(size=12))
    state.set_vector(state.vector() / state.norm())
    kids = state.collapses(["C", "A"])
    assert len(kids) == 6 and abs(sum(q for q, _, _ in kids) - 1.0) <= 1e-12
    for i, (q, child, outcome) in enumerate(kids):
        measured = state.copy()
        assert measured.measure(["C", "A"], ReplayChooser(script=(i,))) == outcome
        assert np.array_equal(measured.tensor, child.tensor)
        assert child.labels == state.labels and abs(child.norm() - 1.0) <= 1e-12
        assert q == pytest.approx(state.born_probs(["C", "A"])[i], abs=1e-12)
