"""Closure-replay and per-table reference oracles: the test oracles for circuits.py.

reference_distribution walks all 2^{n·m} oracle tables.  For each table it
builds U_H as an explicit permutation matrix and replays the circuit once
per leaf of that table's measurement tree; the table average is the random
oracle's output distribution.  circuits.run_circuit_reference runs the
circuit against a purified table register instead;
tests/test_reference_purified.py checks that both give the same numbers.

replay_compressed and replay_purified run a circuit the way circuits.py
walks it, but as a closure replay: a fresh state per leaf, every step
applied in place, and a dense measurement that draws from the Born vector
and collapses onto kept / ||kept|| here rather than through
RegisterState's collapse routine (the per-table runner shares that loop).
The walked distributions must equal their replays bit for bit on the dense
backends, and a seeded run must make the same draws.
"""

from __future__ import annotations

import numpy as np

from qrolab.branching import enumerate_distribution
from qrolab.circuits import circuit_registers, validate_circuit
from qrolab.engine import RegisterState
from qrolab.oracle import OracleConfig, oracle_state


def _measure(state, labels, chooser) -> tuple:
    """A projective measurement, in place; a dense state's collapse written out."""
    if not isinstance(state, RegisterState):
        return state.measure(labels, chooser)
    axes = [state.axis(lab) for lab in labels]
    flat = chooser.choose(state.born_probs(labels))
    outcome = tuple(int(v) for v in np.unravel_index(flat, [state.dims[a] for a in axes]))
    idx: list = [slice(None)] * state.tensor.ndim
    for a, v in zip(axes, outcome):
        idx[a] = v
    kept = state.tensor[tuple(idx)]
    state.tensor = np.zeros_like(state.tensor)
    state.tensor[tuple(idx)] = kept / np.linalg.norm(kept)
    return outcome


def _replay(circ: dict, mats, state, query, chooser) -> tuple:
    mats = validate_circuit(circ) if mats is None else mats
    results: list[int] = []
    for step, mat in zip(circ["steps"], mats):
        if step["op"] == "unitary":
            state.apply(mat, step["targets"])
        elif step["op"] == "query":
            query()
        else:
            results.extend(_measure(state, step["targets"], chooser))
    if circ.get("output"):
        results.extend(_measure(state, circ["output"], chooser))
    return tuple(results)


def replay_compressed(circ: dict, chooser, backend: str = "dense", mats=None) -> tuple:
    """One run against the compressed oracle on a fresh state."""
    state = oracle_state(backend, circ["n"], circ["m"], circuit_registers(circ),
                         q_cap=circ.get("q_cap", 8))
    return _replay(circ, mats, state, lambda: state.quantum_query("X", "Y"), chooser)


def replay_purified(circ: dict, chooser, mats=None) -> tuple:
    """One run against a fresh purified table register _H."""
    config = OracleConfig(circ["n"], circ["m"])
    big_n, m = config.big_n, config.m
    n_tables = big_n**m
    state = RegisterState([("_H", n_tables)] + circuit_registers(circ))
    state.tensor[(slice(None),) + (0,) * (state.tensor.ndim - 1)] = n_tables**-0.5
    t, x, y = np.ogrid[:n_tables, :m, :big_n]
    index = (t, x, y ^ ((t // big_n**x) % big_n))

    def query():
        state.tensor = state.tensor[index]

    return _replay(circ, mats, state, query, chooser)


def compressed_distribution(circ: dict, backend: str = "dense") -> dict:
    mats = validate_circuit(circ)
    return enumerate_distribution(lambda ch: replay_compressed(circ, ch, backend, mats))


def purified_distribution(circ: dict) -> dict:
    mats = validate_circuit(circ)
    return enumerate_distribution(lambda ch: replay_purified(circ, ch, mats))


def run_circuit_reference(circ: dict, chooser, table) -> tuple:
    """Execute against a plain random oracle given by an explicit table."""
    config = OracleConfig(circ["n"], circ["m"])
    state = RegisterState(circuit_registers(circ))
    big_n = config.big_n
    # U_H: |x>|y> -> |x>|y xor H(x)> as a permutation on X (x) Y
    uh = np.zeros((config.m * big_n, config.m * big_n))
    for x in range(config.m):
        for y in range(big_n):
            uh[x * big_n + (y ^ table[x]), x * big_n + y] = 1.0
    return _replay(circ, None, state, lambda: state.apply(uh, ["X", "Y"]), chooser)


def reference_distribution(circ: dict) -> dict:
    """Exact output distribution under a uniformly random oracle table."""
    config = OracleConfig(circ["n"], circ["m"])
    n_tables = config.big_n**config.m
    acc: dict = {}
    for code in range(n_tables):
        rem = code
        table = []
        for _ in range(config.m):
            rem, v = divmod(rem, config.big_n)
            table.append(v)
        dist = enumerate_distribution(
            lambda ch: run_circuit_reference(circ, ch, table)
        )
        for k, p in dist.items():
            acc[k] = acc.get(k, 0.0) + p / n_tables
    return acc
