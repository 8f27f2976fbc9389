"""Per-table reference random oracle: the test oracle for circuits.py.

reference_distribution walks all 2^{n·m} oracle tables.  For each table it
builds U_H as an explicit permutation matrix and replays the circuit once
per leaf of that table's measurement tree; the table average is the random
oracle's output distribution.  circuits.run_circuit_reference runs the
circuit once per leaf against a purified table register instead;
tests/test_reference_purified.py checks that both give the same numbers.
"""

from __future__ import annotations

import numpy as np

from qrolab.branching import enumerate_distribution
from qrolab.circuits import circuit_registers, validate_circuit
from qrolab.engine import RegisterState
from qrolab.oracle import OracleConfig


def run_circuit_reference(circ: dict, chooser, table) -> tuple:
    """Execute against a plain random oracle given by an explicit table."""
    mats = validate_circuit(circ)
    config = OracleConfig(circ["n"], circ["m"])
    regs = circuit_registers(circ)
    state = RegisterState(regs)
    big_n = config.big_n
    # U_H: |x>|y> -> |x>|y xor H(x)> as a permutation on X (x) Y
    uh = np.zeros((config.m * big_n, config.m * big_n))
    for x in range(config.m):
        for y in range(big_n):
            uh[x * big_n + (y ^ table[x]), x * big_n + y] = 1.0

    results: list[int] = []
    for step, mat in zip(circ["steps"], mats):
        if step["op"] == "unitary":
            state.apply(mat, step["targets"])
        elif step["op"] == "query":
            state.apply(uh, ["X", "Y"])
        else:
            results.extend(state.measure(step["targets"], chooser))
    if circ.get("output"):
        results.extend(state.measure(circ["output"], chooser))
    return tuple(results)


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
