"""Replay-based FO backend agreement: the test oracle for fokem.py.

`indcca_game` and `backend_agreement_experiment` as they were before the
tree walk: enumerate_paths re-runs the whole game, dense oracle operations
included, once per leaf.  fokem.backend_agreement_experiment walks each game
tree once and forks the simulator at every oracle call instead;
tests/test_fo_forked.py checks that both give the same numbers and that the
Monte-Carlo game draws in the same order.
"""

from __future__ import annotations

import time

import numpy as np

from qrolab.bounds import Report
from qrolab.branching import enumerate_paths
from qrolab.fokem import (
    DecapsGuardError,
    PKESpec,
    Tripwire,
    fo_decaps,
    fo_encaps,
    simulated_decaps,
)
from qrolab.linalg import total_variation
from qrolab.oracle import LazyRandomOracle
from qrolab.relations import CommitFunction
from qrolab.simulator import SimulatorS


def indcca_game(pke: PKESpec, adversary, backend: str, chooser,
                key_index: int = 0, key_bits: int = 2,
                keep_ro_query: bool = True, collect=None,
                trace: list | None = None) -> bool:
    """One IND-CCA-KEM run; backend selects real or extraction decapsulation.

    With backend='simulated-decaps' and keep_ro_query=False the decapsulation
    closure receives a Tripwire in place of the secret key.  When a trace
    list is supplied, every Decaps call is appended to it (H and G calls are
    recorded in the simulator log and the G table).
    """
    if backend not in ("real-decaps", "simulated-decaps"):
        raise ValueError(f"unknown backend {backend!r}")
    sk, pk = pke.gen(key_index)
    commit = CommitFunction(
        pke.randomness_bits, pke.num_messages, lambda m, r: pk[m][r],
        t_values=pke.ciphertext_space, name="enc",
    )
    sim = SimulatorS(commit, backend="dense", chooser=chooser)
    g_oracle = LazyRandomOracle(key_bits, chooser)
    b = chooser.choose_uniform(2)
    k0, c_star, _ = fo_encaps(pke, pk, sim.ro_classical, g_oracle.query, chooser)
    k1 = chooser.choose_uniform(2**key_bits)
    k_b = k0 if b == 0 else k1

    sk_for_decaps = sk
    if backend == "simulated-decaps" and not keep_ro_query:
        sk_for_decaps = Tripwire()
    answers: list = []

    def decaps(c):
        if c == c_star:
            raise DecapsGuardError("adversary queried the challenge ciphertext")
        if backend == "real-decaps":
            out = fo_decaps(pke, sk_for_decaps, pk, c, sim.ro_classical,
                            g_oracle.query)
        else:
            if keep_ro_query:
                m = pke.dec(sk_for_decaps, c)
                if m is not None:
                    sim.ro_classical(m)
            out = simulated_decaps(pke, sim, g_oracle.query, c)
        answers.append(out)
        if trace is not None:
            trace.append({"call": "decaps", "backend": backend,
                          "input": int(c), "output": out})
        return out

    b_prime = adversary(pk, c_star, k_b, decaps, sim.ro_classical,
                        g_oracle.query, chooser)
    if trace is not None:
        trace.extend(sim.log)
    if collect is not None:
        collect(tuple(answers), b_prime, sim.log)
    return b_prime == b


def backend_agreement_experiment(pke: PKESpec, adversary,
                                 keep_ro_query: bool = True,
                                 key_bits: int = 2) -> Report:
    """TV between real and extraction decapsulation on the exhaustive game tree.

    The observable is (all Decaps answers, adversary output); the budget sums
    the per-decaps disagreement terms (2 2^-n Gamma(f) + 2 2^-n) and one
    almost-commutation term 8 sqrt(2 Gamma(f)/2^n) per extraction query that
    precedes a later RO query in the run.  The report measures the TV
    against the budget; stats hold q_d (Decaps queries) and swaps (E-before-RO
    pairs).
    """
    start = time.perf_counter()
    dists = {}
    stats = {"q_d": 0, "swaps": 0}
    for backend in ("real-decaps", "simulated-decaps"):
        rows: dict = {}

        def run(ch):
            seen = {}

            def collect(answers, b_prime, log):
                seen["row"] = (answers, b_prime)
                if backend == "simulated-decaps":
                    e_idx = [i for i, e in enumerate(log) if e["interface"] == "E"]
                    ro_idx = [i for i, e in enumerate(log) if e["interface"] == "RO"]
                    swaps = sum(
                        sum(1 for j in ro_idx if j > i) for i in e_idx
                    )
                    stats["swaps"] = max(stats["swaps"], swaps)
                    stats["q_d"] = max(stats["q_d"], len(answers))

            indcca_game(pke, adversary, backend, ch, key_bits=key_bits,
                        keep_ro_query=keep_ro_query, collect=collect)
            return seen["row"]

        for p, row in enumerate_paths(run):
            rows[row] = rows.get(row, 0.0) + p
        dists[backend] = rows
    tv = total_variation(dists["real-decaps"], dists["simulated-decaps"])
    _, pk = pke.gen(0)
    f = pke.enc_commit(pk)
    n = pke.randomness_bits
    per_decaps = 2.0 * f.gamma / 2.0**n + 2.0 / 2.0**n
    budget = stats["q_d"] * per_decaps + stats["swaps"] * 8.0 * np.sqrt(
        2.0 * f.gamma / 2.0**n
    )
    ms = (time.perf_counter() - start) * 1000.0
    return Report(
        "agreement",
        dict(pke=pke.name, n=n, M=pke.num_messages, gamma=f.gamma,
             keep_ro_query=keep_ro_query),
        tv, float(budget), runtime_ms=ms, stats=stats,
    )
