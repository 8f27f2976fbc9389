"""Closure-replay interface soundness and early extraction, and the
collision mask as a loop: the test oracles for bounds.py.

`interface_soundness_experiment` and `early_extraction_experiment` as they
were before the simulated side walked the game tree: the reference
enumerate_paths (tests/branching_reference.py) re-runs the whole closure,
every dense S.RO and S.E included, once per leaf.  bounds.py walks each
tree once from a dense SimulatorS root instead; tests/test_walker.py checks
that both give the same reports.  `collision_mask` walks every database
index and decodes its cells, where bounds.py compares (x, cell) t-codes as
arrays; tests/test_bounds.py checks that both give the same mask.
"""

from __future__ import annotations

import time

import numpy as np

from branching_reference import enumerate_paths
from qrolab.bounds import Report, RoOnly, timed
from qrolab.branching import distribution
from qrolab.linalg import total_variation
from qrolab.oracle import LazyRandomOracle, OracleConfig
from qrolab.relations import CommitFunction, Relation
from qrolab.simulator import SimulatorS


def collision_mask(config: OracleConfig, f: CommitFunction) -> np.ndarray:
    """For every database basis index, whether two registers hold non-bot
    cells with equal t values."""
    cd = config.cell_dim
    arr_mask = np.zeros(config.d_dim(), dtype=bool)
    for idx in range(config.d_dim()):
        rem = idx
        cells = []
        for x in reversed(range(config.m)):
            rem, c = divmod(rem, cd)
            if c != config.bot:
                cells.append((x, c))
        seen = {}
        for x, c in cells:
            t = f(x, c)
            if t in seen and seen[t] != x:
                arr_mask[idx] = True
                break
            seen[t] = x
    return arr_mask


def interface_soundness_experiment(mode: str, adversary, f: CommitFunction,
                                   r_prime=None, in_run_ro: bool = False) -> Report:
    """Hard-property / hard-collision propositions, exactly enumerated.

    hard-property: adversary (S.RO only) emits t in T^ell; success if some
    extraction (x_i, t_i) lands in R'.  hard-collision: adversary emits t, x
    vectors; h_i from S.RO(x_i), hat
    x_i from S.E(t_i); success if some i has hat x_i != x_i yet f(x_i,h_i)=t_i.
    """
    if mode not in ("hard-property", "hard-collision"):
        raise ValueError(f"unknown mode {mode!r}")

    def run(ch):
        sim = SimulatorS(f, backend="dense", chooser=ch)
        facade = RoOnly(sim)
        out = adversary(facade)
        q = facade.queries
        if mode == "hard-property":
            ts = out if isinstance(out, (list, tuple)) else [out]
            hits = []
            for t in ts:
                x_hat = sim.e_query(t)
                hits.append((x_hat.value, t))
            success = any(
                x is not None and r_prime(x, t) for x, t in hits
            )
            return (q, len(ts), success)
        ts, xs = out
        hs = [sim.ro_classical(x) for x in xs]
        xh = [sim.e_query(t).value for t in ts]
        success = any(
            xh[i] != xs[i] and f(xs[i], hs[i]) == ts[i] for i in range(len(ts))
        )
        return (q, len(ts), success)

    start = time.perf_counter()
    paths = enumerate_paths(run)
    ms = (time.perf_counter() - start) * 1000.0
    success = sum(p for p, (_, _, hit) in paths if hit)
    q = max(qq for _, (qq, _, _) in paths)
    ell_seen = max(l for _, (_, l, _) in paths)
    if mode == "hard-property":
        rel = Relation(f.n, f.m, lambda x, y: bool(r_prime(x, f(x, y))))
        bound = 128.0 * q**2 * rel.gamma / 2.0**f.n
        params = dict(n=f.n, M=f.m, q=q, ell=ell_seen, gamma=rel.gamma, f=f.name)
    else:
        # in-run RO queries drop the ell term (remark after the proposition)
        eff = q + 1 if in_run_ro else q + ell_seen + 1
        bound = (40.0 * np.e**2 * eff**3 * f.gamma_prime + 2.0) / 2.0**f.n
        params = dict(n=f.n, M=f.m, q=q, ell=ell_seen,
                      gamma_prime=f.gamma_prime, f=f.name, in_run_ro=in_run_ro)
    return Report(f"interface-{mode}", params, float(success), float(bound),
                  vacuous=bound >= 1.0, runtime_ms=ms)


def early_extraction_experiment(adversary, f: CommitFunction,
                                multi: bool = False) -> tuple[Report, Report]:
    """Early extraction vs the real oracle, on classical multi-round adversaries.

    The adversary object exposes run(ro, announce): it may query ro freely,
    must call announce(t) when emitting a commitment, and returns (xs, w)
    with None entries for refused openings (RO(None) = None and the mismatch
    event never fires on them).  Outputs are classical, so the joint
    [t, x, h, W] states are diagonal and the trace distance is the total
    variation of the outcome tuples.  q, q2 and ell are each the largest
    count over the real game's leaves.
    """

    def run_real(ch):
        ro = LazyRandomOracle(f.n, ch)
        ts: list = []
        queries = [0, 0]

        def query(x):
            queries[0] += 1
            if ts:
                queries[1] += 1
            return ro.query(x)

        xs, w = adversary.run(query, ts.append)
        hs = tuple(None if x is None else ro.query(x) for x in xs)
        return (tuple(ts), tuple(xs), hs, w), (*queries, len(ts))

    def run_sim(ch):
        sim = SimulatorS(f, backend="dense", chooser=ch)
        ts: list = []
        hats: list = []

        def announce(t):
            ts.append(t)
            hats.append(sim.e_query(t).value)

        xs, w = adversary.run(sim.ro_classical, announce)
        hs = tuple(None if x is None else sim.ro_classical(x) for x in xs)
        mismatch = any(
            x is not None and hat != x and f(x, h) == t
            for x, hat, h, t in zip(xs, hats, hs, ts)
        )
        return (tuple(ts), tuple(xs), hs, w), mismatch

    real_paths, ms_real = timed(lambda: enumerate_paths(run_real))
    sim_paths, ms_sim = timed(lambda: enumerate_paths(run_sim))
    real = distribution((p, out) for p, (out, _) in real_paths)
    sim_dist = distribution((p, out) for p, (out, _) in sim_paths)
    mismatch_prob = sum(p for p, (_, bad) in sim_paths if bad)

    q, q2, ell = (max(counts) for counts in zip(*(c for _, (_, c) in real_paths)))
    root = np.sqrt(2.0 * f.gamma / 2.0**f.n)
    if multi:
        td_bound = 8.0 * ell * (q + ell) * root
        mm_bound = (8.0 * ell * (q + 1) * root
                    + (40.0 * np.e**2 * (q + ell + 1) ** 3 * f.gamma_prime + 2.0)
                    / 2.0**f.n)
    else:
        td_bound = 8.0 * (q2 + 1) * root
        mm_bound = (8.0 * (q2 + 1) * root
                    + (40.0 * np.e**2 * (q + 2) ** 3 * f.gamma_prime + 2.0)
                    / 2.0**f.n)
    params = dict(n=f.n, M=f.m, q=q, q2=q2, ell=ell, f=f.name,
                  gamma=f.gamma, gamma_prime=f.gamma_prime, multi=multi)
    td = total_variation(real, sim_dist)
    return (
        # the trace distance needs both enumerations, the mismatch only the simulated one
        Report("early-trace-distance", params, td, float(td_bound),
               vacuous=td_bound >= 1.0, runtime_ms=ms_real + ms_sim),
        Report("early-mismatch", params, float(mismatch_prob), float(mm_bound),
               vacuous=mm_bound >= 1.0, runtime_ms=ms_sim),
    )
