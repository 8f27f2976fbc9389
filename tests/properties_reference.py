"""Replay-based Theorem 2 property checks: the test oracle for properties.py.

Every leaf of every tree is rebuilt from a fresh SimulatorS: the preparation
prefix is replayed for each x and t, and enumerate_paths replays it again for
each leaf.  properties.py walks each preparation tree once and splits the
simulator at every decision instead; tests/test_property_trees.py checks
that both give the same numbers.  roe_almost_commutation applies O_XYD per
(leaf, xy state, t), where properties.py applies it once per leaf, and
independent_ro_commutation builds its operators in complex arithmetic, where
properties.py builds them in real arithmetic.
"""

from __future__ import annotations

import numpy as np

from qrolab.branching import enumerate_paths
from qrolab.linalg import apply_on_axes, density_from_branches, operator_norm, \
    pure_trace_distance, trace_distance
from qrolab.oracle import OracleConfig, build_o_small
from qrolab.properties import (
    _apply_m_full,
    _apply_o_full,
    _p_zero,
    _prep_leaves,
    _preps_for,
    _xy_states,
)
from qrolab.relations import CommitFunction, purified_m_permutation
from qrolab.simulator import SimulatorS


def independent_ro_commutation(n: int, m: int) -> float:
    """max over (x, x') of ||[O^x_{Y D_x}, O^{x'}_{Y' D_{x'}}]||, complex."""
    big_n, cd = 2**n, 2**n + 1
    o_small = build_o_small(n)
    norms = []
    for dims, axes in (([big_n, big_n, cd], [1, 2]), ([big_n, big_n, cd, cd], [1, 3])):
        dim = int(np.prod(dims))
        eye = np.eye(dim, dtype=complex).reshape(dims + [dim])
        o1 = apply_on_axes(o_small, eye, [0, 2]).reshape(dim, dim)
        o2 = apply_on_axes(o_small, eye, axes).reshape(dim, dim)
        norms.append(operator_norm(o1 @ o2 - o2 @ o1))
    return max(norms)


def _prep_branches(f: CommitFunction, prep):
    """Enumerate (prob, dense D vector) after a classical-query preparation."""
    vecs = []

    def run(ch):
        sim = SimulatorS(f, backend="dense", chooser=ch)
        for x in prep:
            sim.ro_classical(x)
        vecs.append(sim.backend.d_vector())
        return len(vecs) - 1

    return [(p, vecs[i]) for p, i in enumerate_paths(run)]


def _density_after(f: CommitFunction, prep, steps):
    """Density operator on D after prep + the given interface calls."""
    branches = []

    def run(ch):
        sim = SimulatorS(f, backend="dense", chooser=ch)
        for x in prep:
            sim.ro_classical(x)
        for kind, arg in steps:
            if kind == "ro":
                sim.ro_classical(arg)
            else:
                sim.e_query(arg)
        branches.append(sim.backend.d_vector())
        return len(branches) - 1

    paths = enumerate_paths(run)
    return density_from_branches((p, branches[i]) for p, i in paths)


def ro_idempotence(f: CommitFunction) -> float:
    worst = 0.0
    for prep in _preps_for(f.m):
        for x in range(f.m):
            rho1 = _density_after(f, prep, [("ro", x)])
            rho2 = _density_after(f, prep, [("ro", x), ("ro", x)])
            worst = max(worst, trace_distance(rho1, rho2))
    return worst


def e_idempotence(f: CommitFunction) -> tuple[float, float]:
    """(max trace distance, max repeat-outcome disagreement probability)."""
    worst_td = 0.0
    worst_outcome = 0.0
    for prep in _preps_for(f.m):
        for t in f.t_values:
            rho1 = _density_after(f, prep, [("e", t)])
            rho2 = _density_after(f, prep, [("e", t), ("e", t)])
            worst_td = max(worst_td, trace_distance(rho1, rho2))

            def run(ch):
                sim = SimulatorS(f, backend="dense", chooser=ch)
                for x in prep:
                    sim.ro_classical(x)
                a = sim.e_query(t)
                b = sim.e_query(t)
                return a.value != b.value

            disagree = sum(p for p, bad in enumerate_paths(run) if bad)
            worst_outcome = max(worst_outcome, disagree)
    return worst_td, worst_outcome


def prop_4a_worst(f: CommitFunction) -> float:
    """max over preps and t of Pr[f(x_hat, h_hat) != t and x_hat != empty]."""
    worst = 0.0
    for prep in _preps_for(f.m):
        for t in f.t_values:

            def run(ch):
                sim = SimulatorS(f, backend="dense", chooser=ch)
                for x in prep:
                    sim.ro_classical(x)
                x_hat = sim.e_query(t)
                if x_hat.is_empty:
                    return False
                h_hat = sim.ro_classical(x_hat.value)
                return f(x_hat.value, h_hat) != t

            bad = sum(p for p, hit in enumerate_paths(run) if hit)
            worst = max(worst, bad)
    return worst


def prop_4b_worst(f: CommitFunction) -> float:
    """max over preps (no prior extraction) and x of Pr[S.E(f(x, h)) = empty]."""
    worst = 0.0
    for prep in _preps_for(f.m):
        for x in range(f.m):

            def run(ch):
                sim = SimulatorS(f, backend="dense", chooser=ch)
                for xx in prep:
                    sim.ro_classical(xx)
                h = sim.ro_classical(x)
                return sim.e_query(f(x, h)).is_empty

            bad = sum(p for p, hit in enumerate_paths(run) if hit)
            worst = max(worst, bad)
    return worst


def roe_almost_commutation(f: CommitFunction) -> float:
    """max trace distance between the two orders of one S.E and one S.RO query."""
    config = OracleConfig(f.n, f.m)
    worst = 0.0
    xy_states = _xy_states(config)
    dests = {t: purified_m_permutation(f.relation_for(t), config) for t in f.t_values}
    for leaves in _prep_leaves(f):
        for p, sim, _ in leaves:
            if p <= 1e-12:
                continue
            d_vec = sim.backend.d_vector()
            for t in f.t_values:
                for xy in xy_states:
                    joint = np.multiply.outer(
                        xy.reshape(config.m, config.big_n),
                        np.multiply.outer(
                            d_vec.reshape([config.cell_dim] * config.m),
                            _p_zero(config),
                        ),
                    )
                    a = _apply_m_full(config, dests[t], _apply_o_full(config, joint))
                    b = _apply_o_full(config, _apply_m_full(config, dests[t], joint))
                    worst = max(worst, pure_trace_distance(a.reshape(-1), b.reshape(-1)))
    return worst
