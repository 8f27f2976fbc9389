"""Replay-based Theorem 2 property checks: the test oracle for properties.py.

Every leaf of every tree is rebuilt from a fresh SimulatorS: the preparation
prefix is replayed for each x and t, and enumerate_paths replays it again for
each leaf.  properties.py walks each preparation tree once and splits the
simulator at every decision instead; tests/test_property_trees.py checks
that both give the same numbers.  roe_almost_commutation applies O_XYD and
M_DP outright per (leaf, xy state, t) and compares the two orders with
pure_trace_distance, where properties.py evaluates one exact form per
preparation, and independent_ro_commutation builds its operators in complex
arithmetic, where properties.py builds them in real arithmetic.
"""

from __future__ import annotations

import numpy as np

from qrolab.branching import enumerate_paths
from qrolab.linalg import apply_on_axes, density_from_branches, operator_norm, trace_distance
from qrolab.oracle import OracleConfig, build_o_small
from qrolab.properties import _prep_leaves, _preps_for, _xy_states
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


def pure_trace_distance(phi: np.ndarray, psi: np.ndarray) -> float:
    """Trace distance of two pure states: sqrt(1 - |<phi|psi>|^2).  Raises
    ValueError unless both norms are finite and non-zero."""
    a = np.asarray(phi).reshape(-1)
    b = np.asarray(psi).reshape(-1)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if not (0.0 < na < np.inf and 0.0 < nb < np.inf):
        raise ValueError(f"pure states need finite non-zero norms, got {na!r} and {nb!r}")
    ov = abs(np.vdot(a, b)) / (na * nb)
    return float(np.sqrt(max(0.0, 1.0 - min(ov, 1.0) ** 2)))


def _apply_o_full(config: OracleConfig, tensor: np.ndarray) -> np.ndarray:
    """O_XYD on a tensor with axes (X, Y, D_0..D_{m-1}, P, ...)."""
    o_small = build_o_small(config.n)
    out = np.empty_like(tensor)
    for x in range(config.m):
        out[x] = apply_on_axes(o_small, tensor[x], [0, 1 + x])
    return out


def _apply_m_full(config: OracleConfig, dest: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """M_DP on the same tensor layout (P follows the D axes; trailing axes
    after P ride along)."""
    shape = tensor.shape
    flat = tensor.reshape(config.m * config.big_n, dest.size, -1)
    out = np.empty_like(flat)
    out[:, dest] = flat
    return out.reshape(shape)


def _p_zero(config: OracleConfig) -> np.ndarray:
    p = np.zeros(config.m + 1, dtype=complex)
    p[0] = 1.0
    return p


def roe_distances(config: OracleConfig, relations, d_vec: np.ndarray) -> np.ndarray:
    """Trace distances [k, t] of M O psi and O M psi, psi = xy_k (x) d_vec (x) |0>_P,
    one relation per t: both orders applied outright."""
    dests = [purified_m_permutation(rel, config) for rel in relations]
    out = np.empty((len(_xy_states(config)), len(dests)))
    for k, xy in enumerate(_xy_states(config)):
        joint = np.multiply.outer(
            xy.reshape(config.m, config.big_n),
            np.multiply.outer(d_vec.reshape([config.cell_dim] * config.m), _p_zero(config)),
        )
        for t, dest in enumerate(dests):
            a = _apply_m_full(config, dest, _apply_o_full(config, joint))
            b = _apply_o_full(config, _apply_m_full(config, dest, joint))
            out[k, t] = pure_trace_distance(a, b)
    return out


def roe_almost_commutation(f: CommitFunction) -> float:
    """max trace distance between the two orders of one S.E and one S.RO query."""
    config = OracleConfig(f.n, f.m)
    relations = [f.relation_for(t) for t in f.t_values]
    return max(roe_distances(config, relations, sim.backend.d_vector()).max()
               for leaves in _prep_leaves(f) for _, sim, _ in leaves)
