"""Reference commutator norms built densely, one basis column at a time.

These are the brute-force forms of `OxMCommutator.norm` and of the
`local-O-PiEmpty` norm in `verify_local_bounds`, kept as the oracles the
P-Fourier block norm, the Lanczos path and the factored [O^x, Pi^empty] are
checked against, together with the dense Pi^empty itself.  The Pi^empty
matrix has side (2^n + 1)^m, and the commutator 2^n (2^n + 1)^m, so keep n,
m tiny.
"""

from __future__ import annotations

import numpy as np

from qrolab.linalg import apply_on_axes, operator_norm
from qrolab.oracle import OracleConfig, build_o_small
from qrolab.relations import Relation, projectors_for_relation, purified_m_permutation


def oxm_norm_by_columns(rel: Relation, config: OracleConfig, x: int) -> float:
    """||[O^x, M_DP]|| on Y (x) D (x) P from the matrix built column by column."""
    o_small = build_o_small(config.n)
    dest = purified_m_permutation(rel, config)
    dims = [config.big_n] + [config.cell_dim] * config.m + [config.m + 1]
    dim = int(np.prod(dims))

    def apply_o(flat):
        return apply_on_axes(o_small, flat.reshape(dims), [0, 1 + x]).reshape(-1)

    def apply_m(flat):
        rows = flat.reshape(config.big_n, -1)
        out = np.empty_like(rows)
        out[:, dest] = rows
        return out.reshape(-1)

    eye = np.eye(dim, dtype=complex)
    cols = np.stack([apply_o(apply_m(eye[:, j])) - apply_m(apply_o(eye[:, j]))
                     for j in range(dim)], axis=1)
    return float(np.linalg.svd(cols, compute_uv=False)[0])


def pi_empty(rel: Relation, config: OracleConfig) -> np.ndarray:
    """The dense Pi^empty on D: the Kronecker product of every 1 - Pi^x."""
    locals_ = projectors_for_relation(rel, config)
    empty = np.array([[1.0]])
    for x in range(config.m):
        empty = np.kron(empty, np.eye(config.cell_dim) - locals_[x])
    return empty


def o_pi_empty_norm_dense(n: int, rel: Relation, x: int) -> float:
    """||[O^x, 1_Y (x) Pi^empty]|| on Y (x) D with the dense Pi^empty matrix."""
    config = OracleConfig(n, rel.m)
    o_small = build_o_small(n)
    empty = pi_empty(rel, config)
    dims = [config.big_n] + [config.cell_dim] * rel.m
    dim = int(np.prod(dims))
    eye = np.eye(dim, dtype=complex).reshape(dims + [dim])
    p_emb = np.kron(np.eye(config.big_n), empty)
    o_x = apply_on_axes(o_small, eye, [0, 1 + x]).reshape(dim, dim)
    return operator_norm(o_x @ p_emb - p_emb @ o_x)
