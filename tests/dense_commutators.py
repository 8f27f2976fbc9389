"""Reference commutator norms built densely, one basis column at a time.

These are the brute-force forms of `OxMCommutator.norm` and of the
`local-O-PiEmpty` norm in `verify_local_bounds`, kept as the oracles the
block norm, the Lanczos path and the [O^x, Pi^empty] corollary are checked
against, together with the dense Pi^x and Pi^empty themselves.
`local_bounds_per_x` is `verify_local_bounds` as one loop over x with dense
projectors, single SVDs, np.kron lifts and the factored [O^x, Pi^empty], the
oracle of the stacked Hadamard form.  A second oracle for the
block norm takes the P-Fourier blocks on the whole of Y (x) D, without the
split over the spectator cells.  The Pi^empty matrix has side (2^n + 1)^m,
and the commutator 2^n (2^n + 1)^m, so keep n, m tiny.
"""

from __future__ import annotations

import numpy as np

from qrolab.bounds import Report, _commutator_norm, local_bound, timed
from qrolab.linalg import apply_on_axes, operator_norm
from qrolab.oracle import OracleConfig, build_f, build_o_small
from qrolab.relations import Relation, encoded_outcomes, purified_m_permutation


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


def oxm_norm_pfourier(rel: Relation, config: OracleConfig, x: int) -> float:
    """max_j ||K_j|| over the P-Fourier blocks j = 1 .. floor((m+1)/2) on all
    of Y (x) D (the bounds module docstring): one dense SVD of side
    2^n (2^n + 1)^m per j."""
    dims = [config.big_n] + [config.cell_dim] * config.m
    side = int(np.prod(dims))
    o = apply_on_axes(build_o_small(config.n), np.eye(side).reshape(dims + [side]),
                      [0, 1 + x]).reshape(side, side)
    p = config.m + 1
    enc = np.tile(encoded_outcomes(rel, config), config.big_n)
    lam = np.exp(2j * np.pi / p * np.outer(np.arange(1, p // 2 + 1), enc))
    blocks = o * (lam[:, None, :] - lam[:, :, None])
    return float(np.linalg.svd(blocks, compute_uv=False)[:, 0].max())


def projectors(rel: Relation) -> list[np.ndarray]:
    """The dense local projectors Pi^x on each D_x, built from y_set."""
    locals_ = []
    for x in range(rel.m):
        p = np.zeros((2**rel.n + 1, 2**rel.n + 1))
        for y in rel.y_set(x):
            p[y, y] = 1.0
        locals_.append(p)
    return locals_


def pi_empty(rel: Relation) -> np.ndarray:
    """The dense Pi^empty on D: the Kronecker product of every 1 - Pi^x."""
    empty = np.array([[1.0]])
    for p in projectors(rel):
        empty = np.kron(empty, np.eye(len(p)) - p)
    return empty


def o_pi_empty_norm_dense(n: int, rel: Relation, x: int) -> float:
    """||[O^x, 1_Y (x) Pi^empty]|| on Y (x) D with the dense Pi^empty matrix."""
    config = OracleConfig(n, rel.m)
    o_small = build_o_small(n)
    empty = pi_empty(rel)
    dims = [config.big_n] + [config.cell_dim] * rel.m
    dim = int(np.prod(dims))
    eye = np.eye(dim, dtype=complex).reshape(dims + [dim])
    p_emb = np.kron(np.eye(config.big_n), empty)
    o_x = apply_on_axes(o_small, eye, [0, 1 + x]).reshape(dim, dim)
    return operator_norm(o_x @ p_emb - p_emb @ o_x)


def local_bounds_per_x(n: int, rel: Relation) -> list[Report]:
    """Lemma-level bounds [F, Pi^x], [O^x, Pi^x], [O^x, Pi^empty] (factored) per x."""
    config = OracleConfig(n, rel.m)
    f = build_f(n)
    o_small = build_o_small(n)
    locals_ = projectors(rel)
    eye_y = np.eye(config.big_n)
    eye_d = np.eye(config.cell_dim)
    reports = []
    for x in range(rel.m):
        gx = rel.gamma_x(x)
        base = dict(n=n, M=rel.m, x=x, gamma=gx)
        pi = locals_[x]
        m1, ms1 = timed(lambda: _commutator_norm(f, pi))
        m2, ms2 = timed(lambda: _commutator_norm(o_small, np.kron(eye_y, pi)))
        m3, ms3 = timed(lambda: _commutator_norm(o_small, np.kron(eye_y, eye_d - pi))
                        * np.prod([operator_norm(eye_d - locals_[xp])
                                   for xp in range(rel.m) if xp != x]))
        reports.append(Report("local-F-Pi", base, m1, local_bound(n, gx),
                              runtime_ms=ms1))
        reports.append(Report("local-O-Pi", base, m2, 2 * local_bound(n, gx),
                              runtime_ms=ms2))
        reports.append(Report("local-O-PiEmpty", base, float(m3), 2 * local_bound(n, gx),
                              runtime_ms=ms3))
    return reports
