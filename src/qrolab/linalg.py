"""Exact dense linear algebra on plain numpy arrays over multi-register spaces.

Register ordering convention: a state is a tensor with one axis per
register, in declaration order, and flat vectors and matrices use the
row-major lexicographic index over those axes (numpy reshape order).  An
operator applied to a subset of registers acts as identity on all others.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import ATOL, DENSE_SVD_CUTOFF


class LayoutError(ValueError):
    """Malformed register layout or mismatched layouts."""


@lru_cache(maxsize=None)
def _axes_plan(ndim: int, axes: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(order, back): the transpose that brings `axes` (negatives counted from
    the end) to the front, the rest in order, and its inverse."""
    front = [a % ndim for a in axes if -ndim <= a < ndim]
    if len(set(front)) != len(axes):
        raise LayoutError(f"axes {axes} repeat or lie outside {ndim} axes")
    order = tuple(front + [a for a in range(ndim) if a not in front])
    return order, tuple(order.index(a) for a in range(ndim))


def apply_on_axes(matrix: np.ndarray, tensor: np.ndarray, axes) -> np.ndarray:
    """Apply a small operator to the given axes of a state tensor.

    matrix has shape (prod(dims[axes]), prod(dims[axes])); result keeps the
    original axis order.  This is the workhorse for large spaces where dense
    embedding would be wasteful: one transpose from a cached plan, one matrix
    product on the flattened target axes, and the transpose back.
    """
    axes = tuple(axes)
    order, back = _axes_plan(tensor.ndim, axes)
    moved = tensor.transpose(order)
    k = math.prod(moved.shape[:len(axes)])
    if matrix.shape != (k, k):
        raise LayoutError(f"matrix of shape {matrix.shape} on axes {axes} of dims "
                          f"{tensor.shape}: need ({k}, {k})")
    return np.dot(matrix, moved.reshape(k, -1)).reshape(moved.shape).transpose(back)


def operator_norm(matrix) -> float | np.ndarray:
    """Largest singular value of a matrix, or of each matrix in a stack.

    A 2-D matrix gives a float.  A stack of shape (..., d, d) gives an array
    of shape (...), one norm per matrix from one batched SVD; stacks are
    taken only at d <= DENSE_SVD_CUTOFF, since above it the norm is Lanczos
    (`spectral_norm_linop`, real when the matrix is) on one matrix at a time.
    """
    matrix = np.asarray(matrix)
    if not np.isfinite(matrix).all():
        raise ValueError("operator has non-finite entries")
    d = matrix.shape[-1]
    if d <= DENSE_SVD_CUTOFF:
        norms = np.linalg.svd(matrix, compute_uv=False)[..., 0]
        return float(norms) if matrix.ndim == 2 else norms
    if matrix.ndim != 2:
        raise ValueError(f"a stack of matrices of side {d} is above the dense cutoff "
                         f"{DENSE_SVD_CUTOFF}")
    return spectral_norm_linop(lambda v: matrix @ v, lambda v: matrix.conj().T @ v, d)


def spectral_norm_linop(apply, apply_adj, dim: int) -> float:
    """Largest singular value of an implicitly given operator A.

    Lanczos on A^dag A, fully reorthogonalized (two Gram-Schmidt passes per
    step), from a seeded real start vector: a real operator only ever sees real
    vectors, and a complex one turns the Krylov vectors complex.  It stops at
    the first step j where the top Ritz pair's residual |beta_j s_j| is at most
    1e-14 theta_j, or where beta_j = 0: the Krylov space is used up, and A = 0
    gives exactly 0.0.  A non-finite A^dag A v raises ValueError.  Until this
    was numpy, scipy's eigsh ran ARPACK's non-symmetric Arnoldi driver on the
    complex-typed operator, and its last bits changed from process to process.
    """
    rng = np.random.default_rng(7)
    v = rng.normal(size=dim)
    basis, alphas, betas = [v / np.linalg.norm(v)], [], []
    while True:
        w = apply_adj(apply(basis[-1]))
        alphas.append(np.vdot(basis[-1], w).real)
        q = np.array(basis)
        for _ in range(2):
            w = w - q.T @ (q.conj() @ w)
        beta = np.linalg.norm(w)
        if not np.isfinite(beta):
            raise ValueError("operator returned non-finite values")
        theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        if beta == 0.0 or abs(beta * s[-1, -1]) <= 1e-14 * theta[-1] or len(basis) == dim:
            return float(np.sqrt(max(theta[-1], 0.0)))
        betas.append(beta)
        basis.append(w / beta)


def _check_density(matrix: np.ndarray) -> None:
    # written as `not <=` so that a NaN entry fails both checks
    herm = np.abs(matrix - matrix.conj().T).max()
    if not herm <= ATOL:
        raise ValueError(f"density operator not Hermitian within {ATOL}: {herm:.3e}")
    tr = complex(np.trace(matrix))
    if not abs(tr - 1.0) <= ATOL:
        raise ValueError(f"density operator trace {tr} not 1 within {ATOL}")


def _real_if_exact(matrix) -> np.ndarray:
    """The matrix, in real arithmetic when its imaginary part is exactly 0."""
    matrix = np.asarray(matrix)
    return matrix if matrix.imag.any() else matrix.real


def trace_distance(rho, sigma) -> float:
    """Half the Schatten-1 norm of rho - sigma for two density operators, in
    real arithmetic when both are real-valued."""
    r, s = _real_if_exact(rho), _real_if_exact(sigma)
    if r.shape != s.shape:
        raise LayoutError("trace_distance requires equal shapes")
    _check_density(r)
    _check_density(s)
    diff = (r - s + (r - s).conj().T) / 2
    eigs = np.linalg.eigvalsh(diff)
    return float(min(max(0.5 * np.sum(np.abs(eigs)), 0.0), 1.0))


def density_from_branches(branches) -> np.ndarray:
    """Density operator sum_k p_k B_k B_k^dag from (prob, B_k) pairs, B_k a vector or a
    D x r block (d_rows()), as one product (V^T diag(w)) conj(V), V's rows all B_k's columns;
    real when every B_k is real-valued."""
    probs, rows = zip(*((p, np.asarray(b).reshape(len(b), -1).T) for p, b in branches))
    v = _real_if_exact(np.concatenate(rows))
    return (v.T * np.repeat(probs, [len(r) for r in rows])) @ v.conj()


def total_variation(p: dict, q: dict) -> float:
    """Total variational distance between two outcome->probability dicts.

    fsum rounds once, so the set's hash order cannot reach the last bits."""
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))
