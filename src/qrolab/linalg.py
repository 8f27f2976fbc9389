"""Exact dense linear algebra on plain numpy arrays over multi-register spaces.

Register ordering convention: a state is a tensor with one axis per
register, in declaration order, and flat vectors and matrices use the
row-major lexicographic index over those axes (numpy reshape order).  An
operator applied to a subset of registers acts as identity on all others.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ATOL, DENSE_SVD_CUTOFF, POWER_MAXITER, POWER_TOL


class LayoutError(ValueError):
    """Malformed register layout or mismatched layouts."""


def apply_on_axes(matrix: np.ndarray, tensor: np.ndarray, axes) -> np.ndarray:
    """Apply a small operator to the given axes of a state tensor.

    matrix has shape (prod(dims[axes]), prod(dims[axes])); result keeps the
    original axis order.  This is the workhorse for large spaces where dense
    embedding would be wasteful.
    """
    axes = list(axes)
    dims = tensor.shape
    sub = [dims[a] for a in axes]
    mat_t = matrix.reshape(sub + sub)
    moved = np.tensordot(mat_t, tensor, axes=(list(range(len(sub), 2 * len(sub))), axes))
    # tensordot puts the contracted (target) axes first; move them home.
    return np.moveaxis(moved, list(range(len(axes))), axes)


def operator_norm(matrix) -> float:
    """Largest singular value of a matrix."""
    matrix = np.asarray(matrix)
    if not np.all(np.isfinite(matrix.real)) or not np.all(np.isfinite(matrix.imag)):
        raise ValueError("operator has non-finite entries")
    d = matrix.shape[0]
    if d <= DENSE_SVD_CUTOFF:
        return float(np.linalg.svd(matrix, compute_uv=False)[0])
    return spectral_norm_linop(
        lambda v: matrix @ v, lambda v: matrix.conj().T @ v, d
    )


def spectral_norm_linop(apply, apply_adj, dim: int) -> float:
    """Largest singular value of an implicitly given operator.

    Runs Lanczos (scipy eigsh) on A^dag A and falls back to plain power
    iteration when Lanczos does not converge.  Both start from the same
    seeded complex vector, so the result is the same in every run.  scipy is
    imported here, its only use, so importing qrolab does not load it.
    """
    import scipy.sparse.linalg as spla

    gram = spla.LinearOperator(
        (dim, dim), matvec=lambda v: apply_adj(apply(v)), dtype=complex
    )
    rng = np.random.default_rng(7)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    try:
        vals = spla.eigsh(gram, k=1, which="LA", tol=1e-14, v0=v, return_eigenvectors=False)
        return float(np.sqrt(max(vals[0].real, 0.0)))
    except (spla.ArpackNoConvergence, RuntimeError):
        pass
    lam = 0.0
    for _ in range(POWER_MAXITER):
        w = apply_adj(apply(v))
        lam_new = float(np.vdot(v, w).real)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(lam_new - lam) <= POWER_TOL * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(max(lam, 0.0)))


def _check_density(matrix: np.ndarray) -> None:
    herm = np.abs(matrix - matrix.conj().T).max()
    if herm > ATOL:
        raise ValueError(f"density operator not Hermitian within {ATOL}: {herm:.3e}")
    tr = complex(np.trace(matrix))
    if abs(tr - 1.0) > ATOL:
        raise ValueError(f"density operator trace {tr} not 1 within {ATOL}")


def trace_distance(rho, sigma) -> float:
    """Half the Schatten-1 norm of rho - sigma for two density operators."""
    r = np.asarray(rho, dtype=complex)
    s = np.asarray(sigma, dtype=complex)
    if r.shape != s.shape:
        raise LayoutError("trace_distance requires equal shapes")
    _check_density(r)
    _check_density(s)
    diff = (r - s + (r - s).conj().T) / 2
    eigs = np.linalg.eigvalsh(diff)
    return float(min(max(0.5 * np.sum(np.abs(eigs)), 0.0), 1.0))


def pure_trace_distance(phi: np.ndarray, psi: np.ndarray) -> float:
    """Trace distance of two pure states: sqrt(1 - |<phi|psi>|^2)."""
    a = np.asarray(phi).reshape(-1)
    b = np.asarray(psi).reshape(-1)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    ov = abs(np.vdot(a, b)) / (na * nb)
    return float(np.sqrt(max(0.0, 1.0 - min(ov, 1.0) ** 2)))


def density_from_branches(branches) -> np.ndarray:
    """Density operator sum_k p_k |psi_k><psi_k| from (prob, vector) pairs,
    as one product (V^T diag(p)) conj(V) over the rows psi_k of V."""
    probs, vecs = zip(*((p, np.asarray(vec).reshape(-1)) for p, vec in branches))
    v = np.array(vecs)
    return (v.T * np.array(probs)) @ v.conj()


def total_variation(p: dict, q: dict) -> float:
    """Total variational distance between two outcome->probability dicts.

    fsum rounds once, so the set's hash order cannot reach the last bits."""
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))
