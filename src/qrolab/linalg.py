"""Exact dense complex linear algebra over labeled multi-register spaces.

Register ordering convention: the declaration order of a RegisterLayout is
the tensor order, and all matrices/vectors use the row-major lexicographic
index over registers in that order (numpy reshape order).  An operator
embedded on a subset of registers acts as identity on all others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .config import ATOL, DENSE_SVD_CUTOFF, DIM_CAP, POWER_MAXITER, POWER_TOL


class LayoutError(ValueError):
    """Malformed register layout or mismatched layouts."""


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered list of (label, dim) registers spanning a tensor-product space."""

    registers: tuple[tuple[str, int], ...]
    cap: int = DIM_CAP

    def __post_init__(self):
        labels = [lab for lab, _ in self.registers]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate register labels in {labels}")
        if any(d < 1 for _, d in self.registers):
            raise LayoutError("register dimensions must be positive")
        if self.dim > self.cap:
            raise LayoutError(f"total dimension {self.dim} exceeds cap {self.cap}")

    @classmethod
    def of(cls, *pairs: tuple[str, int], cap: int = DIM_CAP) -> "RegisterLayout":
        return cls(tuple((str(lab), int(d)) for lab, d in pairs), cap=cap)

    @property
    def dim(self) -> int:
        out = 1
        for _, d in self.registers:
            out *= d
        return out

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.registers)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.registers)

    def axis(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.registers):
            if lab == label:
                return i
        raise LayoutError(f"unknown register label {label!r}")

    def dim_of(self, label: str) -> int:
        return self.registers[self.axis(label)][1]

    def restrict(self, labels) -> "RegisterLayout":
        return RegisterLayout(
            tuple((lab, self.dim_of(lab)) for lab in labels), cap=self.cap
        )


@dataclass
class StateVector:
    """Dense complex amplitude vector over a RegisterLayout."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.amplitudes.shape != (self.layout.dim,):
            raise LayoutError(
                f"amplitude length {self.amplitudes.shape} != layout dim {self.layout.dim}"
            )

    @classmethod
    def basis(cls, layout: RegisterLayout, index: int) -> "StateVector":
        amps = np.zeros(layout.dim, dtype=complex)
        amps[index] = 1.0
        return cls(layout, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, atol: float = ATOL) -> bool:
        return abs(self.norm() - 1.0) <= atol

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape(self.layout.dims)

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass
class DenseOperator:
    """Dense complex square matrix over a RegisterLayout, with advisory flags."""

    layout: RegisterLayout
    matrix: np.ndarray
    is_unitary: bool = False
    is_projector: bool = False

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = self.layout.dim
        if self.matrix.shape != (d, d):
            raise LayoutError(f"matrix shape {self.matrix.shape} != ({d}, {d})")
        if self.is_unitary:
            dev = np.abs(self.matrix.conj().T @ self.matrix - np.eye(d)).max()
            if dev > ATOL:
                raise ValueError(f"is_unitary set but deviation {dev:.3e} > {ATOL}")
        if self.is_projector:
            dev = np.abs(self.matrix @ self.matrix - self.matrix).max()
            herm = np.abs(self.matrix - self.matrix.conj().T).max()
            if dev > ATOL or herm > ATOL:
                raise ValueError("is_projector set but not an orthogonal projector")

    def apply(self, state: StateVector) -> StateVector:
        if self.layout != state.layout:
            raise LayoutError("layout mismatch in operator application")
        return StateVector(state.layout, self.matrix @ state.amplitudes)


def embed_operator(
    op: DenseOperator, targets, full: RegisterLayout
) -> DenseOperator:
    """Embed op (acting on `targets`, in that order) into `full`, identity elsewhere."""
    targets = list(targets)
    target_axes = [full.axis(t) for t in targets]
    sub_dims = [full.dims[a] for a in target_axes]
    if tuple(sub_dims) != op.layout.dims:
        raise LayoutError(
            f"operator dims {op.layout.dims} do not match targets {tuple(sub_dims)}"
        )
    rest_axes = [a for a in range(len(full.dims)) if a not in target_axes]
    rest_dim = 1
    for a in rest_axes:
        rest_dim *= full.dims[a]
    big = np.kron(op.matrix, np.eye(rest_dim))
    # big lives on (targets..., rest...); idx[j] = full-space flat index of
    # that ordering's j-th basis vector.  Conjugating by the permutation
    # restores the declared register order of `full`.
    idx = (
        np.arange(full.dim)
        .reshape(full.dims)
        .transpose(target_axes + rest_axes)
        .reshape(-1)
    )
    out = np.empty((full.dim, full.dim), dtype=complex)
    out[np.ix_(idx, idx)] = big
    return DenseOperator(full, out, is_unitary=op.is_unitary, is_projector=op.is_projector)


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


def operator_norm(op) -> float:
    """Largest singular value of a DenseOperator or raw matrix."""
    matrix = op.matrix if isinstance(op, DenseOperator) else np.asarray(op)
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
    iteration when Lanczos does not converge.
    """
    gram = spla.LinearOperator(
        (dim, dim), matvec=lambda v: apply_adj(apply(v)), dtype=complex
    )
    try:
        vals = spla.eigsh(gram, k=1, which="LA", tol=1e-14, return_eigenvectors=False)
        return float(np.sqrt(max(vals[0].real, 0.0)))
    except (spla.ArpackNoConvergence, RuntimeError):
        pass
    rng = np.random.default_rng(7)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
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


def commutator(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """AB - BA on a common layout."""
    if a.layout != b.layout:
        raise LayoutError("commutator requires a common layout")
    return DenseOperator(a.layout, a.matrix @ b.matrix - b.matrix @ a.matrix)


def _check_density(matrix: np.ndarray, atol: float) -> None:
    herm = np.abs(matrix - matrix.conj().T).max()
    if herm > atol:
        raise ValueError(f"density operator not Hermitian within {atol}: {herm:.3e}")
    tr = complex(np.trace(matrix))
    if abs(tr - 1.0) > atol:
        raise ValueError(f"density operator trace {tr} not 1 within {atol}")


def trace_distance(rho, sigma, atol: float = ATOL) -> float:
    """Half the Schatten-1 norm of rho - sigma for two density operators."""
    r = rho.matrix if isinstance(rho, DenseOperator) else np.asarray(rho, dtype=complex)
    s = sigma.matrix if isinstance(sigma, DenseOperator) else np.asarray(sigma, dtype=complex)
    if r.shape != s.shape:
        raise LayoutError("trace_distance requires equal shapes")
    _check_density(r, atol)
    _check_density(s, atol)
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
    """Density operator sum_k p_k |psi_k><psi_k| from (prob, vector) pairs."""
    rho = None
    for p, vec in branches:
        v = np.asarray(vec).reshape(-1)
        term = p * np.outer(v, v.conj())
        rho = term if rho is None else rho + term
    return rho


def total_variation(p: dict, q: dict) -> float:
    """Total variational distance between two outcome->probability dicts."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
