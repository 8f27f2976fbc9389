"""Mutable dense state over labeled registers: the joint-evolution workhorse.

A RegisterState is single-owner and is mutated in place by gates, queries
and measurement collapse.  Registers can be attached and detached on the fly
(query ancillas, purification registers).
"""

from __future__ import annotations

import math

import numpy as np

from .branching import PROB_FLOOR, _clean_probs
from .config import ATOL, DIM_CAP
from .linalg import LayoutError, _axes_plan, apply_on_axes


class RegisterState:
    def __init__(self, pairs):
        self._labels: list[str] = [str(lab) for lab, _ in pairs]
        self._dims: list[int] = [int(d) for _, d in pairs]
        if len(set(self._labels)) != len(self._labels):
            raise LayoutError("duplicate register labels")
        self._check_cap()
        self.tensor = np.zeros(self._dims, dtype=complex)
        self.tensor[(0,) * len(self._dims)] = 1.0

    def _check_cap(self, extra: int = 1) -> None:
        if (total := math.prod(self._dims, start=extra)) > DIM_CAP:
            raise LayoutError(f"total dimension {total} exceeds cap {DIM_CAP}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._labels)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(self._dims)

    @property
    def dim(self) -> int:
        return int(np.prod(self._dims, dtype=object))

    def axis(self, label: str) -> int:
        try:
            return self._labels.index(label)
        except ValueError:
            raise LayoutError(f"unknown register {label!r}") from None

    def vector(self) -> np.ndarray:
        return self.tensor.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor))

    def set_vector(self, vec) -> None:
        # copy: collapse mutates in place and must never alias caller buffers
        self.tensor = np.array(vec, dtype=complex).reshape(self._dims)

    def copy(self) -> "RegisterState":
        return self._like(list(self._labels), list(self._dims), self.tensor.copy())

    def _like(self, labels: list[str], dims: list[int], tensor) -> "RegisterState":
        """A state of this state's type, carrying its other attributes (a
        subclass's config), over the given registers and tensor."""
        out = type(self).__new__(type(self))
        out.__dict__.update(self.__dict__)
        out._labels, out._dims, out.tensor = labels, dims, tensor
        return out

    # -- register management -------------------------------------------------

    def add_register(self, label: str, dim: int, value=0) -> None:
        """Append a register in a basis state (int) or explicit vector."""
        if label in self._labels:
            raise LayoutError(f"register {label!r} already present")
        self._check_cap(extra=dim)
        if np.isscalar(value):
            vec = np.zeros(dim, dtype=complex)
            vec[int(value)] = 1.0
        else:
            vec = np.asarray(value, dtype=complex).reshape(dim)
        self.tensor = np.multiply.outer(self.tensor, vec)
        self._labels.append(label)
        self._dims.append(dim)

    def remove_register(self, label: str) -> int:
        """Drop a register that sits in a computational basis state; returns its value."""
        rows, order = self._rows([label])
        mass = np.sum(np.abs(rows) ** 2, axis=1)
        value = int(np.argmax(mass))
        if not mass[value] >= (1.0 - ATOL) * mass.sum():  # `not >=` so that NaN fails
            raise LayoutError(f"register {label!r} is not in a basis state")
        del self._labels[order[0]]
        del self._dims[order[0]]
        self.tensor = rows[value].reshape(self._dims)
        return value

    # -- evolution -----------------------------------------------------------

    def apply(self, matrix: np.ndarray, labels) -> None:
        axes = [self.axis(lab) for lab in labels]
        self.tensor = apply_on_axes(np.asarray(matrix, dtype=complex), self.tensor, axes)

    # -- measurement ---------------------------------------------------------

    def _rows(self, labels) -> tuple[np.ndarray, tuple[int, ...]]:
        """The tensor with one row per outcome of the named registers, and the
        axis order (theirs first, the rest in order) it was flattened in."""
        order, _ = _axes_plan(self.tensor.ndim, tuple(self.axis(lab) for lab in labels))
        k = math.prod(self._dims[a] for a in order[:len(labels)])
        return self.tensor.transpose(order).reshape(k, -1), order

    def born_probs(self, labels) -> np.ndarray:
        rows, _ = self._rows(labels)
        return np.sum(np.abs(rows) ** 2, axis=1)

    def measure(self, labels, chooser) -> tuple[int, ...]:
        """Projective measurement of the named registers; collapses in place."""
        axes = [self.axis(lab) for lab in labels]
        flat = chooser.choose(self.born_probs(labels))
        outcome = tuple(int(v) for v in np.unravel_index(flat, [self._dims[a] for a in axes]))
        idx: list = [slice(None)] * self.tensor.ndim
        for a, v in zip(axes, outcome):
            idx[a] = v
        kept = self.tensor[tuple(idx)]
        nrm = np.linalg.norm(kept)
        if nrm <= 0.0:
            raise ValueError("collapse onto zero-probability outcome")
        self.tensor = np.zeros_like(self.tensor)
        self.tensor[tuple(idx)] = kept / nrm
        return outcome

    def measured_branches(self, labels) -> list[tuple[float, "RegisterState", tuple[int, ...]]]:
        """(probability, post-measurement state, outcome) for every outcome of
        the named registers above PROB_FLOOR, those registers removed: the
        collapses that measure_and_remove makes, on new states, each one row
        of _rows over the square root of its Born weight.  The probabilities
        go through the same mass check as a chooser's."""
        rows, order = self._rows(labels)
        weights = np.sum(np.abs(rows) ** 2, axis=1)
        probs = _clean_probs(weights)
        sub, keep = [self._dims[a] for a in order[:len(labels)]], order[len(labels):]
        out = []
        for flat in np.nonzero(probs > PROB_FLOOR)[0]:
            dims = [self._dims[a] for a in keep]
            child = self._like([self._labels[a] for a in keep], dims,
                               (rows[flat] / math.sqrt(weights[flat])).reshape(dims))
            outcome = tuple(int(v) for v in np.unravel_index(flat, sub))
            out.append((float(probs[flat]), child, outcome))
        return out

    def measure_and_remove(self, labels, chooser) -> tuple[int, ...]:
        outcome = self.measure(labels, chooser)
        for lab in labels:
            self.remove_register(lab)
        return outcome

    # -- read-out ------------------------------------------------------------

    def density(self, labels) -> np.ndarray:
        """Reduced density operator on the named registers (partial trace)."""
        rows, _ = self._rows(labels)
        return rows @ rows.conj().T

    def subvector(self, labels) -> np.ndarray:
        """Pure-state vector on the named registers; requires the rest to be trivial."""
        if set(labels) != set(self._labels):
            rho = self.density(labels)
            vals, vecs = np.linalg.eigh(rho)
            if not vals[-1] >= 1.0 - ATOL:  # `not >=` so that NaN fails
                raise LayoutError("registers are entangled with the remainder")
            return vecs[:, -1] * np.sqrt(vals[-1])
        return self._rows(labels)[0].reshape(-1)
