"""The compressed random oracle: unitaries F and O, and classical-query semantics.

Basis convention for every database cell D_x: indices 0..2^n-1 are the
computational values |y>, index 2^n is the empty symbol |bot>.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DIM_CAP
from .engine import RegisterState
from .linalg import LayoutError, _axes_plan, apply_on_axes
from .sparse import ProductState, SparseState


def d_label(x: int) -> str:
    return f"D{x}"


@lru_cache(maxsize=None)
def walsh(n: int) -> np.ndarray:
    """The n-bit Walsh-Hadamard transform as a 2^n x 2^n real matrix."""
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    out = np.array([[1.0]])
    for _ in range(n):
        out = np.kron(out, h1)
    return out


@lru_cache(maxsize=None)
def build_f(n: int) -> np.ndarray:
    """F on one cell: swaps |bot> and |phi_0>, fixes the other Hadamard states."""
    if n < 1:
        raise ValueError("n must be at least 1")
    big_n = 2**n
    w = walsh(n)
    phi0 = w[:, 0]
    f = np.zeros((big_n + 1, big_n + 1))
    f[:big_n, :big_n] = np.eye(big_n) - np.outer(phi0, phi0)
    f[:big_n, big_n] = phi0
    f[big_n, :big_n] = phi0
    return f


@lru_cache(maxsize=None)
def build_o_small(n: int) -> np.ndarray:
    """O^x on the pair (Y, D_x): F . CNOT . F with D_x the CNOT control."""
    big_n = 2**n
    bot = big_n
    dim = big_n * (big_n + 1)
    cnot = np.zeros((dim, dim))
    for y in range(big_n):
        for c in range(big_n + 1):
            src = y * (big_n + 1) + c
            y_out = y if c == bot else (y ^ c)
            cnot[y_out * (big_n + 1) + c, src] = 1.0
    fi = np.kron(np.eye(big_n), build_f(n))
    return fi @ cnot @ fi


@lru_cache(maxsize=None)
def _kraus(n: int) -> np.ndarray:
    """O^x's Kraus columns at input Y = 0: the isometry D_x -> (Y, D_x)."""
    big_n, cd = 2**n, 2**n + 1
    return build_o_small(n).reshape(big_n, cd, big_n, cd)[:, :, 0, :].reshape(-1, cd) + 0j


@dataclass(frozen=True)
class OracleConfig:
    """Output length n and domain size m (domain X = {0, ..., m-1})."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")

    @property
    def big_n(self) -> int:
        return 2**self.n

    @property
    def cell_dim(self) -> int:
        return self.big_n + 1

    @property
    def bot(self) -> int:
        return self.big_n

    def d_dim(self) -> int:
        return self.cell_dim**self.m

    def dense_feasible(self) -> bool:
        # early bailout: never materialize (2^n+1)^m for huge m
        total = self.m * self.big_n
        for _ in range(self.m):
            total *= self.cell_dim
            if total > DIM_CAP:
                return False
        return True

    def require_dense(self) -> None:
        if not self.dense_feasible():
            raise LayoutError(
                f"dense mode needs (2^n+1)^m * m * 2^n <= {DIM_CAP}; "
                f"got n={self.n}, m={self.m}"
            )


class DenseOracleState(RegisterState):
    """Compressed-oracle database D held in a dense joint state.

    The D registers start at |bot>; the prefix registers (adversary work
    space, X/Y query registers) follow them at |0> and evolve jointly with
    D.  Gates, measurement and copies are RegisterState's, and copies and
    measured branches are DenseOracleStates with this state's config.
    """

    def __init__(self, config: OracleConfig, prefix=()):
        self.config = config
        super().__init__([(d_label(x), config.cell_dim) for x in range(config.m)])
        # initial database: every cell holds |bot>
        self.tensor[(0,) * config.m] = 0.0
        self.tensor[(config.bot,) * config.m] = 1.0
        for label, dim in prefix:
            self.add_register(label, dim)

    def _queried(self, x: int) -> "DenseOracleState":
        """A new state: this one after a classical query's O^x at x, before its
        measurement, with the response register _qY last.  _qY enters in |0>,
        so O^x is one product of its Kraus columns there with the D_x axis."""
        if not 0 <= x < self.config.m:
            raise ValueError(f"x={x} out of domain range")
        self._check_cap(extra=self.config.big_n)
        rows, order = self._rows([d_label(x)])
        out = np.dot(_kraus(self.config.n), rows).reshape(
            [self.config.big_n] + [self._dims[a] for a in order])
        # out's axes are (_qY, D_x, rest): the plan that fronts those undoes it
        _, back = _axes_plan(len(order) + 1, (len(order), order[0]))
        return self._like(self._labels + ["_qY"], self._dims + [self.config.big_n],
                          out.transpose(back))

    def classical_query(self, x: int, chooser) -> int:
        """Classical RO query: prepare |x>|0>, apply O, measure Y, collapse."""
        queried = self._queried(x)
        (h,) = queried.measure_and_remove(["_qY"], chooser)
        self.tensor = queried.tensor
        return h

    def classical_query_probs(self, x: int) -> np.ndarray:
        """Response distribution of a classical query, without performing it."""
        return self._queried(x).born_probs(["_qY"])

    def classical_query_branches(self, x: int) -> list[tuple[float, "DenseOracleState", int]]:
        """(probability, post-query state, h) for every response h above
        PROB_FLOOR of a classical query at x.  The Kraus product runs once;
        each child is the _qY = h slice of that state, renormalized.  This
        state is left as it was."""
        return [(q, child, h) for q, child, (h,)
                in self._queried(x).measured_branches(["_qY"])]

    def quantum_query(self, x_label: str, y_label: str) -> None:
        """Apply O_XYD jointly on the X, Y registers and D: O^x on (Y, D_x)
        in each X = x slice."""
        o_small = np.asarray(build_o_small(self.config.n), dtype=complex)
        ax, y_ax = self.axis(x_label), self.axis(y_label)
        moved = np.moveaxis(self.tensor, ax, 0)
        pieces = []
        for x in range(self._dims[ax]):
            sub_axes = [a - (a > ax) for a in (y_ax, self.axis(d_label(x)))]
            pieces.append(apply_on_axes(o_small, moved[x], sub_axes))
        self.tensor = np.moveaxis(np.stack(pieces, axis=0), 0, ax)

    def d_vector(self) -> np.ndarray:
        return self.subvector([d_label(x) for x in range(self.config.m)])

    def d_rows(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """The joint state as a matrix with one row per database basis state,
        and the axis order (D axes first) it was flattened in."""
        return self._rows([d_label(x) for x in range(self.config.m)])


def oracle_state(backend: str, n: int, m: int, prefix=(), q_cap: int = 64):
    """A fresh compressed-oracle state with prefix registers (label, dim) at
    |0>: "dense" (DenseOracleState), "sparse" (SparseState, at most q_cap
    non-bot cells) or "product" (ProductState, no prefix registers)."""
    if backend == "dense":
        config = OracleConfig(n, m)
        config.require_dense()
        return DenseOracleState(config, prefix)
    if backend == "sparse":
        return SparseState(n, m, q_cap, prefix=prefix)
    if backend == "product":
        if prefix:
            raise ValueError("product backend has no prefix registers")
        return ProductState(n, m)
    raise ValueError(f"unknown backend {backend!r}")


class LazyRandomOracle:
    """Classical lazily-sampled random function {0..m-1} -> {0,1}^n.

    Fresh inputs draw through the chooser, so the oracle can run either
    seeded (RandomChooser) or inside an exhaustive enumeration.
    """

    def __init__(self, n: int, chooser):
        self.n = n
        self.chooser = chooser
        self.table: dict[int, int] = {}

    def query(self, x) -> int:
        if x not in self.table:
            self.table[x] = self.chooser.choose_uniform(2**self.n)
        return self.table[x]


def check_unitary(mat: np.ndarray) -> float:
    """Largest entry of |mat^dag mat - 1|; 0 for an exact unitary."""
    gram = mat.conj().T @ mat
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    return float(np.abs(gram).max())
