"""Relations R on X x Y, commit functions f(x, y), and the extraction measurement.

The measurement projectors are diagonal in the computational basis of the
database D, so the purified measurement M_DP is a permutation matrix: basis
state |db>|w> maps to |db>|w + enc(outcome(db))> with enc(empty) = 0 and
enc(x) = x + 1 in Z/(m+1)Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import OracleConfig

@dataclass(frozen=True)
class ExtractionOutcome:
    """Either a domain element x or the empty symbol, encoded in Z/(m+1)Z."""

    value: int | None
    m: int

    @property
    def is_empty(self) -> bool:
        return self.value is None

    @property
    def encoded(self) -> int:
        return 0 if self.value is None else self.value + 1


class Relation:
    """A finite relation R subset of {0..m-1} x {0,1}^n."""

    def __init__(self, n: int, m: int, member):
        self.n = n
        self.m = m
        if callable(member):
            self._member = member
        else:
            pairs = frozenset((int(x), int(y)) for x, y in member)
            self._member = lambda x, y: (x, y) in pairs
        self._ysets: dict[int, tuple[int, ...]] = {}
        self._outcomes: dict[tuple[int, int], np.ndarray] = {}  # see outcome_array

    @classmethod
    def from_pairs(cls, n: int, m: int, pairs) -> "Relation":
        return cls(n, m, list(pairs))

    def member(self, x: int, y: int) -> bool:
        return bool(self._member(x, y))

    def y_set(self, x: int) -> tuple[int, ...]:
        if x not in self._ysets:
            self._ysets[x] = tuple(y for y in range(2**self.n) if self.member(x, y))
        return self._ysets[x]

    def gamma_x(self, x: int) -> int:
        return len(self.y_set(x))

    @property
    def gamma(self) -> int:
        return max((self.gamma_x(x) for x in range(self.m)), default=0)

    def pairs(self):
        for x in range(self.m):
            for y in self.y_set(x):
                yield (x, y)


def gamma_of_f(f, xs, n: int) -> int:
    """Gamma(f) = max_{x,t} #{y : f(x,y) = t} by brute force."""
    best = 0
    for x in xs:
        counts: dict = {}
        for y in range(2**n):
            t = f(x, y)
            counts[t] = counts.get(t, 0) + 1
        if counts:
            best = max(best, max(counts.values()))
    return best


def gamma_prime_of_f(f, xs, n: int) -> int:
    """Gamma'(f) = max_{x != x', y'} #{y : f(x,y) = f(x',y')} by brute force."""
    xs = list(xs)
    images = {x: [f(x, y) for y in range(2**n)] for x in xs}
    best = 0
    for x in xs:
        counts: dict = {}
        for t in images[x]:
            counts[t] = counts.get(t, 0) + 1
        for xp in xs:
            if xp == x:
                continue
            for t in set(images[xp]):
                best = max(best, counts.get(t, 0))
    return best


class CommitFunction:
    """A total map f: X x {0,1}^n -> T with finite, enumerable T.

    Gamma values are computed by brute force when the spaces are small; for
    large domains the caller supplies them (they are then spot-checked by the
    test-suite at reduced sizes, never trusted blindly in assertions).
    """

    def __init__(self, n, m, fn, t_values=None, gamma=None, gamma_prime=None,
                 preimage_fn=None, name="f"):
        self.n = n
        self.m = m
        self.fn = fn
        self.name = name
        self._preimage_fn = preimage_fn
        small = m * 2**n <= 2**16
        if t_values is not None:
            # ranges keep O(1) membership checks for huge T
            self.t_values = t_values if isinstance(t_values, range) else tuple(t_values)
        elif small:
            self.t_values = tuple(sorted({fn(x, y) for x in range(m) for y in range(2**n)}))
        else:
            raise ValueError("t_values required for large commit functions")
        if gamma is None or gamma_prime is None:
            if not small:
                raise ValueError("explicit gamma values required for large domains")
            gamma = gamma_of_f(fn, range(m), n)
            gamma_prime = gamma_prime_of_f(fn, range(m), n)
        self.gamma = int(gamma)
        self.gamma_prime = int(gamma_prime)
        self._relations: dict = {}

    @classmethod
    def from_table(cls, table, name="table") -> "CommitFunction":
        """table[x][y] -> t for x in range(m), y in range(2^n)."""
        m = len(table)
        big_n = len(table[0])
        n = big_n.bit_length() - 1
        if 2**n != big_n:
            raise ValueError("table rows must have length 2^n")
        rows = [list(row) for row in table]
        return cls(n, m, lambda x, y: rows[x][y], name=name)

    def __call__(self, x: int, y: int):
        return self.fn(x, y)

    def relation_for(self, t) -> Relation:
        """The relation f(x, y) = t, made once per t so its memos are kept."""
        if t not in self._relations:
            self._relations[t] = Relation(self.n, self.m, lambda x, y: self.fn(x, y) == t)
        return self._relations[t]

    def preimages(self, x: int, t) -> tuple[int, ...]:
        if self._preimage_fn is not None:
            return tuple(self._preimage_fn(x, t))
        return tuple(y for y in range(2**self.n) if self.fn(x, y) == t)


def identity_commit(n: int, m: int) -> CommitFunction:
    """f(x, y) = y; the plain hash commitment. Gamma = Gamma' = 1."""
    return CommitFunction(
        n, m, lambda x, y: y, t_values=range(2**n), gamma=1, gamma_prime=1,
        preimage_fn=lambda x, t: (t,), name="identity-y",
    )


def constant_commit(n: int, m: int) -> CommitFunction:
    """f(x, y) = 0; every y collides. Gamma = Gamma' = 2^n."""
    return CommitFunction(
        n, m, lambda x, y: 0, t_values=(0,), gamma=2**n, gamma_prime=2**n,
        preimage_fn=lambda x, t: tuple(range(2**n)) if t == 0 else (), name="constant",
    )


# -- projectors and the extraction measurement --------------------------------


def projectors_for_relation(rel: Relation, config: OracleConfig) -> dict:
    """The local projectors Pi^x on each D_x."""
    cd = config.cell_dim
    locals_ = {}
    for x in range(config.m):
        p = np.zeros((cd, cd))
        for y in rel.y_set(x):
            p[y, y] = 1.0
        locals_[x] = p
    return locals_


def outcome_array(rel: Relation, config: OracleConfig) -> np.ndarray:
    """For every database basis index, the measurement outcome.

    Entry value x in 0..m-1 means D_x is the first register holding a value
    in the relation; value m encodes the empty outcome.  Built once per
    (relation, n, m) and returned read-only.
    """
    key = (config.n, config.m)
    if key in rel._outcomes:
        return rel._outcomes[key]
    cd = config.cell_dim
    out = np.full(config.d_dim(), config.m, dtype=np.int64)
    # iterate x from the largest down so smaller x overwrite: smallest index wins
    for x in reversed(range(config.m)):
        hit = np.zeros(cd, dtype=bool)
        for y in rel.y_set(x):
            hit[y] = True
        pre = cd**x
        post = cd ** (config.m - 1 - x)
        mask = np.tile(np.repeat(hit, post), pre)
        out[mask] = x
    out.flags.writeable = False
    rel._outcomes[key] = out
    return out


def encoded_outcomes(rel: Relation, config: OracleConfig) -> np.ndarray:
    """outcome_array encoded as M_DP's shift of P: 0 for empty, x + 1 for x."""
    arr = outcome_array(rel, config)
    return np.where(arr == config.m, 0, arr + 1)


def purified_m_permutation(rel: Relation, config: OracleConfig) -> np.ndarray:
    """M_DP as a column-index permutation over the D (x) P basis.

    perm[j] = i means M maps basis state j to basis state i; encoded outcomes
    shift the P register cyclically.
    """
    enc = encoded_outcomes(rel, config)
    p_dim = config.m + 1
    d_idx = np.repeat(np.arange(config.d_dim()), p_dim)
    w = np.tile(np.arange(p_dim), config.d_dim())
    dest = d_idx * p_dim + (w + np.repeat(enc, p_dim)) % p_dim
    return dest


def measure_extraction_dense(oracle_state, rel: Relation, chooser) -> ExtractionOutcome:
    """Projective {Sigma^x} measurement on a DenseOracleState; collapses in place."""
    config = oracle_state.config
    arr = outcome_array(rel, config)
    moved, order = oracle_state.d_rows()
    mass = np.sum(np.abs(moved) ** 2, axis=1)
    probs = np.zeros(config.m + 1)
    np.add.at(probs, arr, mass)
    code = chooser.choose(probs)  # 0..m-1 are x outcomes, m is empty
    keep = arr == code
    moved[~keep, :] = 0.0
    nrm = np.linalg.norm(moved)
    moved /= nrm
    back = moved.reshape([oracle_state.dims[a] for a in order])
    oracle_state.tensor = np.transpose(back, np.argsort(order))
    return ExtractionOutcome(None if code == config.m else code, config.m)
