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
    """A finite relation R subset of {0..m-1} x {0,1}^n, held as one read-only
    boolean mask: mask[x, y] is whether (x, y) is in R.

    `member` is a predicate member(x, y) or an iterable of (x, y) pairs; a pair
    outside X x Y raises ValueError.
    """

    def __init__(self, n: int, m: int, member):
        self.n = n
        self.m = m
        if callable(member):
            member = [(x, y) for x in range(m) for y in range(2**n) if member(x, y)]
        mask = np.zeros((m, 2**n), dtype=bool)
        for x, y in member:
            # checked here: a negative index would wrap in the mask
            if not (0 <= x < m and 0 <= y < 2**n):
                raise ValueError(f"pair ({x}, {y}) lies outside X x Y = "
                                 f"0..{m - 1} x 0..{2**n - 1}")
            mask[x, y] = True
        mask.flags.writeable = False
        self.mask = mask
        self._outcomes: np.ndarray | None = None  # see outcome_array

    @classmethod
    def from_pairs(cls, n: int, m: int, pairs) -> "Relation":
        return cls(n, m, list(pairs))

    def member(self, x: int, y: int) -> bool:
        return bool(self.mask[x, y])

    def y_set(self, x: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.mask[x]).tolist())

    def gamma_x(self, x: int) -> int:
        return int(np.count_nonzero(self.mask[x]))

    @property
    def gamma(self) -> int:
        return int(self.mask.sum(axis=1).max(initial=0))

    def pairs(self) -> list[tuple[int, int]]:
        return [(x, y) for x, y in np.argwhere(self.mask).tolist()]


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
        rows = [list(row) for row in table]
        big_n = len(rows[0])
        n = big_n.bit_length() - 1
        if 2**n != big_n:
            raise ValueError("table rows must have length 2^n")
        for x, row in enumerate(rows):
            if len(row) != big_n:
                raise ValueError(f"table row {x} has length {len(row)}, "
                                 f"row 0 has {big_n}")
        return cls(n, len(rows), lambda x, y: rows[x][y], name=name)

    def __call__(self, x: int, y: int):
        return self.fn(x, y)

    def relation_for(self, t) -> Relation:
        """The relation f(x, y) = t, made once per t so its mask and outcome
        array are built once."""
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


# -- the extraction measurement ----------------------------------------------


def require_same_shape(rel: Relation, config: OracleConfig) -> None:
    """Raise ValueError unless rel lives on the config's (n, m)."""
    if (rel.n, rel.m) != (config.n, config.m):
        raise ValueError(f"relation on (n, m) = ({rel.n}, {rel.m}) used with "
                         f"config ({config.n}, {config.m})")


def outcome_array(rel: Relation, config: OracleConfig) -> np.ndarray:
    """For every database basis index, the measurement outcome.

    Entry value x in 0..m-1 means D_x is the first register holding a value
    in the relation; value m encodes the empty outcome.  Built once per
    relation and returned read-only.
    """
    require_same_shape(rel, config)
    if rel._outcomes is not None:
        return rel._outcomes
    cd = config.cell_dim
    hits = np.zeros((config.m, cd), dtype=bool)  # the last cell, bot, is in no relation
    hits[:, :-1] = rel.mask
    out = np.full(config.d_dim(), config.m, dtype=np.int64)
    # iterate x from the largest down so smaller x overwrite: smallest index wins
    for x in reversed(range(config.m)):
        pre = cd**x
        post = cd ** (config.m - 1 - x)
        out[np.tile(np.repeat(hits[x], post), pre)] = x
    out.flags.writeable = False
    rel._outcomes = out
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
    rows, order = oracle_state.d_rows()
    mass = np.sum(np.abs(rows) ** 2, axis=1)
    probs = np.bincount(arr, weights=mass, minlength=config.m + 1)
    code = chooser.choose(probs)  # 0..m-1 are x outcomes, m is empty
    # one product writes a new array: rows may be a view of the state's tensor
    collapsed = rows * ((arr == code) / np.sqrt(probs[code]))[:, None]
    back = collapsed.reshape([oracle_state.dims[a] for a in order])
    oracle_state.tensor = np.transpose(back, np.argsort(order))
    return ExtractionOutcome(None if code == config.m else code, config.m)
