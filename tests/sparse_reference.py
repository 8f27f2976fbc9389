"""Reference flat-map backends: the dict-form SparseState and its per-entry operations.

`DictSparseState` is the flat-map `SparseState` as it was before the state
became arrays, kept unchanged: `amps`, a dict from (prefix tuple, db tuple)
to amplitude, is the state, and each operation reads it into arrays and
builds a new dict.  `ReferenceSparseState` is the brute-force form on top of
it, kept as the oracle `qrolab.sparse.SparseState` is checked against at tiny
n.  Every method it overrides walks the amplitude map one entry at a time:
grouping keys into columns in Python, one small matmul or FWHT per group, and
one dict write per output entry.  Norms, pruning, prefix measurement and
interop come from `DictSparseState`, so the oracle shares no code with the
array-form class beyond `fwht` and the shared constants.  `encoded` and
`dict_form` carry states between the two forms through `SparseState.amps`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from itertools import chain, compress, repeat
from operator import itemgetter

import numpy as np

from qrolab.config import DIM_CAP, PRUNE_EPS
from qrolab.oracle import walsh as _walsh_matrix
from qrolab.sparse import BOT, COMPUTATIONAL, HADAMARD, QCapError, SparseState, fwht


class BasisError(RuntimeError):
    """An operation needs both states in the same cell basis."""


def _normalized(amp: np.ndarray) -> np.ndarray:
    """amp scaled to unit norm; amp itself when it is already within 1e-15."""
    nrm = np.sqrt(np.vdot(amp, amp).real)
    if nrm <= 0.0:
        raise ValueError("zero state")
    return amp / nrm if abs(nrm - 1.0) > 1e-15 else amp


def _ids(items, count: int):
    """The distinct items in first-seen order, and each item's index among them."""
    index: dict = defaultdict()
    index.default_factory = index.__len__  # a new item gets the next index
    ids = np.fromiter(map(index.__getitem__, items), dtype=np.int64, count=count)
    return list(index), ids


def _split(db: tuple, x: int):
    """(cell of register x or BOT, pairs below x, pairs above x) of a sorted db."""
    i = bisect_left(db, (x,))
    if i < len(db) and db[i][0] == x:
        return db[i][1], db[:i], db[i + 1:]
    return BOT, db[:i], db[i:]


class DictSparseState:
    def __init__(self, n: int, m: int, q_cap: int, prefix=()):
        self.n = n
        self.m = m
        self.q_cap = q_cap
        self.basis = COMPUTATIONAL
        self.prefix = tuple((str(lab), int(d)) for lab, d in prefix)
        start = (0,) * len(self.prefix)
        self.amps: dict = {(start, ()): 1.0 + 0.0j}

    @property
    def big_n(self) -> int:
        return 2**self.n

    def prefix_axis(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.prefix):
            if lab == label:
                return i
        raise KeyError(f"unknown prefix register {label!r}")

    def copy(self) -> "DictSparseState":
        out = type(self).__new__(type(self))
        out.n, out.m, out.q_cap = self.n, self.m, self.q_cap
        out.basis = self.basis
        out.prefix = self.prefix
        out.amps = dict(self.amps)
        return out

    def _amp_array(self) -> np.ndarray:
        return np.fromiter(self.amps.values(), dtype=complex, count=len(self.amps))

    def norm_sq(self) -> float:
        amp = self._amp_array()
        return float(np.vdot(amp, amp).real)

    def renormalize(self) -> None:
        amp = self._amp_array()
        out = _normalized(amp)
        if out is not amp:
            self.amps = dict(zip(self.amps, out.tolist()))

    def prune(self, eps: float = PRUNE_EPS) -> None:
        keep = np.abs(self._amp_array()) > eps
        if not keep.all():
            self.amps = dict(compress(self.amps.items(), keep.tolist()))

    def support(self) -> int:
        return len(self.amps)

    # -- array form ----------------------------------------------------------------

    def _to_arrays(self):
        """The map as arrays: an E x L matrix of prefix values, the distinct
        database tuples with a db id per entry, and the amplitudes."""
        keys = list(self.amps)
        count, width = len(keys), len(self.prefix)
        pre = np.fromiter(chain.from_iterable(map(itemgetter(0), keys)), dtype=np.int64,
                          count=count * width).reshape(count, width)
        dbs, db_id = _ids(map(itemgetter(1), keys), count)
        return pre, dbs, db_id, self._amp_array()

    def _codes(self, pre, axes, ids, n_ids: int) -> np.ndarray:
        """One integer per entry for its prefix values on axes and its id."""
        return np.ravel_multi_index(tuple(pre[:, axes].T) + (ids,),
                                    [self.prefix[a][1] for a in axes] + [n_ids])

    def _set_arrays(self, pre, dbs, db_id, amp) -> None:
        """Rebuild the map from arrays whose (prefix, db) keys are distinct."""
        pres = zip(*pre.T.tolist()) if len(self.prefix) else repeat((), len(pre))
        keys = zip(pres, map(dbs.__getitem__, db_id.tolist()))
        self.amps = dict(zip(keys, amp.tolist()))

    def _collapse(self, keep, amp) -> None:
        """Keep the entries where keep holds, renormalized."""
        self.amps = dict(zip(compress(self.amps, keep.tolist()),
                             _normalized(amp[keep]).tolist()))

    def _columns(self, x: int):
        """Entries as columns of register x: per context (a prefix value and
        the db without x) its (prefix, pairs below x, pairs above x); per
        entry its context, cell (BOT where x is absent) and amplitude."""
        if not 0 <= x < self.m:
            raise ValueError(f"x={x} out of domain range")
        pre, dbs, db_id, amp = self._to_arrays()
        split = [_split(db, x) for db in dbs]
        rests, rest = _ids((below + above for _, below, above in split), len(dbs))
        cell = np.fromiter((c for c, _, _ in split), dtype=np.int64, count=len(dbs))[db_id]
        code = self._codes(pre, range(len(self.prefix)), rest[db_id], len(rests))
        _, first, ctx = np.unique(code, return_index=True, return_inverse=True)
        heads = [(p, split[i][1], split[i][2])
                 for p, i in zip(map(tuple, pre[first].tolist()), db_id[first].tolist())]
        return heads, ctx, cell, amp

    # -- classical query -------------------------------------------------------

    def ensure_basis(self, target: str) -> None:
        """Lazily switch the cell basis; quantum queries leave the state in
        the Hadamard frame, computational-basis operations switch back here."""
        if self.basis != target:
            self.basis_switch()

    def _block(self, cols):
        """Columns as a (contexts x 2^n) block, and each context's bot amplitude."""
        heads, ctx, cell, amp = cols
        at_bot = cell == BOT
        bots = np.zeros(len(heads), dtype=complex)
        bots[ctx[at_bot]] = amp[at_bot]
        block = np.zeros((len(heads), self.big_n), dtype=complex)
        block[ctx[~at_bot], cell[~at_bot]] = amp[~at_bot]
        return block, bots

    def _response(self, cols):
        """The columns' computational block, Kraus coefficients b and c0, and
        the response distribution |v[h] + c0|^2 (+ |b|^2 at h = 0).  In the
        Hadamard frame b = w[0] and the block is one transform away."""
        root = np.sqrt(self.big_n)
        block, bots = self._block(cols)
        if self.basis == COMPUTATIONAL:
            b = block.sum(axis=1) / root
        else:
            b = block[:, 0]
            block = fwht(block.T).T
        c0 = (bots - b) / root
        probs = np.sum(np.abs(block + c0[:, None]) ** 2, axis=0)
        probs[0] += float(np.sum(np.abs(b) ** 2))
        return block, b, c0, probs

    def classical_query_probs(self, x: int) -> np.ndarray:
        """Response distribution of a classical query, without performing it."""
        return self._response(self._columns(x))[3]

    def classical_query(self, x: int, chooser) -> int:
        """Classical RO-query via the Kraus form K_h = F(|h><h| + d_h0 |bot><bot|)F."""
        self.ensure_basis(COMPUTATIONAL)
        cols = self._columns(x)
        heads, ctx, cell, _ = cols
        rest_len = np.array([len(below) + len(above) for _, below, above in heads])
        cells_held = np.bincount(ctx[cell != BOT], minlength=len(heads))
        if np.any((rest_len >= self.q_cap) & (cells_held == 0)):  # x would add a cell
            raise QCapError("query budget exhausted: key would exceed q_cap")
        block, b, c0, probs = self._response(cols)
        h = int(chooser.choose(probs))
        big_n = self.big_n
        root = np.sqrt(big_n)
        alpha = block[:, h] + c0
        gamma = ((b if h == 0 else 0.0) - alpha / root) / root
        cells = np.full((len(heads), big_n + 1), gamma[:, None])
        cells[:, h] += alpha
        cells[:, big_n] = alpha / root
        pairs = list(zip(repeat(int(x)), range(big_n)))
        new: dict = {}
        for (p, below, above), row in zip(heads, _normalized(cells).tolist()):
            dbs = map(below.__add__, zip(pairs))  # below + ((x, y),), built in C
            if above:
                dbs = map(tuple.__add__, dbs, repeat(above))
            new.update(zip(zip(repeat(p), dbs), row))
            new[(p, below + above)] = row[big_n]
        self.amps = new
        self.prune()
        return h

    # -- basis switching and quantum queries ------------------------------------

    def basis_switch(self) -> None:
        """Toggle between computational and Hadamard cell bases (involutive)."""
        regs = sorted({x for db in {db for _, db in self.amps} for x, _ in db})
        for x in regs:
            heads, ctx, cell, amp = cols = self._columns(x)
            block = fwht(self._block(cols)[0].T).T
            rows, cells = np.nonzero(block)
            bot = np.flatnonzero((cell == BOT) & (amp != 0))
            keys = [(p, below + ((x, c),) + above) for (p, below, above), c in
                    zip(map(heads.__getitem__, rows.tolist()), cells.tolist())]
            keys += [(p, below + above) for p, below, above in map(heads.__getitem__,
                                                                   ctx[bot].tolist())]
            self.amps = dict(zip(keys, block[rows, cells].tolist() + amp[bot].tolist()))
        self.basis = HADAMARD if self.basis == COMPUTATIONAL else COMPUTATIONAL
        self.prune()

    def apply_prefix_unitary(self, labels, matrix: np.ndarray) -> None:
        """Apply a unitary to one or more prefix registers (joint, in order).

        Entries are grouped by the untouched prefix values and the database;
        the groups form the rows of one block, multiplied by the matrix once.
        """
        if isinstance(labels, str):
            labels = [labels]
        axes = [self.prefix_axis(lab) for lab in labels]
        dims = [self.prefix[a][1] for a in axes]
        rest = [i for i in range(len(self.prefix)) if i not in axes]
        mat = np.asarray(matrix, dtype=complex)
        pre, dbs, db_id, amp = self._to_arrays()
        flat = np.ravel_multi_index(tuple(pre[:, axes].T), dims)
        _, first, group = np.unique(self._codes(pre, rest, db_id, len(dbs)),
                                    return_index=True, return_inverse=True)
        block = np.zeros((len(first), mat.shape[1]), dtype=complex)
        block[group, flat] = amp
        block = block @ mat.T
        rows, flats = np.nonzero(block)
        src = first[rows]
        new_pre = pre[src]
        new_pre[:, axes] = np.stack(np.unravel_index(flats, dims), axis=1)
        self._set_arrays(new_pre, dbs, db_id[src], block[rows, flats])
        self.prune()

    def measure_prefix(self, label: str, chooser) -> int:
        ax = self.prefix_axis(label)
        pre, dbs, db_id, amp = self._to_arrays()
        probs = np.bincount(pre[:, ax], weights=np.abs(amp) ** 2,
                            minlength=self.prefix[ax][1])
        v = int(chooser.choose(probs))
        self._collapse(pre[:, ax] == v, amp)
        return v

    def quantum_query(self, x_label: str, y_label: str) -> None:
        """Apply O_XYD on the named prefix registers jointly with the database.

        In the Hadamard frame (cells and Y both Fourier-transformed) the
        query is the permutation eta: bot->eta, eta->bot, 0->0, c->c^eta.
        The state is left in the Hadamard frame; computational-basis
        operations switch back lazily.
        """
        x_ax = self.prefix_axis(x_label)
        y_ax = self.prefix_axis(y_label)
        big_n = self.big_n
        if self.prefix[y_ax][1] != big_n:
            raise ValueError("Y register dimension must be 2^n")
        from qrolab.oracle import walsh

        self.ensure_basis(HADAMARD)
        self.apply_prefix_unitary(y_label, walsh(self.n))
        pre, dbs, db_id, amp = self._to_arrays()
        # register x's cell, once per distinct (db, x)
        shape = (len(dbs), self.m)
        pairs, pair_of = np.unique(np.ravel_multi_index((db_id, pre[:, x_ax]), shape),
                                   return_inverse=True)
        pair_db, pair_x = (a.tolist() for a in np.unravel_index(pairs, shape))
        split = [_split(dbs[d], x) for d, x in zip(pair_db, pair_x)]
        cell = np.fromiter((c for c, _, _ in split), dtype=np.int64, count=len(split))[pair_of]
        eta = pre[:, y_ax]
        out = np.where(eta == 0, cell, np.where(
            cell == BOT, eta, np.where(cell == 0, 0, np.where(cell == eta, BOT, cell ^ eta))))
        lens = np.fromiter(map(len, dbs), dtype=np.int64, count=len(dbs))
        if np.any((cell == BOT) & (out != BOT) & (lens[db_id] + 1 > self.q_cap)):
            raise QCapError("query budget exhausted: key would exceed q_cap")
        # the new db tuple, once per distinct (db, x, out cell)
        shape = (len(pairs), big_n + 1)
        trips, trip_of = np.unique(np.ravel_multi_index((pair_of, out + 1), shape),
                                   return_inverse=True)
        new = [split[p][1] + split[p][2] if c == 0 else
               split[p][1] + ((pair_x[p], c - 1),) + split[p][2]
               for p, c in zip(*(a.tolist() for a in np.unravel_index(trips, shape)))]
        new_dbs, new_db = _ids(new, len(new))
        new_db = new_db[trip_of]
        code = self._codes(pre, range(len(self.prefix)), new_db, len(new_dbs))
        if len(np.unique(code)) != len(code):
            raise RuntimeError("quantum query mapped two keys to one")
        self._set_arrays(pre, new_dbs, new_db, amp)
        self.apply_prefix_unitary(y_label, walsh(self.n))

    # -- extraction measurement --------------------------------------------------

    def measure_relation(self, member, chooser, satisfying=None):
        """First-hit measurement for the relation predicate member(x, cell).

        satisfying(x), when given, lists the cells of register x in the
        relation and replaces the per-pair member calls.  Returns the chosen
        x or None (empty); collapses in place.  Candidate x values are only
        the registers actually present in keys.
        """
        self.ensure_basis(COMPUTATIONAL)
        pre, dbs, db_id, amp = self._to_arrays()
        lens = np.fromiter(map(len, dbs), dtype=np.int64, count=len(dbs))
        pairs = np.fromiter(chain.from_iterable(chain.from_iterable(dbs)), dtype=np.int64,
                            count=2 * int(lens.sum())).reshape(-1, 2)
        xs, cells = pairs[:, 0], pairs[:, 1]
        if satisfying is None:
            hit = np.fromiter(map(member, xs.tolist(), cells.tolist()), dtype=bool,
                              count=len(xs))
        else:
            hit = np.zeros(len(xs), dtype=bool)
            for x in np.unique(xs).tolist():
                at = xs == x
                hit[at] = np.isin(cells[at], np.fromiter(satisfying(x), dtype=np.int64))
        first = np.full(len(dbs), self.m, dtype=np.int64)  # m encodes the empty outcome
        np.minimum.at(first, np.repeat(np.arange(len(dbs)), lens)[hit], xs[hit])
        outcome = first[db_id]
        values, which = np.unique(outcome, return_inverse=True)
        mass = np.bincount(which, weights=np.abs(amp) ** 2, minlength=len(values))
        if values[-1] != self.m:
            values, mass = np.append(values, self.m), np.append(mass, 0.0)
        pick = int(values[int(chooser.choose(mass))])
        self._collapse(outcome == pick, amp)
        self.prune()
        return None if pick == self.m else pick

    # -- dense interop and serialization ------------------------------------------

    def to_dense_vector(self) -> np.ndarray:
        """Decode into a dense vector over prefix (x) D (row-major, bot = 2^n)."""
        self.ensure_basis(COMPUTATIONAL)
        cd = self.big_n + 1
        d_dim = cd**self.m
        total = d_dim
        for _, d in self.prefix:
            total *= d
        if total > DIM_CAP:
            raise MemoryError(f"densification dimension {total} exceeds cap {DIM_CAP}")
        pre_dims = [d for _, d in self.prefix]
        vec = np.zeros(total, dtype=complex)
        for (pre, db), amp in self.amps.items():
            d_idx = 0
            cells = dict(db)
            for x in range(self.m):
                d_idx = d_idx * cd + cells.get(x, self.big_n)
            flat = 0
            for v, d in zip(pre, pre_dims):
                flat = flat * d + v
            vec[flat * d_dim + d_idx] = amp
        return vec

    @classmethod
    def from_dense_vector(cls, vec, n: int, m: int, q_cap: int, prefix=(),
                          tol: float = 0.0) -> "DictSparseState":
        out = cls(n, m, q_cap, prefix=prefix)
        cd = 2**n + 1
        pre_dims = [d for _, d in out.prefix]
        d_dim = cd**m
        out.amps = {}
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        for flat in np.nonzero(np.abs(vec) > tol)[0]:
            pre_flat, d_idx = divmod(int(flat), d_dim)
            pre = []
            for d in reversed(pre_dims):
                pre_flat, v = divmod(pre_flat, d)
                pre.append(v)
            pre = tuple(reversed(pre))
            db = []
            rem = d_idx
            for x in reversed(range(m)):
                rem, cell = divmod(rem, cd)
                if cell != 2**n:
                    db.append((x, cell))
            db = tuple(sorted(db))
            if len(db) > q_cap:
                raise QCapError(f"dense support needs {len(db)} cells > q_cap={q_cap}")
            out.amps[(pre, db)] = complex(vec[flat])
        return out

    def inner(self, other: "DictSparseState") -> complex:
        """<self|other> over shared keys."""
        if self.basis != other.basis:
            raise BasisError("inner product requires a common basis")
        acc = 0.0 + 0.0j
        for k, a in self.amps.items():
            b = other.amps.get(k)
            if b is not None:
                acc += np.conj(a) * b
        return complex(acc)


def encoded(dense_state, q_cap: int) -> SparseState:
    """A DenseOracleState's D vector as a SparseState: encoded by
    DictSparseState.from_dense_vector with room for a cell in every register,
    and loaded through `SparseState.amps`, which enforces q_cap."""
    n, m = dense_state.config.n, dense_state.config.m
    out = SparseState(n, m, q_cap)
    out.amps = DictSparseState.from_dense_vector(dense_state.d_vector(), n, m, m).amps
    return out


def dict_form(state) -> DictSparseState:
    """A DictSparseState with state's map, read through `amps`, and basis."""
    out = DictSparseState(state.n, state.m, state.q_cap, prefix=state.prefix)
    out.basis, out.amps = state.basis, dict(state.amps)
    return out


class ReferenceSparseState(DictSparseState):
    def _contexts_for_register(self, x: int):
        """Group keys by everything except register x's cell."""
        ctxs: dict = {}
        for (pre, db), amp in self.amps.items():
            cell = BOT
            rest = []
            for xx, cc in db:
                if xx == x:
                    cell = cc
                else:
                    rest.append((xx, cc))
            ctxs.setdefault((pre, tuple(rest)), {})[cell] = amp
        return ctxs

    def _write_column(self, out: dict, ctx, x: int, cells: dict) -> None:
        pre, rest = ctx
        below = [p for p in rest if p[0] < x]
        above = [p for p in rest if p[0] > x]
        for cell, amp in cells.items():
            if amp == 0.0:
                continue
            if cell == BOT:
                key = (pre, tuple(below + above))
            else:
                key = (pre, tuple(below + [(x, int(cell))] + above))
            out[key] = out.get(key, 0.0) + amp

    def _query_stats(self, x: int):
        """Per-context Kraus coefficients and the response distribution."""
        self.ensure_basis(COMPUTATIONAL)
        if not 0 <= x < self.m:
            raise ValueError(f"x={x} out of domain range")
        big_n = self.big_n
        root = np.sqrt(big_n)
        ctxs = self._contexts_for_register(x)
        for (pre, rest), col in ctxs.items():
            if len(rest) >= self.q_cap and all(c == BOT for c in col):
                raise QCapError("query budget exhausted: key would exceed q_cap")
        # alpha_h = v[h] + (a - b)/sqrt(N), beta only at h = 0
        probs = np.zeros(big_n)
        stats = {}
        for ctx, col in ctxs.items():
            a = col.get(BOT, 0.0)
            b = sum(amp for cell, amp in col.items() if cell != BOT) / root
            c0 = (a - b) / root
            stats[ctx] = (a, b, c0)
            probs += abs(c0) ** 2
            for cell, amp in col.items():
                if cell != BOT:
                    probs[cell] += abs(amp + c0) ** 2 - abs(c0) ** 2
            probs[0] += abs(b) ** 2
        return ctxs, stats, probs

    def classical_query_probs(self, x: int) -> np.ndarray:
        """Response distribution of a classical query, without performing it.

        In the Hadamard frame this never materializes the computational
        representation: per context, b = w[0], and the computational column
        is one Walsh matrix product, batched over all contexts.
        """
        if self.basis == COMPUTATIONAL:
            _, _, probs = self._query_stats(x)
            return probs
        if not 0 <= x < self.m:
            raise ValueError(f"x={x} out of domain range")
        big_n = self.big_n
        root = np.sqrt(big_n)
        ctxs = self._contexts_for_register(x)
        w = _walsh_matrix(self.n)
        n_ctx = len(ctxs)
        cols = np.zeros((n_ctx, big_n), dtype=complex)
        bots = np.zeros(n_ctx, dtype=complex)
        for i, col in enumerate(ctxs.values()):
            for cell, amp in col.items():
                if cell == BOT:
                    bots[i] = amp
                else:
                    cols[i, cell] = amp
        b = cols[:, 0]
        c0 = (bots - b) / root
        alphas = cols @ w.T + c0[:, None]
        probs = np.sum(np.abs(alphas) ** 2, axis=0)
        probs[0] += float(np.sum(np.abs(b) ** 2))
        return probs

    def classical_query(self, x: int, chooser) -> int:
        """Classical RO-query via the Kraus form K_h = F(|h><h| + d_h0 |bot><bot|)F."""
        ctxs, stats, probs = self._query_stats(x)
        big_n = self.big_n
        root = np.sqrt(big_n)
        h = int(chooser.choose(probs))
        new: dict = {}
        for ctx, col in ctxs.items():
            a, b, c0 = stats[ctx]
            alpha = col.get(h, 0.0) + c0
            beta = b if h == 0 else 0.0
            gamma = (beta - alpha / root) / root
            cells = np.full(big_n, gamma, dtype=complex)
            cells[h] += alpha
            post = {int(y): cells[y] for y in range(big_n)}
            post[BOT] = alpha / root
            self._write_column(new, ctx, x, post)
        self.amps = new
        self.renormalize()
        self.prune()
        return h

    def basis_switch(self) -> None:
        """Toggle between computational and Hadamard cell bases (involutive)."""
        regs = sorted({x for _, db in self.amps for x, _ in db})
        big_n = self.big_n
        for x in regs:
            ctxs = self._contexts_for_register(x)
            new: dict = {}
            for ctx, col in ctxs.items():
                vec = np.zeros(big_n, dtype=complex)
                for cell, amp in col.items():
                    if cell != BOT:
                        vec[cell] = amp
                vec = fwht(vec)
                post = {int(y): vec[y] for y in np.nonzero(np.abs(vec) > 0.0)[0]}
                if BOT in col:
                    post[BOT] = col[BOT]
                self._write_column(new, ctx, x, post)
            self.amps = new
        self.basis = HADAMARD if self.basis == COMPUTATIONAL else COMPUTATIONAL
        self.prune()

    def apply_prefix_unitary(self, labels, matrix: np.ndarray) -> None:
        """Apply a unitary to one or more prefix registers (joint, in order)."""
        if isinstance(labels, str):
            labels = [labels]
        axes = [self.prefix_axis(lab) for lab in labels]
        dims = [self.prefix[a][1] for a in axes]
        mat = np.asarray(matrix, dtype=complex)
        groups: dict = {}
        for (pre, db), amp in self.amps.items():
            rest = tuple(v for i, v in enumerate(pre) if i not in axes)
            flat = 0
            for a, d in zip(axes, dims):
                flat = flat * d + pre[a]
            groups.setdefault((rest, db), {})[flat] = amp
        new: dict = {}
        dim = mat.shape[0]
        template = list(range(len(self.prefix)))
        for (rest, db), col in groups.items():
            vec = np.zeros(dim, dtype=complex)
            for v, amp in col.items():
                vec[v] = amp
            vec = mat @ vec
            for flat in np.nonzero(np.abs(vec) > 0.0)[0]:
                vals = []
                f = int(flat)
                for d in reversed(dims):
                    f, v = divmod(f, d)
                    vals.append(v)
                vals.reverse()
                pre = [None] * len(self.prefix)
                for a, v in zip(axes, vals):
                    pre[a] = v
                it = iter(rest)
                for i in range(len(pre)):
                    if pre[i] is None:
                        pre[i] = next(it)
                key = (tuple(pre), db)
                new[key] = new.get(key, 0.0) + vec[flat]
        self.amps = new
        self.prune()

    def quantum_query(self, x_label: str, y_label: str) -> None:
        """Apply O_XYD on the named prefix registers jointly with the database.

        In the Hadamard frame (cells and Y both Fourier-transformed) the
        query is the permutation eta: bot->eta, eta->bot, 0->0, c->c^eta.
        The state is left in the Hadamard frame; computational-basis
        operations switch back lazily.
        """
        x_ax = self.prefix_axis(x_label)
        y_ax = self.prefix_axis(y_label)
        big_n = self.big_n
        if self.prefix[y_ax][1] != big_n:
            raise ValueError("Y register dimension must be 2^n")
        self.ensure_basis(HADAMARD)
        self.apply_prefix_unitary(y_label, _walsh_matrix(self.n))
        new: dict = {}
        for (pre, db), amp in self.amps.items():
            x = pre[x_ax]
            eta = pre[y_ax]
            cell = BOT
            rest = []
            for xx, cc in db:
                if xx == x:
                    cell = cc
                else:
                    rest.append((xx, cc))
            if eta == 0:
                out_cell = cell
            elif cell == BOT:
                out_cell = eta
            elif cell == 0:
                out_cell = 0
            elif cell == eta:
                out_cell = BOT
            else:
                out_cell = cell ^ eta
            if out_cell == BOT:
                key = (pre, tuple(sorted(rest)))
            else:
                if len(rest) + 1 > self.q_cap and cell == BOT:
                    raise QCapError("query budget exhausted: key would exceed q_cap")
                key = (pre, tuple(sorted(rest + [(x, out_cell)])))
            new[key] = new.get(key, 0.0) + amp
        self.amps = new
        self.apply_prefix_unitary(y_label, _walsh_matrix(self.n))

    def measure_relation(self, member, chooser):
        """First-hit measurement for the relation predicate member(x, cell).

        Returns the chosen x or None (empty); collapses in place.  Candidate
        x values are only the registers actually present in keys.
        """
        self.ensure_basis(COMPUTATIONAL)
        outcome_of: dict = {}
        mass: dict = {}
        for key, amp in self.amps.items():
            _, db = key
            hit = None
            for x, cell in db:
                if member(x, cell):
                    hit = x
                    break
            outcome_of[key] = hit
            mass[hit] = mass.get(hit, 0.0) + abs(amp) ** 2
        candidates = sorted((x for x in mass if x is not None)) + [None]
        probs = np.array([mass.get(c, 0.0) for c in candidates])
        pick = candidates[int(chooser.choose(probs))]
        self.amps = {k: a for k, a in self.amps.items() if outcome_of[k] == pick}
        self.renormalize()
        self.prune()
        return pick
