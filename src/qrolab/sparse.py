"""Sparse compressed-oracle states for huge domains at small query counts.

Two representations share one interface:

* SparseState: a flat map from canonical databases (sorted (x, cell) pairs;
  absent registers are |bot>) to complex amplitudes, with optional prefix
  registers so adversary/X/Y coordinates can evolve jointly with the
  database.  Handles quantum queries via the Hadamard-frame permutation.
* ProductState: one independent cell column per queried register.  Classical
  queries and extraction measurements keep product form exactly, so this
  scales to many distinct query points where the flat map would blow up.
  Quantum queries are rejected.

Cells are stored in the computational basis at rest; quantum queries switch
to the Hadamard frame transiently.

SparseState holds its E entries as arrays, the one representation: an E x L
matrix of prefix values, E x W matrices of register ids and cells (each row
sorted by register and padded with register m, cell 0; W is the longest db
present) and the E amplitudes.  Every operation groups entries by integer
codes and works in numpy (one block product per run of prefix unitaries or
per register column, one `np.where` permutation per quantum query).
Operations build new arrays and never write into the ones they were given,
so `copy` shares them.
`amps`, the dict from (prefix tuple, db tuple) to amplitude, is derived on
each read; assigning one loads a whole state.  That setter and
`to_dense_vector` are the two bridges the cross-checks against the dense
backend go through.

Prefix unitaries wait in one pending slot: the axes of a run of
`apply_prefix_unitary` calls on the same labels in the same order, and the
product of their matrices.  Any other unitary applies the slot and takes
it.  The arrays are read through the properties `pre`, `reg`, `cell` and
`amp`, which apply the slot first, so every read sees it: `amps`,
`to_dense_vector`, `norm_sq`, `support`, `prune`, the measurements, the
classical queries, `basis_switch`, `measure_relation` and a quantum query's
permutation.  A run costs one block product, then one prune; so in a Grover
iteration one query's closing W_Y, the mark on Y and the next query's
opening W_Y make one product.  `copy` applies the slot before it shares the
arrays, so the children of a walk node (`collapses`, a circuit step's split,
`grover_experiment`'s branches) never each repeat the product the node was
left with.  Loading a map through the `amps` setter drops the slot.

On supports of 10^4 to 10^5 entries numpy's slow paths, not the arithmetic,
would set the cost, so row operations avoid them (numpy 2.4.6, one core of a
2-vCPU VM): distinct values come from `_distinct`, one sort and a neighbour
mask (np.unique's hash path took 1.4 ms on 65,537 equal int64 and 11.5 ms on
random ones, `_distinct` 0.05 and 0.6 ms); integer row gathers are
`np.take(..., axis=0)` (63,744 rows of an (8000, 2) int64 array: 0.83 ms as
a[idx], 0.07 ms); boolean row masks are `np.compress(..., axis=0)` (1.02 ms
as a[mask] on (63,744, 2), 0.12 ms).  Each fresh 4 KiB page of a new array
also costs a page fault on first touch, 1-2.6 us there, more than a pass
over the page; so a classical query writes its 2^n + 1 new amplitudes per
context into the block it read the columns from, and builds the new rows from
broadcasts rather than repeats and fancy assignments.

Both backends take `measure_relation(satisfying, chooser)`, where
`satisfying(x)` lists register x's cells in the relation.

ProductState columns are never dense.  After q classical queries a cell
carries O(q) structure (Zhandry's compressed oracle), so every column stays in
the closed form a|bot> + sum_y (b + d[y])|y> with a sparse dict d, and a
query or an extraction step costs O(|d| + #preimages) rather than O(2^n).  A
re-query's response distribution is uniform except at the keys of d and at 0;
`choose_spiked` samples it with the single uniform draw numpy's
Generator.choice makes on the dense vector, so seeded runs do not depend on
the representation.  ProductState's docstring gives the update formulas.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

from .branching import enumerate_paths
from .config import DIM_CAP, PRUNE_EPS
from .linalg import LayoutError

BOT = -1  # cell symbol for |bot> inside column dictionaries

COMPUTATIONAL = "computational"
HADAMARD = "hadamard"


class QCapError(RuntimeError):
    """A query or a loaded key needs more non-bot cells than q_cap allows."""


def fwht(vec: np.ndarray) -> np.ndarray:
    """Normalized Walsh-Hadamard transform along the first axis; matches
    kron(H,...,H) ordering.  Trailing axes are a batch of columns."""
    v = np.asarray(vec, dtype=complex)
    n = v.shape[0]
    if n <= 1024:
        from .oracle import walsh

        return walsh(n.bit_length() - 1) @ v
    shape = v.shape
    v = v.reshape(n, -1).copy()
    h = 1
    while h < n:
        v = v.reshape(-1, 2, h, v.shape[-1])
        a = v[:, 0].copy()
        b = v[:, 1].copy()
        v[:, 0] = a + b
        v[:, 1] = a - b
        v = v.reshape(n, -1)
        h *= 2
    return v.reshape(shape) / np.sqrt(n)


def _normalized(amp: np.ndarray) -> np.ndarray:
    """amp, an array no other state holds, scaled in place to unit norm
    unless it is already within 1e-15."""
    nrm = np.sqrt(np.vdot(amp, amp).real)
    if nrm <= 0.0:
        raise ValueError("zero state")
    if abs(nrm - 1.0) > 1e-15:
        amp /= nrm
    return amp


def _groups(cols, dims, count: int):
    """Group rows by their values in the integer columns cols (column i below
    dims[i]): each group's first row and each row's group, groups in
    lexicographic order.  Rows are compared as one int64 code each, or as
    matrix rows where the codes would overflow."""
    if not cols:
        return np.zeros(min(count, 1), dtype=np.int64), np.zeros(count, dtype=np.int64)
    if math.prod(dims) <= np.iinfo(np.int64).max:
        keys = np.ravel_multi_index(tuple(cols), dims)
    else:
        keys = np.stack(cols, axis=1)
    _, first, group = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return first, group.reshape(-1)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the 1-D array a: one sort and a
    neighbour mask, where np.unique would take numpy's hash path."""
    a = np.sort(a)
    new = np.empty(len(a), dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.compress(new, a)


def _sorted_rows(reg, cell):
    """reg and cell with each row sorted by register, so padding goes last.
    The rows are gathered by flat position with np.take, which is faster
    than a 2-D fancy index or np.take_along_axis."""
    if reg.shape[1] < 2:
        return reg, cell
    order = np.argsort(reg, axis=1, kind="stable")
    order += np.arange(0, reg.size, reg.shape[1])[:, None]
    return np.take(reg, order), np.take(cell, order)


def _trimmed(reg, cell, m: int):
    """Sorted reg and cell rows cut to the longest db among them: the columns
    where some row holds a register, since each row's padding goes last."""
    width = int(np.count_nonzero(reg.min(axis=0, initial=m) < m))
    return reg[:, :width], cell[:, :width]


def _after_pending(field: str) -> property:
    """A read-only SparseState array, held in field and read only after the
    state's pending product has been applied."""
    def read(state):
        state._apply_pending()
        return getattr(state, field)
    return property(read)


class SparseState:
    def __init__(self, n: int, m: int, q_cap: int, prefix=()):
        self.n = n
        self.m = m
        self.q_cap = q_cap
        self.basis = COMPUTATIONAL
        self.prefix = tuple((str(lab), int(d)) for lab, d in prefix)
        empty = np.zeros((1, 0), dtype=np.int64)
        self._pending = None
        self._set(np.zeros((1, len(self.prefix)), dtype=np.int64), empty, empty,
                  np.ones(1, dtype=complex))

    @property
    def big_n(self) -> int:
        return 2**self.n

    def prefix_axis(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.prefix):
            if lab == label:
                return i
        raise KeyError(f"unknown prefix register {label!r}")

    def copy(self) -> "SparseState":
        """A copy that shares the arrays, which no operation writes into.
        The pending product is applied first, so copies never repeat it."""
        self._apply_pending()
        out = type(self).__new__(type(self))
        out.__dict__.update(self.__dict__)
        return out

    @property
    def amps(self):
        """The state as a read-only map from (prefix tuple, db tuple) to
        amplitude, derived from the arrays on each read."""
        lens = (self.reg < self.m).sum(axis=1).tolist()
        dbs = (tuple(zip(r[:k], c[:k]))
               for r, c, k in zip(self.reg.tolist(), self.cell.tolist(), lens))
        keys = zip(map(tuple, self.pre.tolist()), dbs)
        return MappingProxyType(dict(zip(keys, self.amp.tolist())))

    @amps.setter
    def amps(self, mapping) -> None:
        """Load the whole state from a map (prefix tuple, db tuple) -> amplitude."""
        self._pending = None
        keys = list(mapping)
        width = max((len(db) for _, db in keys), default=0)
        if width > self.q_cap:
            raise QCapError(f"a key holds {width} cells > q_cap={self.q_cap}")
        reg = np.full((len(keys), width), self.m, dtype=np.int64)
        cell = np.zeros_like(reg)
        for i, (_, db) in enumerate(keys):
            for j, (x, c) in enumerate(db):
                if not 0 <= x < self.m:  # register m pads the rows
                    raise ValueError(f"db register {x} out of domain range")
                reg[i, j], cell[i, j] = x, c
        pre = np.array([p for p, _ in keys], dtype=np.int64).reshape(len(keys), len(self.prefix))
        amp = np.fromiter(mapping.values(), dtype=complex, count=len(keys))
        self._set(pre, *_sorted_rows(reg, cell), amp)

    def norm_sq(self) -> float:
        return float(np.vdot(self.amp, self.amp).real)

    def prune(self, eps: float = PRUNE_EPS) -> None:
        """Drop the entries of magnitude at most eps; raise on a NaN amplitude,
        which `> eps` would drop as silently lost mass."""
        mag = np.abs(self.amp)
        keep = mag > eps
        if not keep.all():
            if not np.all(np.compress(~keep, mag) <= eps):
                raise ValueError("NaN amplitude in the sparse state")
            self._set(*self._kept(keep))

    def support(self) -> int:
        return len(self.amp)

    # -- array form ----------------------------------------------------------------

    def _set(self, pre, reg, cell, amp) -> None:
        """Hold new arrays, W cut to the longest db present."""
        self._pre, (self._reg, self._cell), self._amp = pre, _trimmed(reg, cell, self.m), amp

    def _apply_pending(self) -> None:
        """Apply the pending product, if any.  The slot is cleared first: the
        product reads the arrays, and so does anything hooked on prune."""
        if self._pending is not None:
            axes, mat = self._pending
            self._pending = None
            self._product(axes, mat)

    pre = _after_pending("_pre")
    reg = _after_pending("_reg")
    cell = _after_pending("_cell")
    amp = _after_pending("_amp")

    def _kept(self, keep):
        """pre, reg, cell and amp at the entries where keep holds."""
        return [np.compress(keep, a, axis=0) for a in (self.pre, self.reg, self.cell, self.amp)]

    def _collapse(self, keep) -> None:
        """Keep the entries where keep holds, renormalized."""
        pre, reg, cell, amp = self._kept(keep)
        self._set(pre, reg, cell, _normalized(amp))

    def _group(self, pre, axes, reg, cell):
        """Group entries by their prefix values on axes and their db."""
        width = reg.shape[1]
        dims = [self.prefix[a][1] for a in axes] + [self.m + 1] * width + [self.big_n] * width
        return _groups([pre[:, a] for a in axes] + list(reg.T) + list(cell.T), dims, len(pre))

    def _registers(self) -> np.ndarray:
        """The registers some entry holds, in order."""
        regs = _distinct(self.reg.reshape(-1))
        return regs[regs < self.m]

    def _padded(self, reg, cell, width: int):
        """reg and cell padded to width columns."""
        extra = (len(reg), width - reg.shape[1])
        return (np.concatenate([reg, np.full(extra, self.m)], axis=1),
                np.concatenate([cell, np.zeros(extra, dtype=np.int64)], axis=1))

    def _columns(self, x: int):
        """Entries as columns of register x.  Per entry: its context (prefix
        values and db without x) and its cell of x (BOT where absent).  Per
        context: its first entry, and its db without x as reg and cell rows."""
        if not 0 <= x < self.m:
            raise ValueError(f"x={x} out of domain range")
        at = np.flatnonzero(self.reg == x)  # flat positions of x in the rows
        cell = np.full(len(self.amp), BOT)
        cell[at // self.reg.shape[1]] = np.take(self.cell, at)
        reg, rest = self.reg.copy(), self.cell.copy()
        np.put(reg, at, self.m)
        np.put(rest, at, 0)
        reg, rest = _trimmed(*_sorted_rows(reg, rest), self.m)
        first, ctx = self._group(self.pre, range(len(self.prefix)), reg, rest)
        return ctx, cell, first, np.take(reg, first, axis=0), np.take(rest, first, axis=0)

    def _insert(self, reg, cell, x: int):
        """Rows of reg and cell (dbs without x) with register x added at cell
        0, and x's column in each."""
        reg, cell = self._padded(reg, cell, reg.shape[1] + 1)
        reg[:, -1] = x
        reg, cell = _sorted_rows(reg, cell)
        return reg, cell, (reg == x).argmax(axis=1)

    # -- classical query -------------------------------------------------------

    def ensure_basis(self, target: str) -> None:
        """Lazily switch the cell basis; quantum queries leave the state in
        the Hadamard frame, computational-basis operations switch back here."""
        if self.basis != target:
            self.basis_switch()

    def _block(self, ctx, cell, n_ctx: int):
        """Columns as a (contexts x (2^n + 1)) block, the bot amplitude last;
        a block of more than DIM_CAP entries raises MemoryError.  Filled
        whole rather than by np.zeros, whose lazily zeroed pages a read and
        then a write would each fault in."""
        if n_ctx * (self.big_n + 1) > DIM_CAP:
            raise MemoryError(f"column block of {n_ctx} x {self.big_n + 1} exceeds cap {DIM_CAP}")
        block = np.full((n_ctx, self.big_n + 1), 0j)
        block[ctx, np.where(cell == BOT, self.big_n, cell)] = self.amp
        return block

    def _response(self, block):
        """From the columns' block: its computational part v shifted by the
        Kraus coefficient c0, the coefficient b, and the response
        distribution |v[h] + c0|^2 (+ |b|^2 at h = 0).  In the computational
        frame v is shifted inside block; in the Hadamard frame b = w[0] and v
        is one transform away."""
        root = np.sqrt(self.big_n)
        v, bots = block[:, :-1], block[:, -1]
        if self.basis == COMPUTATIONAL:
            b = v.sum(axis=1) / root
        else:
            b = v[:, 0].copy()
            v = fwht(v.T).T
        v += ((bots - b) / root)[:, None]
        mag = np.abs(v)
        probs = np.sum(np.square(mag, out=mag), axis=0)
        probs[0] += float(np.sum(np.abs(b) ** 2))
        return v, b, probs

    def classical_query_probs(self, x: int) -> np.ndarray:
        """Response distribution of a classical query, without performing it."""
        ctx, cell, first, _, _ = self._columns(x)
        return self._response(self._block(ctx, cell, len(first)))[2]

    def classical_query(self, x: int, chooser) -> int:
        """Classical RO-query via the Kraus form K_h = F(|h><h| + d_h0 |bot><bot|)F."""
        self.ensure_basis(COMPUTATIONAL)
        ctx, cell, first, rest_reg, rest_cell = self._columns(x)
        n_ctx = len(first)
        rest_len = (rest_reg < self.m).sum(axis=1)
        cells_held = np.bincount(ctx[cell != BOT], minlength=n_ctx)
        if np.any((rest_len >= self.q_cap) & (cells_held == 0)):  # x would add a cell
            raise QCapError("query budget exhausted: key would exceed q_cap")
        cells = self._block(ctx, cell, n_ctx)
        shifted, b, probs = self._response(cells)
        h = int(chooser.choose(probs))
        big_n = self.big_n
        root = np.sqrt(big_n)
        alpha = shifted[:, h].copy()
        gamma = ((b if h == 0 else 0.0) - alpha / root) / root
        cells[:] = gamma[:, None]  # the block's buffer takes the new amplitudes
        cells[:, h] += alpha
        cells[:, big_n] = alpha / root
        # per context: x holding each cell y < 2^n (x's column, at cell 0 from
        # _insert, plus y), then x absent
        reg, col, at = self._insert(rest_reg, rest_cell, x)
        x_col = np.arange(reg.shape[1]) == at[:, None]
        ys = np.arange(big_n + 1)[:, None] * x_col[:, None]
        col = np.add(ys, col[:, None], out=ys)
        reg = np.broadcast_to(reg[:, None], col.shape).copy()
        reg[:, big_n], col[:, big_n] = self._padded(rest_reg, rest_cell, reg.shape[2])
        pre = np.take(self.pre, first, axis=0)[:, None]
        shape = (n_ctx * (big_n + 1), -1)
        self._set(np.broadcast_to(pre, (n_ctx, big_n + 1, pre.shape[2])).reshape(shape),
                  reg.reshape(shape), col.reshape(shape), _normalized(cells).reshape(-1))
        self.prune()
        return h

    # -- basis switching and quantum queries ------------------------------------

    def basis_switch(self) -> None:
        """Toggle between computational and Hadamard cell bases (involutive)."""
        for x in self._registers().tolist():
            ctx, cell, first, rest_reg, rest_cell = self._columns(x)
            block = fwht(self._block(ctx, cell, len(first))[:, :-1].T).T
            rows, cells = np.nonzero(block)
            bot = np.flatnonzero((cell == BOT) & (self.amp != 0))
            reg, col, at = self._insert(rest_reg, rest_cell, x)
            reg, col = np.take(reg, rows, axis=0), np.take(col, rows, axis=0)
            col[np.arange(len(rows)), at[rows]] = cells
            bot_reg, bot_cell = self._padded(np.take(self.reg, bot, axis=0),
                                             np.take(self.cell, bot, axis=0), reg.shape[1])
            self._set(np.take(self.pre, np.concatenate([first[rows], bot]), axis=0),
                      np.concatenate([reg, bot_reg]), np.concatenate([col, bot_cell]),
                      np.concatenate([block[rows, cells], np.take(self.amp, bot)]))
        self.basis = HADAMARD if self.basis == COMPUTATIONAL else COMPUTATIONAL
        self.prune()

    def apply_prefix_unitary(self, labels, matrix: np.ndarray) -> None:
        """Apply a unitary to one or more prefix registers (joint, in order).

        The unitary joins the pending product when that acts on the same
        registers in the same order; otherwise the pending product is
        applied and this one takes the slot.  The labels must be distinct
        and the matrix (d, d), d the product of their dimensions.
        """
        if isinstance(labels, str):
            labels = [labels]
        axes = tuple(self.prefix_axis(lab) for lab in labels)
        dims = [self.prefix[a][1] for a in axes]
        mat = np.array(matrix, dtype=complex)  # a copy: the slot may keep it
        if len(set(axes)) != len(axes) or mat.shape != (math.prod(dims),) * 2:
            raise LayoutError(f"matrix of shape {mat.shape} on prefix registers "
                              f"{list(labels)} of dims {dims}")
        if self._pending is not None and self._pending[0] == axes:
            mat = mat @ self._pending[1]
        else:
            self._apply_pending()
        self._pending = (axes, mat)

    def _product(self, axes, mat) -> None:
        """mat on the prefix registers at axes.  Entries are grouped by the
        untouched prefix values and the database; the groups form the rows
        of one block, multiplied by the matrix once."""
        dims = [self.prefix[a][1] for a in axes]
        rest = [i for i in range(len(self.prefix)) if i not in axes]
        flat = np.ravel_multi_index(tuple(self.pre[:, axes].T), dims)
        first, group = self._group(self.pre, rest, self.reg, self.cell)
        block = np.zeros((len(first), mat.shape[1]), dtype=complex)
        block[group, flat] = self.amp
        block = block @ mat.T
        rows, flats = np.nonzero(block)
        src = first[rows]
        pre = np.take(self.pre, src, axis=0)
        for a, values in zip(axes, np.unravel_index(flats, dims)):
            pre[:, a] = values
        self._set(pre, np.take(self.reg, src, axis=0), np.take(self.cell, src, axis=0),
                  block[rows, flats])
        self.prune()

    def apply(self, matrix: np.ndarray, labels) -> None:
        """RegisterState's signature for apply_prefix_unitary."""
        self.apply_prefix_unitary(labels, matrix)

    def measure(self, labels, chooser) -> tuple[int, ...]:
        """The named prefix registers measured one after another."""
        return tuple(self.measure_prefix(lab, chooser) for lab in labels)

    def collapses(self, labels) -> list[tuple[float, "SparseState", tuple[int, ...]]]:
        """(probability, post-measurement state, outcome) for every outcome of
        measure(labels) above PROB_FLOOR: measure on one copy per outcome
        path under enumerate_paths, the copies sharing this state's arrays."""
        def measured(ch):
            child = self.copy()
            return child, child.measure(labels, ch)

        return [(q, child, outcome) for q, (child, outcome) in enumerate_paths(measured)]

    def measure_prefix(self, label: str, chooser) -> int:
        ax = self.prefix_axis(label)
        probs = np.bincount(self.pre[:, ax], weights=np.abs(self.amp) ** 2,
                            minlength=self.prefix[ax][1])
        v = int(chooser.choose(probs))
        self._collapse(self.pre[:, ax] == v)
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
        if self.prefix[y_ax][1] != self.big_n:
            raise ValueError("Y register dimension must be 2^n")
        if self.prefix[x_ax][1] > self.m:  # register m pads the db rows
            raise ValueError("X register dimension must be at most m")
        from .oracle import walsh

        self.ensure_basis(HADAMARD)
        self.apply_prefix_unitary(y_label, walsh(self.n))
        xs, eta = self.pre[:, x_ax], self.pre[:, y_ax]
        reg, cell = self._padded(self.reg, self.cell, self.reg.shape[1] + 1)
        at = reg == xs[:, None]
        has = at.any(axis=1)
        # register x's column; an absent x takes the new padding column
        pos = np.where(has, at.argmax(axis=1), self.reg.shape[1])
        rows = np.arange(len(self.amp))
        old = np.where(has, cell[rows, pos], BOT)
        out = np.where(eta == 0, old, np.where(
            old == BOT, eta, np.where(old == 0, 0, np.where(old == eta, BOT, old ^ eta))))
        lens = (self.reg < self.m).sum(axis=1)
        if np.any((old == BOT) & (out != BOT) & (lens + 1 > self.q_cap)):
            raise QCapError("query budget exhausted: key would exceed q_cap")
        reg[rows, pos] = np.where(out == BOT, self.m, xs)
        cell[rows, pos] = np.where(out == BOT, 0, out)
        reg, cell = _trimmed(*_sorted_rows(reg, cell), self.m)
        if len(self._group(self.pre, range(len(self.prefix)), reg, cell)[0]) != len(rows):
            raise RuntimeError("quantum query mapped two keys to one")
        self._set(self.pre, reg, cell, self.amp)
        self.apply_prefix_unitary(y_label, walsh(self.n))

    # -- extraction measurement --------------------------------------------------

    def measure_relation(self, satisfying, chooser):
        """First-hit measurement for the relation whose cells in register x
        are listed by satisfying(x).

        Returns the chosen x or None (empty); collapses in place.  Candidate
        x values are only the registers actually present in keys.
        """
        self.ensure_basis(COMPUTATIONAL)
        hits = np.zeros(self.reg.shape, dtype=bool)
        for x in self._registers().tolist():
            sat = np.fromiter(satisfying(x), dtype=np.int64)
            hits |= (self.reg == x) & np.isin(self.cell, sat)
        # m encodes the empty outcome
        outcome = np.where(hits, self.reg, self.m).min(axis=1, initial=self.m)
        values = _distinct(outcome)
        mass = np.bincount(np.searchsorted(values, outcome), weights=np.abs(self.amp) ** 2,
                           minlength=len(values))
        if values[-1] != self.m:
            values, mass = np.append(values, self.m), np.append(mass, 0.0)
        pick = int(values[int(chooser.choose(mass))])
        self._collapse(outcome == pick)
        self.prune()
        return None if pick == self.m else pick

    # -- dense interop ------------------------------------------------------------

    def to_dense_vector(self) -> np.ndarray:
        """Decode into a dense vector over prefix (x) D (row-major, bot = 2^n)."""
        self.ensure_basis(COMPUTATIONAL)
        dims = [d for _, d in self.prefix] + [self.big_n + 1] * self.m
        total = math.prod(dims)
        if total > DIM_CAP:
            raise MemoryError(f"densification dimension {total} exceeds cap {DIM_CAP}")
        cells = np.full((len(self.amp), self.m), self.big_n)
        held = self.reg < self.m
        cells[np.nonzero(held)[0], self.reg[held]] = self.cell[held]
        vec = np.zeros(total, dtype=complex)
        vec[np.ravel_multi_index(tuple(self.pre.T) + tuple(cells.T), dims)] = self.amp
        return vec


# -- product-of-columns backend ---------------------------------------------------


class _CellColumn:
    """One register's cell state a|bot> + sum_y (b + d[y])|y> over y < 2^n."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: dict):
        self.a = a
        self.b = b
        self.d = d

    def amp(self, y: int):
        return self.b + self.d[y] if y in self.d else self.b

    def normalized(self, big_n: int) -> "_CellColumn":
        norm_sq = (abs(self.a) ** 2 + (big_n - len(self.d)) * abs(self.b) ** 2
                   + sum(abs(self.b + v) ** 2 for v in self.d.values()))
        nrm = np.sqrt(norm_sq)
        if nrm <= 0.0:
            raise ValueError("collapse onto zero-probability branch")
        return _CellColumn(self.a / nrm, self.b / nrm,
                          {y: v / nrm for y, v in self.d.items()})

    def dense(self, big_n: int) -> np.ndarray:
        col = np.full(big_n + 1, self.b, dtype=complex)
        for y, v in self.d.items():
            col[y] += v
        col[big_n] = self.a
        return col


class ProductState:
    """Per-register cell columns; exact for classical queries and extraction.

    The joint state is the tensor product of one normalized cell column per
    queried register with |bot> everywhere else, which classical queries and
    the (diagonal, per-register) extraction measurement preserve branchwise.

    Column algebra.  With N = 2^n, every column stays in the closed form
    a|bot> + sum_y (b + d[y])|y> (a `_CellColumn`): a bot amplitude, a
    uniform amplitude and a sparse dict of deltas.

    * Classical query, Kraus form K_h = F(|h><h| + d_h0 |bot><bot|)F.  Let
      s = (N b + sum(d)) / sqrt(N) and c0 = (a - s) / sqrt(N).  Response h
      has probability |b + d[h] + c0|^2, plus |s|^2 at h = 0, and leaves
      a' = alpha/sqrt(N), b' = gamma, d' = {h: alpha} (then normalized),
      where alpha = b + d[h] + c0 and gamma = (s [h = 0] - alpha/sqrt(N)) /
      sqrt(N).  A fresh register (a = 1, b = 0) answers uniformly and
      becomes F|h>: a = N^-1/2, b = -1/N, d = {h: 1}.
    * Extraction against the preimage set P of register x: a hit keeps
      only the cells in P (a = b = 0, d = the amplitudes on P); a miss
      zeroes them (d[c] = -b for c in P).

    Each step costs O(|d| + |P|), independent of N; a large P only makes a
    large d.

    Sampling.  The response distribution is constant except at the keys of
    d and at 0.  Generator.choice(p=...) draws one uniform u and returns the
    first index whose normalized cumulative mass exceeds u; the chooser's
    `choose_spiked` inverts the same piecewise-constant CDF with the same
    single draw, so seeded runs are those of the dense-vector form.  Run
    offsets in that CDF are float64 integers, exact only while n <= 52.
    """

    MAX_N = 52

    def __init__(self, n: int, m: int):
        if n > self.MAX_N:
            raise ValueError(f"n={n} > {self.MAX_N}: float64 cannot index 2^n cells exactly")
        self.n = n
        self.m = m
        self.columns: dict[int, _CellColumn] = {}

    @property
    def big_n(self) -> int:
        return 2**self.n

    def column(self, x: int) -> np.ndarray:
        """Register x's cell column as a dense (2^n+1)-vector, bot last."""
        if x in self.columns:
            return self.columns[x].dense(self.big_n)
        return _CellColumn(1.0, 0.0, {}).dense(self.big_n)

    def classical_query(self, x: int, chooser) -> int:
        if not 0 <= x < self.m:
            raise ValueError(f"x={x} out of domain range")
        big_n = self.big_n
        root = np.sqrt(big_n)
        if x not in self.columns:
            h = int(chooser.choose_uniform(big_n))
            self.columns[x] = _CellColumn(1.0 / root, -1.0 / big_n, {h: 1.0})
            return h
        col = self.columns[x]
        s = (big_n * col.b + sum(col.d.values())) / root
        c0 = (col.a - s) / root
        spikes = {y: abs(col.b + v + c0) ** 2 for y, v in col.d.items()}
        base = abs(col.b + c0) ** 2
        spikes[0] = spikes.get(0, base) + abs(s) ** 2
        h = int(chooser.choose_spiked(big_n, base, spikes))
        alpha = col.amp(h) + c0
        beta = s if h == 0 else 0.0
        gamma = (beta - alpha / root) / root
        self.columns[x] = _CellColumn(alpha / root, gamma, {h: alpha}).normalized(big_n)
        return h

    def quantum_query(self, *_args, **_kw):
        raise NotImplementedError("ProductState supports classical queries only")

    def measure_relation(self, satisfying, chooser):
        """First-hit measurement; satisfying(x) lists register x's cells in
        the relation."""
        big_n = self.big_n
        hits = {}
        for x in sorted(self.columns):
            col = self.columns[x]
            cells = dict.fromkeys(c for c in satisfying(x) if 0 <= c < big_n)
            p = float(sum(abs(col.amp(c)) ** 2 for c in cells))
            hits[x] = (p, cells)
        candidates = sorted(hits) + [None]
        probs = []
        alive = 1.0
        for x in sorted(hits):
            p, _ = hits[x]
            probs.append(alive * p)
            alive *= 1.0 - p
        probs.append(alive)
        pick = candidates[int(chooser.choose(np.array(probs)))]
        for x in sorted(hits):
            if pick is not None and x > pick:
                break
            _, cells = hits[x]
            col = self.columns[x]
            if x == pick:
                col = _CellColumn(0.0, 0.0, {c: col.amp(c) for c in cells})
            else:
                col = _CellColumn(col.a, col.b, col.d | dict.fromkeys(cells, -col.b))
            self.columns[x] = col.normalized(big_n)
        return pick

    def to_dense_vector(self) -> np.ndarray:
        cd = self.big_n + 1
        if cd**self.m > DIM_CAP:
            raise MemoryError(f"densification exceeds cap {DIM_CAP}")
        vec = np.array([1.0 + 0.0j])
        for x in range(self.m):
            vec = np.kron(vec, self.column(x))
        return vec
