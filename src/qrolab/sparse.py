"""Sparse compressed-oracle states for huge domains at small query counts.

Two representations share one interface:

* SparseState: an associative map from canonical databases (sorted (x, cell)
  pairs; absent registers are |bot>) to complex amplitudes, with optional
  prefix registers so adversary/X/Y coordinates can evolve jointly with the
  database.  Handles quantum queries via the Hadamard-frame permutation.
* ProductState: one independent cell column per queried register.  Classical
  queries and extraction measurements keep product form exactly, so this
  scales to many distinct query points where the flat map would blow up.
  Quantum queries are rejected.

Cells are stored in the computational basis at rest; quantum queries switch
to the Hadamard frame transiently.

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

import json

import numpy as np

from .config import DIM_CAP, PRUNE_EPS

BOT = -1  # cell symbol for |bot> inside column dictionaries

COMPUTATIONAL = "computational"
HADAMARD = "hadamard"


class QCapError(RuntimeError):
    """A query or encoding needs more non-bot cells than q_cap allows."""


class BasisError(RuntimeError):
    """Operation requires the other active basis."""


def fwht(vec: np.ndarray) -> np.ndarray:
    """Normalized Walsh-Hadamard transform; matches kron(H,...,H) ordering."""
    v = np.asarray(vec, dtype=complex)
    n = v.shape[0]
    if n <= 1024:
        from .oracle import walsh

        return walsh(n.bit_length() - 1) @ v
    v = v.copy()
    h = 1
    while h < n:
        v = v.reshape(-1, 2, h)
        a = v[:, 0, :].copy()
        b = v[:, 1, :].copy()
        v[:, 0, :] = a + b
        v[:, 1, :] = a - b
        v = v.reshape(-1)
        h *= 2
    return v / np.sqrt(n)


class SparseState:
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

    def copy(self) -> "SparseState":
        out = SparseState.__new__(SparseState)
        out.n, out.m, out.q_cap = self.n, self.m, self.q_cap
        out.basis = self.basis
        out.prefix = self.prefix
        out.amps = dict(self.amps)
        return out

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amps.values()))

    def renormalize(self) -> None:
        nrm = np.sqrt(self.norm_sq())
        if nrm <= 0.0:
            raise ValueError("zero state")
        if abs(nrm - 1.0) > 1e-15:
            self.amps = {k: a / nrm for k, a in self.amps.items()}

    def prune(self, eps: float = PRUNE_EPS) -> None:
        self.amps = {k: a for k, a in self.amps.items() if abs(a) > eps}

    def support(self) -> int:
        return len(self.amps)

    def max_key_len(self) -> int:
        return max((len(db) for _, db in self.amps), default=0)

    # -- column helpers --------------------------------------------------------

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

    # -- classical query -------------------------------------------------------

    def ensure_basis(self, target: str) -> None:
        """Lazily switch the cell basis; quantum queries leave the state in
        the Hadamard frame, computational-basis operations switch back here."""
        if self.basis != target:
            self.basis_switch()

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

    # -- basis switching and quantum queries ------------------------------------

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

    def measure_prefix(self, label: str, chooser) -> int:
        ax = self.prefix_axis(label)
        dim = self.prefix[ax][1]
        probs = np.zeros(dim)
        for (pre, _), amp in self.amps.items():
            probs[pre[ax]] += abs(amp) ** 2
        v = int(chooser.choose(probs))
        self.amps = {k: a for k, a in self.amps.items() if k[0][ax] == v}
        self.renormalize()
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

    # -- extraction measurement --------------------------------------------------

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

    # -- dense interop and serialization ------------------------------------------

    def to_dense_vector(self, cap: int = DIM_CAP) -> np.ndarray:
        """Decode into a dense vector over prefix (x) D (row-major, bot = 2^n)."""
        self.ensure_basis(COMPUTATIONAL)
        cd = self.big_n + 1
        d_dim = cd**self.m
        total = d_dim
        for _, d in self.prefix:
            total *= d
        if total > cap:
            raise MemoryError(f"densification dimension {total} exceeds cap")
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
                          tol: float = 0.0) -> "SparseState":
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

    def inner(self, other: "SparseState") -> complex:
        """<self|other> over shared keys."""
        if self.basis != other.basis:
            raise BasisError("inner product requires a common basis")
        acc = 0.0 + 0.0j
        for k, a in self.amps.items():
            b = other.amps.get(k)
            if b is not None:
                acc += np.conj(a) * b
        return complex(acc)

    def dump_json_lines(self) -> str:
        lines = []
        for (pre, db), amp in sorted(self.amps.items()):
            lines.append(json.dumps({
                "prefix": list(pre),
                "db": [[int(x), int(c)] for x, c in db],
                "re": float(amp.real),
                "im": float(amp.imag),
            }, sort_keys=True))
        return "\n".join(lines)

    @classmethod
    def load_json_lines(cls, text: str, n: int, m: int, q_cap: int, prefix=()) -> "SparseState":
        out = cls(n, m, q_cap, prefix=prefix)
        out.amps = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (tuple(rec["prefix"]), tuple((x, c) for x, c in rec["db"]))
            out.amps[key] = complex(rec["re"], rec["im"])
        return out


def _walsh_matrix(n: int) -> np.ndarray:
    from .oracle import walsh

    return walsh(n)


# -- spec-facing functional wrappers ---------------------------------------------


def sparse_encode(dense_state, q_cap: int) -> SparseState:
    """Encode a DenseOracleState (database registers only) sparsely."""
    config = dense_state.config
    vec = dense_state.d_vector()
    return SparseState.from_dense_vector(vec, config.n, config.m, q_cap)


def sparse_decode(sparse: SparseState, cap: int = DIM_CAP):
    """Densify into a DenseOracleState over the same oracle config."""
    from .oracle import DenseOracleState, OracleConfig

    if sparse.prefix:
        raise ValueError("decode only defined for pure database states")
    config = OracleConfig(sparse.n, sparse.m)
    out = DenseOracleState(config, cap=cap)
    out.state.set_vector(sparse.to_dense_vector(cap=cap))
    return out


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

    def measure_relation(self, member, chooser, satisfying=None):
        """First-hit measurement; satisfying(x) may supply the cell list directly."""
        big_n = self.big_n
        hits = {}
        for x in sorted(self.columns):
            col = self.columns[x]
            if satisfying is not None:
                cells = dict.fromkeys(c for c in satisfying(x) if 0 <= c < big_n)
            else:
                cells = [c for c in range(big_n) if member(x, c)]
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

    def to_dense_vector(self, cap: int = DIM_CAP) -> np.ndarray:
        cd = self.big_n + 1
        if cd**self.m > cap:
            raise MemoryError("densification exceeds cap")
        vec = np.array([1.0 + 0.0j])
        for x in range(self.m):
            vec = np.kron(vec, self.column(x))
        return vec
