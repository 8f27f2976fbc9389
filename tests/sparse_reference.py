"""Reference flat-map backend: the per-entry SparseState operations.

This is the brute-force form of `qrolab.sparse.SparseState`, kept as the
oracle its array passes are checked against at tiny n.  Every method below
walks the amplitude map one entry at a time: grouping keys into columns in
Python, one small matmul or FWHT per group, and one dict write per output
entry.  Everything else (norms, pruning, prefix measurement, interop) is
inherited from SparseState.
"""

from __future__ import annotations

import numpy as np

from qrolab.oracle import walsh as _walsh_matrix
from qrolab.sparse import BOT, COMPUTATIONAL, HADAMARD, QCapError, SparseState, fwht


class ReferenceSparseState(SparseState):
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
