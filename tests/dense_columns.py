"""Reference product backend: one dense (2^n+1)-vector per queried register.

This is the brute-force form of `qrolab.sparse.ProductState`, kept as the
oracle its structured columns are checked against at tiny n.  Cost is linear
in 2^n per operation.
"""

from __future__ import annotations

import numpy as np


class DenseProductState:
    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self.columns: dict[int, np.ndarray] = {}

    @property
    def big_n(self) -> int:
        return 2**self.n

    def column(self, x: int) -> np.ndarray:
        if x in self.columns:
            return self.columns[x]
        col = np.zeros(self.big_n + 1, dtype=complex)
        col[self.big_n] = 1.0
        return col

    def classical_query(self, x: int, chooser) -> int:
        if not 0 <= x < self.m:
            raise ValueError(f"x={x} out of domain range")
        big_n = self.big_n
        root = np.sqrt(big_n)
        if x not in self.columns:
            # fresh register: exactly uniform response, post-state F|h>
            h = int(chooser.choose_uniform(big_n))
            col = np.full(big_n + 1, -1.0 / big_n, dtype=complex)
            col[h] += 1.0
            col[big_n] = 1.0 / root
            self.columns[x] = col
            return h
        v = self.column(x)
        a = v[big_n]
        b = v[:big_n].sum() / root
        c0 = (a - b) / root
        alphas = v[:big_n] + c0
        probs = np.abs(alphas) ** 2
        probs[0] += abs(b) ** 2
        h = int(chooser.choose(probs))
        alpha = alphas[h]
        beta = b if h == 0 else 0.0
        gamma = (beta - alpha / root) / root
        col = np.full(big_n + 1, gamma, dtype=complex)
        col[h] += alpha
        col[big_n] = alpha / root
        self.columns[x] = col / np.linalg.norm(col)
        return h

    def measure_relation(self, member, chooser, satisfying=None):
        """First-hit measurement; satisfying(x) may supply the cell list directly."""
        big_n = self.big_n
        hits = {}
        for x in sorted(self.columns):
            col = self.columns[x]
            if satisfying is not None:
                cells = [c for c in satisfying(x) if 0 <= c < big_n]
            else:
                cells = [c for c in range(big_n) if member(x, c)]
            p = float(np.sum(np.abs(col[cells]) ** 2)) if cells else 0.0
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
            p, cells = hits[x]
            col = self.columns[x]
            if pick is not None and x > pick:
                break
            if x == pick:
                keep = np.zeros_like(col)
                keep[cells] = col[cells]
                self.columns[x] = keep / np.linalg.norm(keep)
                break
            col = col.copy()
            col[cells] = 0.0
            nrm = np.linalg.norm(col)
            if nrm <= 0.0:
                raise ValueError("collapse onto zero-probability branch")
            self.columns[x] = col / nrm
        return pick

    def to_dense_vector(self) -> np.ndarray:
        vec = np.array([1.0 + 0.0j])
        for x in range(self.m):
            vec = np.kron(vec, self.column(x))
        return vec
