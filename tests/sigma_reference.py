"""Brute-force reference for the parallel trivial-attack probability.

`qrolab.sigma.p_trivial_parallel` reduces the search over subsets of C^r to
per-position searches; this module enumerates the subsets themselves and is
the oracle the tests compare that reduction against (tiny cases only).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from qrolab.sigma import AccessStructure, SigmaSpec


def brute_force_p_trivial_parallel(spec: SigmaSpec, access: AccessStructure,
                                   r: int) -> Fraction:
    """Reference oracle: enumerate all subsets of C^r (tiny cases only)."""
    tuples = list(itertools.product(range(len(spec.challenges)), repeat=r))
    if 2 ** len(tuples) > 2**20:
        raise ValueError("too large for brute force")
    best = 0
    for size in range(len(tuples), 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(tuples, size):
            ok = True
            for pos in range(r):
                marginal = frozenset(t[pos] for t in subset)
                if access.member(marginal):
                    ok = False
                    break
            if ok:
                best = size
                break
    return Fraction(best, len(spec.challenges) ** r)
