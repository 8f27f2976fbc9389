"""The stacked lemma norms of `verify_local_bounds` against the per-x loop in
`dense_commutators.local_bounds_per_x` (dense projectors, single SVDs,
np.kron lifts, the factored [O^x, Pi^empty]).

Checked on all 80 relations at n=1 (m=2, 3) and seeded relations at (2,2),
(2,3) and (3,2).  Three mutants of the Hadamard form restate it with a bug
each, and the loop tells every one apart: the lift as np.repeat (Pi (x) 1_Y
instead of 1_Y (x) Pi), bot marked as a member, and F's difference read
from the lifted mask in Pi (x) 1_Y order.  The Pi^empty row is the Pi^x row
(by [A, 1 - Pi] = -[A, Pi] and ||1 - Pi^x'|| = 1), which is exact in the
library and within rounding of the factored oracle.
"""

import numpy as np
import pytest

from dense_commutators import local_bounds_per_x, projectors
from qrolab.bounds import verify_local_bounds
from qrolab.experiments import all_relations, random_relations
from qrolab.linalg import operator_norm
from qrolab.oracle import build_f, build_o_small

GRID = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]


def relations(n, m):
    if n == 1:
        return list(all_relations(1, m))
    return random_relations(n, m, 20, np.random.default_rng(100 * n + m))


def cases():
    return [(n, rel) for n, m in GRID for rel in relations(n, m)]


@pytest.mark.parametrize("n,m", GRID)
def test_stacked_local_bounds_match_per_x_loop(n, m):
    for rel in relations(n, m):
        got = verify_local_bounds(n, rel)
        want = local_bounds_per_x(n, rel)
        assert [(r.experiment, r.params, r.bound, r.satisfied) for r in got] == \
            [(r.experiment, r.params, r.bound, r.satisfied) for r in want]
        assert max(abs(a.measured - b.measured) for a, b in zip(got, want)) <= 1e-15


def test_local_rows_share_one_runtime():
    reps = verify_local_bounds(2, relations(2, 3)[0])
    assert len(reps) == 9 and len({r.runtime_ms for r in reps}) == 1


def test_pi_empty_row_is_the_pi_row_exactly():
    for n, rel in cases():
        reps = verify_local_bounds(n, rel)
        for x in range(rel.m):
            f_pi, o_pi, o_empty = reps[3 * x:3 * x + 3]
            assert (f_pi.experiment, o_pi.experiment, o_empty.experiment) == \
                ("local-F-Pi", "local-O-Pi", "local-O-PiEmpty")
            assert o_empty.params["x"] == x and o_empty.measured == o_pi.measured


MUTANTS = ("lift-pi-kron-eye", "bot-member", "f-from-lifted-mask")


def local_norms(n, rel, mutant=None):
    """`bounds._local_norms` restated as (F-Pi, O-Pi, O-PiEmpty) per x: each
    norm is ||A o (d[col] - d[row])||, with the named mutant's bug: lifting
    the padded mask by np.repeat (Pi (x) 1_Y); padding bot as a member; or
    reading F's d from the lifted mask as if it were Pi (x) 1_Y."""
    cells = np.pad(rel.mask, ((0, 0), (0, 1)), constant_values=mutant == "bot-member")
    cells = cells.astype(float)
    if mutant == "lift-pi-kron-eye":
        lifted = np.repeat(cells, 2**n, axis=1)
    else:
        lifted = np.tile(cells, 2**n)
    f_d = lifted[:, ::2**n] if mutant == "f-from-lifted-mask" else cells
    f, o_small = build_f(n), build_o_small(n)
    f_pi = operator_norm(f * (f_d[:, None, :] - f_d[:, :, None]))
    o_pi = operator_norm(o_small * (lifted[:, None, :] - lifted[:, :, None]))
    return [(f_pi[x], o_pi[x], o_pi[x]) for x in range(rel.m)]


def loop_norms(n, rel):
    reps = local_bounds_per_x(n, rel)
    return [tuple(r.measured for r in reps[3 * x:3 * x + 3]) for x in range(rel.m)]


def caught(mutant):
    """How many (n, relation) cases the per-x loop tells the mutant apart on."""
    return sum(not np.allclose(local_norms(n, rel, mutant), loop_norms(n, rel),
                               rtol=0.0, atol=1e-12) for n, rel in cases())


def test_restated_stack_is_the_library_one():
    for n, rel in cases():
        reps = verify_local_bounds(n, rel)
        assert np.array(local_norms(n, rel)).ravel().tolist() == [r.measured for r in reps]


@pytest.mark.parametrize("mutant", MUTANTS)
def test_per_x_loop_rejects_stack_mutants(mutant):
    assert caught(mutant) > 0, mutant


def test_product_including_x_is_no_bug():
    """Every factor ||1 - Pi^x'|| of the factored Pi^empty norm is exactly 1,
    so a product over all x', x included, changes nothing."""
    for n, rel in cases():
        comps = np.eye(2**n + 1) - np.stack(projectors(rel))
        assert operator_norm(comps).tolist() == [1.0] * rel.m
