"""The stacked lemma norms of `verify_local_bounds` against the per-x loop in
`dense_commutators.local_bounds_per_x` (single SVDs, np.kron lifts).

Checked on all 80 relations at n=1 (m=2, 3) and seeded relations at (2,2),
(2,3) and (3,2).  Three mutants of the stack restate it with a bug each: the
loop tells the first two apart, and the third is no bug on any relation,
because every ||1 - Pi^x'|| is 1 (bot is in no relation, so 1 - Pi^x' keeps
it).  That identity is why `bounds._local_norms` leaves the factors out.
"""

import math

import numpy as np
import pytest

from dense_commutators import local_bounds_per_x
from qrolab.bounds import verify_local_bounds
from qrolab.experiments import all_relations, random_relations
from qrolab.linalg import operator_norm
from qrolab.oracle import OracleConfig, build_f, build_o_small
from qrolab.relations import projectors_for_relation

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


MUTANTS = ("lift-pi-kron-eye", "pi-stacks-for-empty", "product-includes-x")


def local_norms(n, rel, mutant=None):
    """`bounds._local_norms` restated as (F-Pi, O-Pi, O-PiEmpty) per x, with
    the named mutant's bug: lifting to Pi (x) 1_Y instead of 1_Y (x) Pi;
    reading the Pi stacks instead of the 1 - Pi stacks for the Pi^empty row
    (both the commutator and the product); or letting the product over x'
    include x."""
    config = OracleConfig(n, rel.m)
    locals_ = projectors_for_relation(rel, config)
    pis = np.stack([locals_[x] for x in range(rel.m)])
    m, cd = rel.m, config.cell_dim
    f, o_small = build_f(n), build_o_small(n)
    comps = np.eye(cd) - pis
    both = np.concatenate([pis, comps])
    if mutant == "lift-pi-kron-eye":
        lifted = np.einsum("xij,ab->xiajb", both, np.eye(2**n))
    else:
        lifted = np.einsum("ab,xij->xaibj", np.eye(2**n), both)
    lifted = lifted.reshape(2 * m, 2**n * cd, 2**n * cd)
    f_pi = operator_norm(f @ pis - pis @ f)
    o_lifted = operator_norm(o_small @ lifted - lifted @ o_small)
    factors = operator_norm(pis if mutant == "pi-stacks-for-empty" else comps).tolist()
    first = 0 if mutant == "pi-stacks-for-empty" else m
    out = []
    for x in range(m):
        others = factors if mutant == "product-includes-x" else factors[:x] + factors[x + 1:]
        out.append((f_pi[x], o_lifted[x], o_lifted[first + x] * math.prod(others)))
    return out


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


@pytest.mark.parametrize("mutant", MUTANTS[:2])
def test_per_x_loop_rejects_stack_mutants(mutant):
    assert caught(mutant) > 0, mutant


def test_product_including_x_is_no_bug():
    for n, rel in cases():
        comps = np.eye(2**n + 1) - np.stack(list(projectors_for_relation(
            rel, OracleConfig(n, rel.m)).values()))
        assert operator_norm(comps).tolist() == [1.0] * rel.m
    assert caught("product-includes-x") == 0
