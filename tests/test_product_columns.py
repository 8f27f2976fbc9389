"""Structured ProductState columns against the dense-column reference.

Random interleavings of classical queries and extraction measurements (the
reference given the `member` predicate, ProductState the cell lists) at
n <= 3, m <= 3 must give the same outcome distribution, the same state on
every branch, and the same seeded draws as `DenseProductState`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_columns import DenseProductState
from qrolab.branching import RandomChooser, ReplayChooser, enumerate_distribution, enumerate_paths
from qrolab.config import ATOL
from qrolab.linalg import total_variation
from qrolab.sparse import ProductState

MAX_QUERIES = {1: 3, 2: 2, 3: 2}  # keeps every game tree below ~1000 leaves


@st.composite
def programs(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    pairs = draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, 2**n - 1))))
    queries = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=MAX_QUERIES[n]))
    ops = [("query", x) for x in queries]
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(ops)))
        ops.insert(at, ("measure", None))
    return n, m, frozenset(pairs), tuple(ops)


def play(state, ops, pairs, chooser, snapshots=True):
    """Run ops on state; returns the outcomes and the state after each op."""
    member = lambda x, c: (x, c) in pairs
    satisfying = lambda x: sorted(c for xx, c in pairs if xx == x)
    outcomes, vecs = [], []
    for kind, arg in ops:
        if kind == "query":
            outcomes.append(state.classical_query(arg, chooser))
        elif isinstance(state, DenseProductState):
            outcomes.append(state.measure_relation(member, chooser))
        else:
            outcomes.append(state.measure_relation(satisfying, chooser))
        if snapshots:
            vecs.append(state.to_dense_vector())
    return tuple(outcomes), vecs


@settings(max_examples=100, deadline=None)
@given(programs())
def test_structured_columns_match_dense_columns(program):
    n, m, pairs, ops = program

    def run_fast(ch):
        return play(ProductState(n, m), ops, pairs, ch)[0]

    def run_slow(ch):
        return play(DenseProductState(n, m), ops, pairs, ch)[0]

    assert total_variation(enumerate_distribution(run_fast),
                           enumerate_distribution(run_slow)) <= ATOL

    def run_lockstep(ch):
        outcomes, vecs = play(ProductState(n, m), ops, pairs, ch)
        slow = ReplayChooser(tuple(ch.taken))
        slow_outcomes, slow_vecs = play(DenseProductState(n, m), ops, pairs, slow)
        assert slow.taken == ch.taken and slow_outcomes == outcomes
        for p, q in zip(ch.branch_probs, slow.branch_probs):
            assert np.abs(p - q).max() <= ATOL
        for v, w in zip(vecs, slow_vecs):
            assert np.abs(v - w).max() <= ATOL
        return outcomes

    enumerate_paths(run_lockstep)

    for seed in range(5):
        fast, slow = RandomChooser(seed), RandomChooser(seed)
        assert run_fast(fast) == run_slow(slow)
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state


def test_seeded_runs_match_dense_columns_at_n12():
    pairs = frozenset((x, c) for x in range(4) for c in range(0, 2**12, 97))
    ops = (("query", 0), ("query", 2), ("measure", None), ("query", 0),
           ("query", 2), ("query", 3), ("measure", None), ("query", 3), ("query", 0))
    for seed in range(30):
        fast, slow = RandomChooser(seed), RandomChooser(seed)
        out, _ = play(ProductState(12, 4), ops, pairs, fast, snapshots=False)
        out_slow, _ = play(DenseProductState(12, 4), ops, pairs, slow, snapshots=False)
        assert out == out_slow
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state


def test_n_above_52_rejected():
    ProductState(52, 1)
    with pytest.raises(ValueError):
        ProductState(53, 1)
