"""The batched [O^x, M_DP] build and the factored [O^x, Pi^empty] against
the column-by-column and dense-Pi^empty references in `dense_commutators`.

Checked for every x of all 80 relations at n=1 (m=2, 3), seeded relations at
(2,2) and (2,3), and a hypothesis sample over n <= 2, m <= 3.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_commutators import o_pi_empty_norm_dense, oxm_norm_by_columns
from qrolab.bounds import OxMCommutator, verify_local_bounds
from qrolab.config import ATOL, DENSE_SVD_CUTOFF
from qrolab.experiments import all_relations, random_relations
from qrolab.oracle import OracleConfig
from qrolab.relations import Relation


def relations(n, m):
    if n == 1:
        return list(all_relations(1, m))
    count = {2: 4, 3: 3}[m]
    return random_relations(n, m, count, np.random.default_rng(100 * n + m))


def check_oxm(rel, config):
    for x in range(config.m):
        com = OxMCommutator(rel, config, x)
        assert com.dim <= DENSE_SVD_CUTOFF
        assert abs(com.norm() - oxm_norm_by_columns(rel, config, x)) <= ATOL, (x, list(rel.pairs()))


def check_pi_empty(n, rel):
    reps = [r for r in verify_local_bounds(n, rel) if r.experiment == "local-O-PiEmpty"]
    assert [r.params["x"] for r in reps] == list(range(rel.m))
    for rep in reps:
        dense = o_pi_empty_norm_dense(n, rel, rep.params["x"])
        assert abs(rep.measured - dense) <= ATOL, (rep.params, list(rel.pairs()))


@pytest.mark.parametrize("n,m", [(1, 2), (1, 3), (2, 2)])
def test_batched_oxm_norm_matches_columns(n, m):
    config = OracleConfig(n, m)
    for rel in relations(n, m):
        check_oxm(rel, config)


@pytest.mark.parametrize("n,m", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_factored_pi_empty_matches_dense(n, m):
    for rel in relations(n, m):
        check_pi_empty(n, rel)


@st.composite
def small_relations(draw):
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 3))
    pairs = draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, 2**n - 1))))
    return n, m, Relation.from_pairs(n, m, pairs)


@settings(max_examples=40, deadline=None)
@given(small_relations())
def test_random_relations_match_references(case):
    n, m, rel = case
    config = OracleConfig(n, m)
    # (2,3) is above the SVD cutoff: its Lanczos path is checked against a
    # dense SVD in test_bounds.py, too slow to repeat for every example
    if OxMCommutator(rel, config, 0).dim <= DENSE_SVD_CUTOFF:
        check_oxm(rel, config)
    check_pi_empty(n, rel)
