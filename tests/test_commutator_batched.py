"""The P-Fourier block norm of [O^x, M_DP] and the factored [O^x, Pi^empty]
against the column-by-column and dense-Pi^empty references in
`dense_commutators`.

Checked for every x of all 80 relations at n=1 (m=2, 3), seeded relations at
(2,2) and (2,3), and a hypothesis sample over n <= 2, m <= 3.  Three mutants
of the block formula show that the column-by-column oracle tells it apart.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_commutators import o_pi_empty_norm_dense, oxm_norm_by_columns
from qrolab.bounds import OxMCommutator, verify_local_bounds
from qrolab.config import ATOL, DENSE_SVD_CUTOFF
from qrolab.experiments import all_relations, random_relations
from qrolab.linalg import apply_on_axes
from qrolab.oracle import OracleConfig, build_o_small
from qrolab.relations import Relation, outcome_array


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


MUTANTS = ("first-block-only", "empty-merged-with-x0", "phases-not-tiled-over-y")


def block_norm(rel, config, x, mutant=None):
    """OxMCommutator.block_norm restated, with the named mutant's bug:
    stopping at j = 1, encoding x as x instead of x + 1 (so empty and x = 0
    share a phase), or repeating the database phases over Y instead of tiling
    them (so they land on the wrong (y, db) pairs)."""
    dims = [config.big_n] + [config.cell_dim] * config.m
    side = int(np.prod(dims))
    o = apply_on_axes(build_o_small(config.n), np.eye(side).reshape(dims + [side]),
                      [0, 1 + x]).reshape(side, side)
    arr = outcome_array(rel, config)
    enc = np.where(arr == config.m, 0, arr + (mutant != "empty-merged-with-x0"))
    spread = np.repeat if mutant == "phases-not-tiled-over-y" else np.tile
    enc = spread(enc, config.big_n)
    p = config.m + 1
    last = 1 if mutant == "first-block-only" else p // 2
    lam = np.exp(2j * np.pi / p * np.outer(np.arange(1, last + 1), enc))
    blocks = o * (lam[:, None, :] - lam[:, :, None])
    return float(np.linalg.svd(blocks, compute_uv=False)[:, 0].max())


def n1_cases():
    return [(rel, OracleConfig(1, m), x)
            for m in (2, 3) for rel in all_relations(1, m) for x in range(m)]


def test_restated_block_formula_is_the_library_one():
    for rel, config, x in n1_cases():
        assert abs(block_norm(rel, config, x)
                   - OxMCommutator(rel, config, x).block_norm()) <= 1e-12


@pytest.mark.parametrize("mutant", MUTANTS)
def test_columns_oracle_rejects_block_mutants(mutant):
    assert any(abs(block_norm(rel, config, x, mutant) - oxm_norm_by_columns(rel, config, x))
               > ATOL for rel, config, x in n1_cases()), mutant


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
