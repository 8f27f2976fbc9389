"""The spectator-split block norm of [O^x, M_DP] and the [O^x, Pi^empty]
corollary against the references in `dense_commutators`: the
column-by-column build, the P-Fourier blocks on the whole of Y (x) D, and
the dense Pi^empty.

Checked for every x of all 80 relations at n=1 (m=2, 3), seeded relations at
(2,2) and (2,3), and a hypothesis sample over n <= 2, m <= 3.  Four mutants
of the block formula show that the column-by-column oracle tells it apart; a
fifth, which keeps only the all-bot spectator row, needs m = 5 and the
P-Fourier oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_commutators import o_pi_empty_norm_dense, oxm_norm_by_columns, oxm_norm_pfourier
from qrolab.bounds import OxMCommutator, verify_local_bounds
from qrolab.config import ATOL, DENSE_SVD_CUTOFF
from qrolab.experiments import all_relations, random_relations
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


def check_pi_empty(n, rel, tol=ATOL):
    reps = [r for r in verify_local_bounds(n, rel) if r.experiment == "local-O-PiEmpty"]
    assert [r.params["x"] for r in reps] == list(range(rel.m))
    for rep in reps:
        dense = o_pi_empty_norm_dense(n, rel, rep.params["x"])
        assert abs(rep.measured - dense) <= tol, (rep.params, list(rel.pairs()))


@pytest.mark.parametrize("n,m", [(1, 2), (1, 3), (2, 2)])
def test_batched_oxm_norm_matches_columns(n, m):
    config = OracleConfig(n, m)
    for rel in relations(n, m):
        check_oxm(rel, config)


@pytest.mark.parametrize("n,m", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_factored_pi_empty_matches_dense(n, m):
    # the seeded grid's gap is at most 5.6e-16; other random relations at
    # n = 2 reach 1.9e-15, so the hypothesis sample below keeps ATOL
    for rel in relations(n, m):
        check_pi_empty(n, rel, tol=1e-15)


@pytest.mark.parametrize("n,m", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_block_norm_matches_pfourier_oracle(n, m):
    config = OracleConfig(n, m)
    for rel in relations(n, m):
        for x in range(m):
            assert abs(OxMCommutator(rel, config, x).block_norm()
                       - oxm_norm_pfourier(rel, config, x)) <= ATOL, (x, list(rel.pairs()))


MUTANTS = ("first-block-only", "empty-merged-with-x0", "phases-not-tiled-over-y",
           "x-cell-not-isolated")


def block_norm(rel, config, x, mutant=None):
    """OxMCommutator.block_norm restated, with the named mutant's bug:
    stopping at j = 1; encoding x as x instead of x + 1 (so empty and x = 0
    share a phase); repeating each phase over Y instead of tiling the row
    (so phases land on the wrong (y, d_x) pairs); reading the rows with the
    last cell in place of x's; or keeping only the row whose spectators are
    all bot."""
    cd = config.cell_dim
    arr = outcome_array(rel, config)
    enc = np.where(arr == config.m, 0, arr + (mutant != "empty-merged-with-x0"))
    enc = enc.reshape([cd] * config.m)
    if mutant != "x-cell-not-isolated":
        enc = np.moveaxis(enc, x, -1)
    rows = enc.reshape(-1, cd)
    # bot is the last index of every cell, so the all-bot spectators come last
    rows = rows[-1:] if mutant == "bot-spectators-only" else np.unique(rows, axis=0)
    if mutant == "phases-not-tiled-over-y":
        rows = np.repeat(rows, config.big_n, axis=1)
    else:
        rows = np.tile(rows, config.big_n)
    p = config.m + 1
    last = 1 if mutant == "first-block-only" else p // 2
    lam = np.exp(2j * np.pi / p * np.arange(1, last + 1)[:, None, None] * rows)
    blocks = build_o_small(config.n) * (lam[..., None, :] - lam[..., :, None])
    return float(np.linalg.svd(blocks, compute_uv=False)[..., 0].max())


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


def test_bot_spectators_only_is_told_apart_at_m5():
    """For m + 1 in {3, 4} every nonzero shift k of P reaches the same
    max_j |omega^{jk} - 1|, so the all-bot spectator row alone gives the
    right norm on every n = 1, m <= 3 case.  At m = 5, k = 2 reaches sqrt(3)
    and k = 3 reaches 2: with R = {(1, 0), (4, 0)} and x = 1 the all-bot row
    shifts by 2 while D_4 = 0 shifts by 3."""
    for rel, config, x in n1_cases():
        assert abs(block_norm(rel, config, x, "bot-spectators-only")
                   - OxMCommutator(rel, config, x).block_norm()) <= ATOL
    rel = Relation.from_pairs(1, 5, [(1, 0), (4, 0)])
    config = OracleConfig(1, 5)
    want = oxm_norm_pfourier(rel, config, 1)
    assert abs(OxMCommutator(rel, config, 1).block_norm() - want) <= ATOL
    assert abs(block_norm(rel, config, 1, "bot-spectators-only") - want) > ATOL


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
    if OxMCommutator(rel, config, 0).dim <= DENSE_SVD_CUTOFF:
        check_oxm(rel, config)
    else:
        # (2,3): norm() is Lanczos, checked against the exact blocks
        for x in range(m):
            com = OxMCommutator(rel, config, x)
            assert abs(com.norm() - com.block_norm()) <= 1e-8, (x, list(rel.pairs()))
    check_pi_empty(n, rel)
