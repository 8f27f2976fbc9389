"""Tests for relations, commit functions, and the extraction measurement."""

import numpy as np
import pytest

from dense_commutators import pi_empty, projectors
from qrolab.bounds import OxMCommutator, verify_local_bounds
from qrolab.branching import RandomChooser, enumerate_distribution
from qrolab.config import ATOL
from qrolab.experiments import commutator_relation_reports
from qrolab.fixtures import parse_fixture
from qrolab.oracle import DenseOracleState, OracleConfig
from qrolab.relations import (
    CommitFunction,
    ExtractionOutcome,
    Relation,
    constant_commit,
    gamma_of_f,
    gamma_prime_of_f,
    identity_commit,
    measure_extraction_dense,
    outcome_array,
    purified_m_permutation,
)


def brute_force_gammas(f):
    return gamma_of_f(f.fn, range(f.m), f.n), gamma_prime_of_f(f.fn, range(f.m), f.n)


def random_relation(rng, n, m, p=0.4):
    pairs = [(x, y) for x in range(m) for y in range(2**n) if rng.random() < p]
    return Relation.from_pairs(n, m, pairs)


class TestExtractionOutcome:
    def test_encoding_bijective(self):
        m = 5
        outs = [ExtractionOutcome(None, m)] + [ExtractionOutcome(x, m) for x in range(m)]
        codes = [o.encoded for o in outs]
        assert sorted(codes) == list(range(m + 1))


class TestProjectors:
    def test_empty_relation(self):
        config = OracleConfig(1, 2)
        rel = Relation.from_pairs(1, 2, [])
        assert not rel.mask.any() and rel.mask.shape == (2, 2)
        for p in projectors(rel):
            assert np.abs(p).max() == 0.0
        assert np.allclose(pi_empty(rel), np.eye(config.d_dim()))
        assert rel.gamma == 0 and rel.pairs() == []

    def test_all_zero_relation(self):
        rel = Relation(1, 2, lambda x, y: y == 0)
        assert rel.mask.tolist() == [[True, False], [True, False]]
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        for p in projectors(rel):
            assert np.allclose(p, want)
        assert rel.gamma == 1 and rel.pairs() == [(0, 0), (1, 0)]

    def test_full_relation(self):
        config = OracleConfig(1, 2)
        rel = Relation(1, 2, lambda x, y: True)
        assert rel.gamma == 2
        empty = pi_empty(rel)
        # bar Pi^x = |bot><bot| each, so Pi^empty keeps only the all-bot state
        want = np.zeros(config.d_dim())
        want[-1] = 1.0  # all-bot basis index is last in row-major order
        assert np.allclose(empty, np.diag(np.zeros(9) + (np.arange(9) == 8)))


class TestExtractionMeasurement:
    @pytest.mark.parametrize("n,m", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_completeness_and_orthogonality(self, n, m):
        rng = np.random.default_rng(100 + n * 10 + m)
        config = OracleConfig(n, m)
        cells = np.array(list(np.ndindex(*[config.cell_dim] * m)))
        for _ in range(50):
            rel = random_relation(rng, n, m)
            # one outcome per database basis state makes {Sigma^x} complete
            # and orthogonal; it must be the first cell holding a y in Y_x
            arr = outcome_array(rel, config)
            assert arr.shape == (config.d_dim(),)
            for db, cell in zip(arr, cells):
                hits = [x for x in range(m) if cell[x] in rel.y_set(x)]
                assert db == (hits[0] if hits else m)

    def test_initial_state_gives_empty(self):
        config = OracleConfig(1, 2)
        rel = Relation(1, 2, lambda x, y: True)
        oracle = DenseOracleState(config)
        out = measure_extraction_dense(oracle, rel, RandomChooser(0))
        assert out.is_empty

    def test_planted_value_gives_its_register(self):
        config = OracleConfig(1, 2)
        rel = Relation.from_pairs(1, 2, [(0, 1)])
        oracle = DenseOracleState(config)
        cell = np.zeros(3)
        cell[1] = 1.0
        bot = np.zeros(3)
        bot[2] = 1.0
        oracle.set_vector(np.kron(cell, bot))
        out = measure_extraction_dense(oracle, rel, RandomChooser(0))
        assert out.value == 0

    def test_smallest_index_wins(self):
        config = OracleConfig(1, 2)
        rel = Relation(1, 2, lambda x, y: y == 1)
        oracle = DenseOracleState(config)
        cell = np.zeros(3)
        cell[1] = 1.0
        oracle.set_vector(np.kron(cell, cell))
        out = measure_extraction_dense(oracle, rel, RandomChooser(0))
        assert out.value == 0

    def test_born_probabilities_match_independent_recomputation(self):
        rng = np.random.default_rng(13)
        config = OracleConfig(1, 2)
        rel = random_relation(rng, 1, 2, p=0.5)
        vec = rng.normal(size=config.d_dim()) + 1j * rng.normal(size=config.d_dim())
        vec /= np.linalg.norm(vec)
        arr = outcome_array(rel, config)

        def run(ch):
            oracle = DenseOracleState(config)
            oracle.set_vector(vec)
            return measure_extraction_dense(oracle, rel, ch).value

        dist = enumerate_distribution(run)
        for code in range(config.m + 1):
            want = float(np.sum(np.abs(vec[arr == code]) ** 2))
            got = dist.get(code if code < config.m else None, 0.0)
            assert abs(got - want) <= ATOL


class TestPurifiedM:
    def test_unitary_and_fixes_fresh_state(self):
        config = OracleConfig(1, 2)
        rng = np.random.default_rng(14)
        rel = random_relation(rng, 1, 2, p=0.5)
        dest = purified_m_permutation(rel, config)
        # a bijection of the D (x) P basis is a unitary permutation matrix
        assert np.array_equal(np.sort(dest), np.arange(config.d_dim() * (config.m + 1)))
        fresh = (config.d_dim() - 1) * (config.m + 1)  # |bot bot>|w=0>
        assert dest[fresh] == fresh

    def test_two_applications_consistent_outcomes(self):
        # purified measurement applied twice with fresh P registers writes the
        # same outcome into both, by Sigma^x idempotence
        config = OracleConfig(1, 2)
        rng = np.random.default_rng(15)
        rel = random_relation(rng, 1, 2, p=0.5)
        arr = outcome_array(rel, config)
        enc = np.where(arr == config.m, 0, arr + 1)
        d_dim, p_dim = config.d_dim(), config.m + 1
        vec = rng.normal(size=d_dim) + 1j * rng.normal(size=d_dim)
        vec /= np.linalg.norm(vec)
        # joint on D x P1 x P2 after both applications
        joint = np.zeros((d_dim, p_dim, p_dim), dtype=complex)
        for d in range(d_dim):
            joint[d, enc[d], enc[d]] = vec[d]
        # every nonzero entry has P1 == P2; mass off the diagonal would mean
        # inconsistent outcomes
        off = sum(
            abs(joint[d, w1, w2]) ** 2
            for d in range(d_dim) for w1 in range(p_dim) for w2 in range(p_dim)
            if w1 != w2
        )
        assert off == 0.0
        # and the same joint is what sequential permutation application yields
        state = np.zeros((d_dim, p_dim, p_dim), dtype=complex)
        state[:, 0, 0] = vec
        for axis in (1, 2):
            rolled = np.zeros_like(state)
            for d in range(d_dim):
                rolled[d] = np.roll(state[d], enc[d], axis=axis - 1)
            state = rolled
        assert np.abs(state - joint).max() <= ATOL


class TestGammas:
    def test_identity_in_y(self):
        f = identity_commit(2, 3)
        assert (f.gamma, f.gamma_prime) == (1, 1)
        assert brute_force_gammas(f) == (1, 1)

    def test_injective_table(self):
        # injective-in-(x,y) encryption-style table: Gamma = 1, Gamma' = 0
        table = [[0, 1], [2, 3], [4, 5]]
        f = CommitFunction.from_table(table)
        assert f.gamma == 1
        assert f.gamma_prime == 0

    def test_constant(self):
        f = constant_commit(2, 2)
        assert f.gamma == 4
        assert f.gamma_prime == 4
        assert brute_force_gammas(f) == (4, 4)

    def test_brute_force_ops(self):
        assert gamma_of_f(lambda x, y: y, range(3), 2) == 1
        assert gamma_prime_of_f(lambda x, y: y, range(3), 2) == 1
        assert gamma_of_f(lambda x, y: 0, range(2), 2) == 4

    def test_relation_gamma_cache_matches(self):
        rng = np.random.default_rng(16)
        rel = random_relation(rng, 2, 3, p=0.3)
        want = max(
            sum(1 for y in range(4) if rel.member(x, y)) for x in range(3)
        )
        assert rel.gamma == want

    def test_relation_and_outcome_array_memos(self):
        """relation_for keeps one Relation per t, and outcome_array one
        read-only array per relation, equal to a fresh build."""
        f = identity_commit(2, 3)
        config = OracleConfig(2, 3)
        rel = f.relation_for(1)
        assert f.relation_for(1) is rel and f.relation_for(2) is not rel
        arr = outcome_array(rel, config)
        assert outcome_array(rel, config) is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
        fresh = outcome_array(Relation(2, 3, lambda x, y: y == 1), config)
        assert np.array_equal(arr, fresh)


class TestShapeMismatch:
    """A relation on (n, m) used with a config of another (n, m) is refused
    wherever it meets the config, not read on the wrong cells."""

    REL = Relation.from_pairs(1, 2, [(0, 0), (1, 1)])
    ENTRY_POINTS = {
        "outcome_array": lambda rel, config: outcome_array(rel, config),
        "oxm-norm": lambda rel, config: OxMCommutator(rel, config, 0).norm(),
        "relation-reports": lambda rel, config: commutator_relation_reports(
            config.n, config.m, rel),
        "local-bounds": lambda rel, config: verify_local_bounds(config.n, rel),
        "measure": lambda rel, config: measure_extraction_dense(
            DenseOracleState(config), rel, RandomChooser(0)),
    }

    # verify_local_bounds takes m from the relation, so only n can disagree
    CASES = [(entry, n, m) for entry in ENTRY_POINTS for n, m in ((2, 2), (1, 3))
             if (entry, m) != ("local-bounds", 3)]

    @pytest.mark.parametrize("entry,n,m", CASES)
    def test_mismatched_config_raises(self, entry, n, m):
        with pytest.raises(ValueError, match="relation on"):
            self.ENTRY_POINTS[entry](self.REL, OracleConfig(n, m))


class TestMask:
    def test_predicate_and_pairs_give_one_read_only_mask(self):
        rng = np.random.default_rng(17)
        for n, m in [(1, 2), (2, 3), (3, 2)]:
            pairs = [(x, y) for x in range(m) for y in range(2**n) if rng.random() < 0.5]
            rels = [Relation.from_pairs(n, m, reversed(pairs)),
                    Relation(n, m, lambda x, y: (x, y) in pairs)]
            for rel in rels:
                assert rel.mask.shape == (m, 2**n) and not rel.mask.flags.writeable
                assert rel.pairs() == pairs
                for x in range(m):
                    ys = tuple(y for xp, y in pairs if xp == x)
                    assert rel.y_set(x) == ys and rel.gamma_x(x) == len(ys)
                    assert [rel.member(x, y) for y in range(2**n)] == \
                        [y in ys for y in range(2**n)]
            assert np.array_equal(rels[0].mask, rels[1].mask)

    @pytest.mark.parametrize("pair", [[0, 7], [0, 2], [2, 0], [-1, 0], [0, -1]])
    def test_pair_outside_x_times_y_raises(self, pair):
        raw = {"type": "relation", "n": 1, "m": 2, "pairs": [[0, 0], pair]}
        with pytest.raises(ValueError, match=rf"pair \({pair[0]}, {pair[1]}\)"):
            parse_fixture(raw)

    @pytest.mark.parametrize("table,row", [([[0, 1], [2, 3, 9]], 1), ([[0, 1], [2]], 1),
                                           ([[0, 1], [2, 3], []], 2)])
    def test_commit_table_row_of_wrong_length_raises(self, table, row):
        raw = {"type": "commit", "n": 1, "m": len(table), "table": table}
        with pytest.raises(ValueError, match=f"table row {row} has length"):
            parse_fixture(raw)
