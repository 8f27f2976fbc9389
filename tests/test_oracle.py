"""Tests for the compressed oracle: F, O_XYD, and classical-query semantics."""

import numpy as np
import pytest
import scipy.stats

from qrolab.branching import RandomChooser, enumerate_distribution, enumerate_paths
from qrolab.config import ATOL
from qrolab.linalg import total_variation
from qrolab.oracle import (
    DenseOracleState,
    LazyRandomOracle,
    OracleConfig,
    build_f,
    build_o_small,
    check_unitary,
    d_label,
    oracle_state,
    walsh,
)
from qrolab.sparse import ProductState, SparseState


def phi(n, y):
    """|phi_y> = H|y> on the (2^n + 1)-dim cell (bot component zero)."""
    big_n = 2**n
    v = np.zeros(big_n + 1)
    v[:big_n] = walsh(n)[:, y]
    return v


def bot_vec(n):
    v = np.zeros(2**n + 1)
    v[2**n] = 1.0
    return v


class TestF:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_defining_equations(self, n):
        f = build_f(n)
        assert np.abs(f @ bot_vec(n) - phi(n, 0)).max() <= ATOL
        assert np.abs(f @ phi(n, 0) - bot_vec(n)).max() <= ATOL
        for y in range(1, 2**n):
            assert np.abs(f @ phi(n, y) - phi(n, y)).max() <= ATOL

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_involution_and_unitarity(self, n):
        f = build_f(n)
        assert np.abs(f @ f - np.eye(2**n + 1)).max() <= ATOL
        assert check_unitary(f) <= ATOL

    def test_expansion_at_n1(self):
        # F|y> = |y> + 2^{-n/2}(|bot> - |phi_0>) evaluated at n=1, y=0
        f = build_f(1)
        assert np.abs(f[:, 0] - np.array([0.5, -0.5, 1 / np.sqrt(2)])).max() <= 1e-9

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            build_f(0)


class TestQueryUnitary:
    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
    def test_unitary_within_cap(self, n, m):
        assert check_unitary(build_o_small(n)) <= ATOL
        # O_XYD as the dense backend applies it, one basis column at a time
        config = OracleConfig(n, m)
        fresh = DenseOracleState(config)
        fresh.add_register("X", m)
        fresh.add_register("Y", config.big_n)
        dim = fresh.dim
        cols = []
        for j in range(dim):
            oracle = fresh.copy()
            oracle.set_vector(np.eye(1, dim, j))
            oracle.quantum_query("X", "Y")
            cols.append(oracle.vector())
        assert check_unitary(np.stack(cols, axis=1)) <= ATOL

    def test_phi0_is_fixed(self, n=1):
        # O^x |y>|phi_0> = |y>|phi_0>
        o = build_o_small(n)
        for y in range(2**n):
            ey = np.zeros(2**n)
            ey[y] = 1.0
            v = np.kron(ey, phi(n, 0))
            assert np.abs(o @ v - v).max() <= ATOL

    def test_x_register_distribution_unchanged(self):
        # O is X-controlled, so the X measurement distribution is invariant
        # (the full reduced density operator is not: coherences may damp).
        config = OracleConfig(1, 2)
        rng = np.random.default_rng(11)
        oracle = DenseOracleState(config)
        oracle.add_register("X", config.m, value=None_safe(rng, config.m))
        oracle.add_register("Y", config.big_n, value=None_safe(rng, config.big_n))
        before = oracle.born_probs(["X"])
        oracle.quantum_query("X", "Y")
        after = oracle.born_probs(["X"])
        assert np.abs(before - after).max() <= ATOL

    def test_query_on_fresh_oracle_uniform_y(self):
        config = OracleConfig(2, 2)
        oracle = DenseOracleState(config)
        oracle.add_register("X", config.m, value=1)
        oracle.add_register("Y", config.big_n, value=0)
        oracle.quantum_query("X", "Y")
        probs = oracle.born_probs(["Y"])
        assert np.abs(probs - 2.0**-config.n).max() <= ATOL

    def test_independent_queries_commute_full_space(self):
        # two O applications on disjoint query registers, n=1, m=2
        config = OracleConfig(1, 2)
        rng = np.random.default_rng(12)
        vec = rng.normal(size=2 * 2 * 2 * 2 * 9) + 1j * rng.normal(size=144)
        vec /= np.linalg.norm(vec)

        def run(order):
            oracle = DenseOracleState(config)
            for lab in ("X1", "Y1", "X2", "Y2"):
                oracle.add_register(lab, 2)
            oracle.set_vector(vec)
            for which in order:
                oracle.quantum_query(f"X{which}", f"Y{which}")
            return oracle.vector()

        assert np.abs(run((1, 2)) - run((2, 1))).max() <= ATOL


def None_safe(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


class TestClassicalQuery:
    def test_fresh_query_uniform_and_poststate(self):
        config = OracleConfig(2, 2)

        def run(ch):
            oracle = DenseOracleState(config)
            h = oracle.classical_query(0, ch)
            # post-state of D_0 must be F|h>
            col = oracle.subvector([d_label(0)])
            want = build_f(config.n)[:, h]
            assert np.abs(col - want * np.sign((col @ want).real or 1)).max() <= 1e-9
            return h

        dist = enumerate_distribution(run)
        assert len(dist) == 4
        for h, p in dist.items():
            assert abs(p - 0.25) <= ATOL

    def test_same_x_twice_identical(self):
        config = OracleConfig(1, 2)

        def run(ch):
            oracle = DenseOracleState(config)
            h1 = oracle.classical_query(1, ch)
            h2 = oracle.classical_query(1, ch)
            return (h1, h2)

        for (h1, h2), p in enumerate_distribution(run).items():
            if p > 1e-12:
                assert h1 == h2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_repeat_probability_on_planted_state(self, n):
        # D_x manually set to |h><h|: response h with prob (1 - 2^-n)^2 (h != 0)
        config = OracleConfig(n, 1)
        h = 2**n - 1

        def run(ch):
            oracle = DenseOracleState(config)
            cell = np.zeros(config.cell_dim, dtype=complex)
            cell[h] = 1.0
            oracle.set_vector(cell)
            return oracle.classical_query(0, ch)

        dist = enumerate_distribution(run)
        want = (1 - 2.0**-n) ** 2
        assert abs(dist[h] - want) <= ATOL
        assert want >= 1 - 2 * 2.0**-n

    def test_out_of_range_rejected(self):
        oracle = DenseOracleState(OracleConfig(1, 2))
        with pytest.raises(ValueError):
            oracle.classical_query(5, RandomChooser(0))


class TestDenseStateCopies:
    """copy(), measured_branches and classical_query_branches build
    DenseOracleStates that carry the parent's config and their own tensor."""

    @staticmethod
    def _children(oracle):
        yield oracle.copy()
        yield from (kid for _, kid, _ in oracle.measured_branches(["W"]))
        yield from (kid for _, kid, _ in oracle.classical_query_branches(1))

    def test_children_are_dense_oracle_states(self):
        config = OracleConfig(1, 2)
        oracle = DenseOracleState(config, prefix=[("W", 2)])
        oracle.apply(walsh(1), ["W"])
        oracle.classical_query(0, RandomChooser(3))
        before = oracle.tensor.copy()
        kids = list(self._children(oracle))
        assert len(kids) == 1 + 2 + 2
        for kid in kids:
            assert type(kid) is DenseOracleState and kid.config is config
            assert not np.shares_memory(kid.tensor, oracle.tensor)
            h = kid.classical_query(0, RandomChooser(0))
            assert 0 <= h < config.big_n and abs(kid.norm() - 1.0) <= ATOL
        assert np.array_equal(oracle.tensor, before)
        assert oracle.labels == ("D0", "D1", "W")

    def test_prefix_registers_follow_the_database(self):
        oracle = DenseOracleState(OracleConfig(1, 2), prefix=[("X", 2), ("Y", 2)])
        assert oracle.labels == ("D0", "D1", "X", "Y")
        assert oracle.tensor[2, 2, 0, 0] == 1.0 and oracle.norm() == 1.0


class TestOracleStateFactory:
    @pytest.mark.parametrize("backend,kind", [("dense", DenseOracleState),
                                              ("sparse", SparseState),
                                              ("product", ProductState)])
    def test_backends(self, backend, kind):
        assert type(oracle_state(backend, 1, 2)) is kind

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            oracle_state("nope", 1, 2)

    def test_product_backend_refuses_a_prefix(self):
        with pytest.raises(ValueError, match="prefix"):
            oracle_state("product", 1, 2, prefix=[("X", 2)])


class TestLazyReferenceOracle:
    def test_idempotent(self):
        ro = LazyRandomOracle(4, RandomChooser(99))
        assert ro.query(7) == ro.query(7)

    def test_deterministic_under_seed(self):
        a = [LazyRandomOracle(3, RandomChooser(5)).query(x) for x in range(4)]
        b = [LazyRandomOracle(3, RandomChooser(5)).query(x) for x in range(4)]
        assert a == b

    def test_uniform_chi_square_over_seeds(self):
        n = 3
        counts = np.zeros(2**n)
        for seed in range(10_000):
            counts[LazyRandomOracle(n, RandomChooser(seed)).query(0)] += 1
        _, p = scipy.stats.chisquare(counts)
        assert p > 0.001

    def test_classical_transcript_equality(self):
        # adaptive classical 2-query adversary, n=1, m=2: transcript
        # distribution identical for compressed oracle and lazy reference RO
        def strategy(query):
            h0 = query(0)
            h1 = query(h0)  # adaptive second input
            return (h0, h1)

        def run_compressed(ch):
            oracle = DenseOracleState(OracleConfig(1, 2))
            return strategy(lambda x: oracle.classical_query(x, ch))

        def run_reference(ch):
            ro = LazyRandomOracle(1, ch)
            return strategy(ro.query)

        dist_c = enumerate_distribution(run_compressed)
        dist_r = enumerate_distribution(run_reference)
        assert total_variation(dist_c, dist_r) <= ATOL


class TestEnumerationMachinery:
    def test_paths_sum_to_one(self):
        def run(ch):
            a = ch.choose([0.5, 0.5])
            b = ch.choose([0.25, 0.75]) if a else 0
            return (a, b)

        paths = enumerate_paths(run)
        assert abs(sum(p for p, _ in paths) - 1.0) <= 1e-12

    def test_random_chooser_reproducible(self):
        c1 = RandomChooser(42)
        c2 = RandomChooser(42)
        seq1 = [c1.choose([0.3, 0.7]) for _ in range(20)]
        seq2 = [c2.choose([0.3, 0.7]) for _ in range(20)]
        assert seq1 == seq2
        assert c1.rng.bit_generator.state == c2.rng.bit_generator.state
