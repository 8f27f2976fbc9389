"""Sparse-backend tests: encoding round trips and dense/sparse/product agreement."""

import numpy as np
import pytest

from qrolab.branching import RandomChooser, ReplayChooser, enumerate_distribution
from qrolab.config import ATOL
from qrolab.linalg import total_variation
from qrolab.oracle import DenseOracleState, OracleConfig, build_f, d_label, walsh
from qrolab.sparse import (
    BOT,
    ProductState,
    QCapError,
    SparseState,
    fwht,
)
from sparse_reference import BasisError, DictSparseState, dict_form, encoded


def random_two_query_dense(seed, n=1, m=2):
    """A dense oracle state reachable by two classical queries."""
    config = OracleConfig(n, m)
    oracle = DenseOracleState(config)
    ch = RandomChooser(seed)
    oracle.classical_query(0, ch)
    oracle.classical_query(1, ch)
    return oracle


class TestFwht:
    def test_matches_walsh_matrix(self):
        for n in (1, 2, 3):
            w = walsh(n)
            for y in range(2**n):
                e = np.zeros(2**n)
                e[y] = 1.0
                assert np.abs(fwht(e) - w[:, y]).max() <= ATOL

    def test_batched_butterfly_matches_walsh_matrix(self):
        # above 2^10 fwht runs butterflies; columns of a batch transform apart
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(2**11, 3)) + 1j * rng.normal(size=(2**11, 3))
        out = fwht(batch)
        assert np.abs(out - walsh(11) @ batch).max() <= ATOL
        assert np.abs(fwht(batch[:, 1]) - out[:, 1]).max() <= ATOL


class TestEncodeDecode:
    def test_fresh_state_is_empty_key(self):
        oracle = DenseOracleState(OracleConfig(1, 2))
        sp = encoded(oracle, q_cap=2)
        assert sp.amps == {((), ()): pytest.approx(1.0)}

    def test_f_h_column_encodes_directly(self):
        # dense F|h> on D_1, bot elsewhere, n=1: keys are the F|h> components
        config = OracleConfig(1, 2)
        oracle = DenseOracleState(config)
        f = build_f(1)
        h = 1
        bot = np.zeros(3)
        bot[2] = 1.0
        oracle.set_vector(np.kron(bot, f[:, h]))
        sp = encoded(oracle, q_cap=2)
        want = {
            ((), ((1, 0),)): f[0, h],
            ((), ((1, 1),)): f[1, h],
            ((), ()): f[2, h],
        }
        assert set(sp.amps) == set(want)
        for k, v in want.items():
            assert abs(sp.amps[k] - v) <= ATOL

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_round_trip_on_two_query_states(self, seed):
        oracle = random_two_query_dense(seed)
        sp = encoded(oracle, q_cap=2)
        assert max(len(db) for _, db in sp.amps) <= 2
        assert np.abs(sp.to_dense_vector() - oracle.d_vector()).max() <= ATOL

    def test_isometry_inner_products(self):
        for s1 in range(3):
            for s2 in range(3):
                a, b = random_two_query_dense(s1), random_two_query_dense(s2 + 10)
                sa, sb = dict_form(encoded(a, 2)), dict_form(encoded(b, 2))
                dense_ip = complex(np.vdot(a.d_vector(), b.d_vector()))
                assert abs(sa.inner(sb) - dense_ip) <= ATOL

    def test_qcap_violation_rejected(self):
        oracle = random_two_query_dense(0)
        with pytest.raises(QCapError):
            encoded(oracle, q_cap=1)

    def test_inner_across_bases_rejected(self):
        a, b = DictSparseState(1, 2, 2), DictSparseState(1, 2, 2)
        b.basis_switch()
        with pytest.raises(BasisError):
            a.inner(b)


class TestClassicalQueryAgreement:
    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (1, 3)])
    def test_post_state_matches_dense(self, n, m):
        config = OracleConfig(n, m)
        for h in range(config.big_n):
            dense = DenseOracleState(config)
            hd = dense.classical_query(0, ReplayChooser((h,)))
            sp = SparseState(n, m, q_cap=3)
            hs = sp.classical_query(0, ReplayChooser((h,)))
            assert hd == hs == h
            assert np.abs(sp.to_dense_vector() - dense.d_vector()).max() <= 1e-9

    def test_distribution_after_two_adaptive_queries(self):
        config = OracleConfig(1, 2)

        def run_dense(ch):
            oracle = DenseOracleState(config)
            h0 = oracle.classical_query(0, ch)
            h1 = oracle.classical_query(h0, ch)
            return (h0, h1)

        def run_sparse(ch):
            sp = SparseState(1, 2, q_cap=2)
            h0 = sp.classical_query(0, ch)
            h1 = sp.classical_query(h0, ch)
            return (h0, h1)

        assert total_variation(
            enumerate_distribution(run_dense), enumerate_distribution(run_sparse)
        ) <= ATOL

    def test_requery_same_x_keeps_support_bounded(self):
        sp = SparseState(3, 10, q_cap=4)
        ch = RandomChooser(3)
        for _ in range(6):
            sp.classical_query(2, ch)
        assert max(len(db) for _, db in sp.amps) <= 1
        assert sp.support() <= 2**3 + 1

    def test_budget_exhaustion(self):
        sp = SparseState(1, 4, q_cap=1)
        ch = RandomChooser(0)
        sp.classical_query(0, ch)
        with pytest.raises(QCapError):
            sp.classical_query(1, ch)


class TestBasisSwitch:
    def test_double_switch_identity(self):
        sp = SparseState(1, 2, q_cap=2)
        ch = RandomChooser(5)
        sp.classical_query(0, ch)
        before = dict(sp.amps)
        sp.basis_switch()
        assert sp.basis == "hadamard"
        sp.basis_switch()
        assert sp.basis == "computational"
        assert set(sp.amps) == set(before)
        for k, v in before.items():
            assert abs(sp.amps[k] - v) <= 1e-9

    def test_empty_key_state_fixed(self):
        sp = SparseState(2, 5, q_cap=2)
        sp.basis_switch()
        assert sp.amps == {((), ()): pytest.approx(1.0)}


def _dense_with_xy(config, xy):
    """Dense oracle state with attached X, Y registers in a given joint state."""
    dense = DenseOracleState(config)
    dense.add_register("X", config.m)
    dense.add_register("Y", config.big_n)
    fresh = np.zeros(config.cell_dim, dtype=complex)
    fresh[config.bot] = 1.0
    t = np.array(1.0, dtype=complex)
    for _ in range(config.m):
        t = np.multiply.outer(t, fresh)
    dense.tensor = np.multiply.outer(t, xy.reshape(config.m, config.big_n))
    return dense


def _sparse_with_xy(config, xy, q_cap=4):
    sp = SparseState(config.n, config.m, q_cap=q_cap,
                     prefix=(("X", config.m), ("Y", config.big_n)))
    amps = {}
    for x in range(config.m):
        for y in range(config.big_n):
            amp = xy[x * config.big_n + y]
            if amp != 0:
                amps[((x, y), ())] = complex(amp)
    sp.amps = amps
    return sp


class TestQuantumQueryAgreement:
    @pytest.mark.parametrize("n,m,seed,queries", [
        (1, 2, 0, 1), (1, 2, 1, 1), (2, 2, 2, 1), (1, 3, 3, 1),
        (1, 2, 7, 2), (2, 2, 8, 2),
    ])
    def test_matches_dense_on_random_prefix_states(self, n, m, seed, queries):
        config = OracleConfig(n, m)
        rng = np.random.default_rng(seed)
        dim = m * config.big_n
        xy = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        xy /= np.linalg.norm(xy)

        dense = _dense_with_xy(config, xy)
        sp = _sparse_with_xy(config, xy)
        for _ in range(queries):
            dense.quantum_query("X", "Y")
            sp.quantum_query("X", "Y")
        order = ["X", "Y"] + [d_label(x) for x in range(m)]
        want = dense.subvector(order)
        assert np.abs(sp.to_dense_vector() - want).max() <= 1e-9


class TestMeasureRelation:
    def test_empty_state_gives_empty(self):
        sp = SparseState(1, 2, q_cap=2)
        out = sp.measure_relation(lambda x: [0, 1], RandomChooser(0))
        assert out is None

    def test_agreement_with_dense_extraction(self):
        from qrolab.relations import Relation, measure_extraction_dense

        config = OracleConfig(1, 2)
        rel = Relation(1, 2, lambda x, y: y == 1)

        def run_dense(ch):
            oracle = DenseOracleState(config)
            h0 = oracle.classical_query(0, ch)
            out = measure_extraction_dense(oracle, rel, ch)
            return (h0, out.value)

        def run_sparse(ch):
            sp = SparseState(1, 2, q_cap=2)
            h0 = sp.classical_query(0, ch)
            out = sp.measure_relation(rel.y_set, ch)
            return (h0, out)

        d_dense = enumerate_distribution(run_dense)
        d_sparse = enumerate_distribution(run_sparse)
        assert total_variation(d_dense, d_sparse) <= ATOL


class TestFunctionalWrappers:
    """SparseState's query, basis-switch and measurement methods, called directly."""

    def test_sparse_apply_query_classical_and_quantum(self):
        sp = SparseState(1, 2, q_cap=3)
        h = sp.classical_query(0, RandomChooser(1))
        assert h in (0, 1)
        sp2 = SparseState(1, 2, q_cap=3, prefix=(("X", 2), ("Y", 2)))
        assert sp2.quantum_query("X", "Y") is None
        with pytest.raises(TypeError):  # a classical query needs a chooser
            SparseState(1, 2, q_cap=3).classical_query(0)

    def test_basis_switch_wrapper_toggles(self):
        sp = SparseState(1, 2, q_cap=3)
        sp.basis_switch()
        assert sp.basis == "hadamard"
        sp.basis_switch()
        assert sp.basis == "computational"

    def test_measure_relation_wrapper(self):
        sp = SparseState(1, 2, q_cap=3)
        sp.classical_query(0, RandomChooser(2))
        out = sp.measure_relation(lambda x: [0, 1], RandomChooser(3))
        assert out in (0, None)


class TestRuntimeScaling:
    def test_cost_at_most_quadratic_in_queries(self):
        # honest commit/extract workload: q_RO classical queries with
        # interleaved extractions; cost may grow at most quadratically
        # (log-log slope 2) with a factor-2 slack per doubling
        import time as _time

        from qrolab.relations import identity_commit
        from qrolab.simulator import SimulatorS

        def workload(q):
            best = float("inf")
            for rep in range(3):
                sim = SimulatorS(identity_commit(10, 2**16), backend="sparse",
                                 seed=rep, q_cap=4)
                t0 = _time.perf_counter()
                for i in range(q):
                    h = sim.ro_classical(5)
                    sim.e_query(h)
                best = min(best, _time.perf_counter() - t0)
            return best

        times = {q: workload(q) for q in (2, 4, 8, 16)}
        floor = 1e-4  # timer noise floor
        for q in (2, 4, 8):
            ratio = (times[2 * q] + floor) / (times[q] + floor)
            assert ratio <= 8.0, (times, q)


class TestProductState:
    def test_classical_query_matches_dense(self):
        config = OracleConfig(2, 3)
        for h in range(4):
            dense = DenseOracleState(config)
            hd = dense.classical_query(1, ReplayChooser((h,)))
            prod = ProductState(2, 3)
            hp = prod.classical_query(1, ReplayChooser((h,)))
            assert hd == hp == h
            assert np.abs(prod.to_dense_vector() - dense.d_vector()).max() <= 1e-9

    def test_multi_register_protocol_matches_dense(self):
        from qrolab.relations import Relation, measure_extraction_dense

        config = OracleConfig(1, 3)
        rel = Relation(1, 3, lambda x, y: y == 0)

        def run_dense(ch):
            oracle = DenseOracleState(config)
            h0 = oracle.classical_query(0, ch)
            h2 = oracle.classical_query(2, ch)
            out = measure_extraction_dense(oracle, rel, ch)
            h0b = oracle.classical_query(0, ch)
            return (h0, h2, out.value, h0b)

        def run_product(ch):
            prod = ProductState(1, 3)
            h0 = prod.classical_query(0, ch)
            h2 = prod.classical_query(2, ch)
            out = prod.measure_relation(rel.y_set, ch)
            h0b = prod.classical_query(0, ch)
            return (h0, h2, out, h0b)

        d1 = enumerate_distribution(run_dense)
        d2 = enumerate_distribution(run_product)
        assert total_variation(d1, d2) <= ATOL

    def test_quantum_query_rejected(self):
        with pytest.raises(NotImplementedError):
            ProductState(1, 2).quantum_query("X", "Y")
