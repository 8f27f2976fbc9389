"""The dense layer's kernels against their reference forms (dense_reference.py):
apply_on_axes bit for bit, and the Kraus-column classical query, the
one-array measured_branches and the one-product S.E collapse within 1e-15."""

import numpy as np
import pytest

import dense_reference as ref
from qrolab import engine
from qrolab.branching import RandomChooser, ReplayChooser, _clean_probs
from qrolab.engine import RegisterState
from qrolab.linalg import LayoutError, apply_on_axes
from qrolab.oracle import DenseOracleState, OracleConfig
from qrolab.properties import bundled_commits
from qrolab.relations import measure_extraction_dense
from qrolab.simulator import SimulatorS

TOL = 1e-15


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_tensor(rng, dims, layout):
    """A complex tensor of shape dims: C-ordered, a transposed view, or a
    strided slice of a larger array."""
    def draw(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if layout == "transposed":
        return draw(dims[::-1]).T
    if layout == "strided":
        return draw(tuple(2 * d for d in dims))[(slice(None, None, 2),) * len(dims)]
    return draw(dims)


class TestApplyOnAxes:
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_tensordot(self, layout, seed):
        # 1-6 axes of dims 1-5, target subsets in any order (so the other
        # axes ride along as batch axes), negative axes, complex and real,
        # C- and F-ordered matrices
        rng = np.random.default_rng([seed, len(layout)])
        for _ in range(150):
            ndim = int(rng.integers(1, 7))
            dims = tuple(int(d) for d in rng.integers(1, 6, size=ndim))
            axes = [int(a) for a in rng.permutation(ndim)[:rng.integers(1, ndim + 1)]]
            axes = [a - ndim if rng.random() < 0.25 else a for a in axes]
            k = int(np.prod([dims[a] for a in axes]))
            mat = rng.normal(size=(k, k))
            if rng.random() < 0.7:
                mat = mat + 1j * rng.normal(size=(k, k))
            if rng.random() < 0.3:
                mat = mat.T
            tensor = random_tensor(rng, dims, layout)
            got = apply_on_axes(mat, tensor, axes)
            assert got.shape == dims
            assert np.array_equal(got, ref.apply_on_axes(mat, tensor, axes)), (dims, axes)

    def test_trailing_batch_axes_and_the_input_left_alone(self):
        rng = np.random.default_rng(5)
        tensor = random_tensor(rng, (3, 2, 4, 5), "contiguous")
        before = tensor.copy()
        mat = random_unitary(rng, 6)
        got = apply_on_axes(mat, tensor, [1, 0])
        assert np.array_equal(got, ref.apply_on_axes(mat, tensor, [1, 0]))
        assert np.array_equal(tensor, before)


def prepared(n, m, with_prefix, earlier, seed):
    """A dense oracle state at (n, m): with X, Y, W prefix registers
    (as circuits lays them out) entangled with D by a quantum query between
    random unitaries, or without; then `earlier` seeded classical queries."""
    config = OracleConfig(n, m)
    rng = np.random.default_rng([n, m, earlier, seed])
    if not with_prefix:
        state = DenseOracleState(config)
    else:
        state = DenseOracleState(config, [("X", m), ("Y", config.big_n), ("W", 2)])
        state.apply(random_unitary(rng, 2 * m), ["W", "X"])
        state.quantum_query("X", "Y")
        state.apply(random_unitary(rng, 2 * config.big_n), ["Y", "W"])
    chooser = RandomChooser(int(rng.integers(1 << 30)))
    for _ in range(earlier):
        state.classical_query(int(rng.integers(m)), chooser)
    return state


def assert_states_close(a, b):
    assert type(a) is type(b) and a.config is b.config
    assert a.labels == b.labels and a.dims == b.dims
    assert np.abs(a.tensor - b.tensor).max() <= TOL


QUERY_CASES = [(n, m, p, e) for n in (1, 2) for m in (2, 3) for p in (False, True)
               for e in (0, 1, 2)]


class TestKrausQuery:
    @pytest.mark.parametrize("n,m,with_prefix,earlier", QUERY_CASES)
    def test_matches_the_full_o_product(self, n, m, with_prefix, earlier):
        state = prepared(n, m, with_prefix, earlier, seed=0)
        before = state.tensor.copy()
        for x in range(m):
            probs = state.classical_query_probs(x)
            assert np.abs(probs - ref.classical_query_probs(state, x)).max() <= TOL
            kids = state.classical_query_branches(x)
            want = ref.classical_query_branches(state, x)
            assert [h for _, _, h in kids] == [h for _, _, h in want]
            for (q, kid, _), (q_ref, kid_ref, _) in zip(kids, want):
                assert abs(q - q_ref) <= TOL
                assert_states_close(kid, kid_ref)
            for seed in range(3):
                mine, theirs = state.copy(), state.copy()
                h = mine.classical_query(x, RandomChooser(seed))
                assert h == ref.classical_query(theirs, x, RandomChooser(seed))
                assert_states_close(mine, theirs)
        assert np.array_equal(state.tensor, before)

    def test_response_register_is_the_last_axis(self):
        state = prepared(1, 3, True, 1, seed=1)
        queried = state._queried(2)
        assert queried.labels == state.labels + ("_qY",)
        assert queried.dims == state.dims + (2,)
        assert state.labels == ("D0", "D1", "D2", "X", "Y", "W")

    def test_cap_is_checked_before_the_product(self, monkeypatch):
        state = DenseOracleState(OracleConfig(1, 2))
        monkeypatch.setattr(engine, "DIM_CAP", state.tensor.size)
        with pytest.raises(LayoutError):
            state.classical_query_probs(0)


class TestMeasuredBranches:
    @pytest.mark.parametrize("labels", [["a"], ["c"], ["b", "a"], ["c", "a"], ["a", "b", "c"]])
    def test_matches_per_outcome_collapses(self, labels):
        rng = np.random.default_rng(len(labels) + ord(labels[0]))
        state = RegisterState([("a", 3), ("b", 2), ("c", 4)])
        state.set_vector(random_unitary(rng, 24)[:, 0])
        state.tensor[1] = 0.0  # a = 1 has no mass: its branches are skipped
        state.set_vector(state.vector() / state.norm())
        kids = state.measured_branches(labels)
        want = ref.measured_branches(state, labels)
        assert [o for _, _, o in kids] == [o for _, _, o in want]
        for (q, kid, _), (q_ref, kid_ref, _) in zip(kids, want):
            assert q == q_ref
            assert kid.labels == kid_ref.labels and kid.dims == kid_ref.dims
            assert np.abs(kid.tensor - kid_ref.tensor).max() <= TOL


class Fixed:
    """A chooser that records the distribution it is given and answers code
    (by default the likeliest outcome)."""

    def __init__(self, code=None):
        self.code, self.probs = code, None

    def choose(self, probs):
        self.probs = np.asarray(probs)
        return int(np.argmax(probs)) if self.code is None else self.code


class TestExtractionCollapse:
    @pytest.mark.parametrize("n,m,with_prefix,earlier", [
        (1, 2, False, 1), (1, 3, True, 2), (2, 2, True, 2), (2, 3, False, 2)])
    def test_matches_zero_fill_and_divide(self, n, m, with_prefix, earlier):
        state = prepared(n, m, with_prefix, earlier, seed=2)
        for commit in bundled_commits(n, m):
            for t in commit.t_values:
                rel = commit.relation_for(t)
                probe = Fixed()
                ref.measure_extraction_dense(state.copy(), rel, probe)
                for code in np.nonzero(probe.probs > 0.0)[0]:
                    mine, theirs = state.copy(), state.copy()
                    got, want = Fixed(int(code)), Fixed(int(code))
                    out = measure_extraction_dense(mine, rel, got)
                    assert out == ref.measure_extraction_dense(theirs, rel, want)
                    assert np.abs(got.probs - want.probs).max() <= TOL
                    assert_states_close(mine, theirs)

    def test_writes_a_new_array(self):
        # with the D axes first, d_rows() is a view of the state's tensor
        state = prepared(1, 2, False, 1, seed=3)
        old = state.tensor
        before = old.copy()
        commit = bundled_commits(1, 2)[0]
        measure_extraction_dense(state, commit.relation_for(commit.t_values[0]),
                                 RandomChooser(0))
        assert np.array_equal(old, before) and state.tensor is not old


class TestDraws:
    def test_clean_probs_returns_a_new_array(self):
        p = np.array([0.25, 0.75])
        out = _clean_probs(p)
        assert out is not p and np.array_equal(out, p)
        assert np.array_equal(_clean_probs([-1e-18, 1.0]), [0.0, 1.0])

    def test_uniform_draws_record_a_writable_copy(self):
        ch = ReplayChooser()
        assert ch.choose_uniform(4) == 0 and ch.choose_uniform(4) == 0
        first, second = ch.branch_probs
        assert first is not second and first.flags.writeable
        assert np.array_equal(first, np.full(4, 0.25))

    def test_simulator_children_keep_their_own_log_and_backend(self):
        sim = SimulatorS(bundled_commits(1, 2)[0], seed=0)
        sim.ro_classical(0)
        kid = sim.fork(RandomChooser(1))
        kid.ro_classical(1)
        assert type(kid) is SimulatorS and kid.commit is sim.commit
        assert len(sim.log) == 1 and len(kid.log) == 2
        assert kid.backend is not sim.backend and kid.chooser is not sim.chooser
        assert sim.backend.tensor.shape == kid.backend.tensor.shape
        assert not np.shares_memory(sim.backend.tensor, kid.backend.tensor)
