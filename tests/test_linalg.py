"""Tests for the linear algebra kernels and the dense dimension cap."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qrolab
from qrolab.config import ATOL, DIM_CAP
from qrolab.engine import RegisterState
from qrolab.linalg import (
    LayoutError,
    apply_on_axes,
    density_from_branches,
    operator_norm,
    pure_trace_distance,
    trace_distance,
)
from qrolab.oracle import build_f
from qrolab.relations import identity_commit
from qrolab.simulator import SimulatorS
from qrolab.sparse import ProductState, SparseState


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def embedded(matrix, dims, targets):
    """The full matrix of `matrix` acting on `targets` (in that order) of a
    space with register dims `dims`, identity elsewhere.  np.kron lays the
    space out as (targets..., rest...); idx[j] is the flat index, in declared
    register order, of that layout's j-th basis vector."""
    targets = list(targets)
    rest = [a for a in range(len(dims)) if a not in targets]
    dim = int(np.prod(dims))
    big = np.kron(matrix, np.eye(dim // matrix.shape[0]))
    idx = np.arange(dim).reshape(dims).transpose(targets + rest).reshape(-1)
    out = np.empty((dim, dim), dtype=big.dtype)
    out[np.ix_(idx, idx)] = big
    return out


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


class TestApplyOnAxes:
    @pytest.mark.parametrize("dims,targets", [
        ((2, 3), [0]),
        ((2, 3), [1]),
        ((2, 3, 2), [0, 2]),
        ((2, 3), [1, 0]),
        ((3, 2, 2), [2, 0]),
        ((2, 3, 2, 2), [3, 1]),
    ], ids=["first", "last", "non-adjacent", "reversed", "non-adjacent-reversed",
            "four-registers"])
    def test_matches_kron_embedding(self, dims, targets):
        rng = np.random.default_rng(sum(dims) + 10 * targets[0])
        mat = random_matrix(rng, int(np.prod([dims[a] for a in targets])))
        psi = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
        got = apply_on_axes(mat, psi.reshape(dims), targets)
        assert got.shape == dims
        want = embedded(mat, dims, targets) @ psi
        assert np.abs(got.reshape(-1) - want).max() <= ATOL

    def test_first_register_is_most_significant(self):
        # documented ordering: the first register is the leading kron factor
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(embedded(flip, (2, 2), [0]), np.kron(flip, np.eye(2)))
        psi = np.arange(4.0)
        got = apply_on_axes(flip, psi.reshape(2, 2), [0]).reshape(-1)
        assert np.array_equal(got, np.kron(flip, np.eye(2)) @ psi)

    def test_trailing_batch_axis(self):
        # a trailing axis outside the targets carries independent columns
        rng = np.random.default_rng(21)
        dims, targets, batch = (2, 3, 2), [2, 0], 5
        mat = random_matrix(rng, 4)
        cols = rng.normal(size=(12, batch)) + 1j * rng.normal(size=(12, batch))
        got = apply_on_axes(mat, cols.reshape(dims + (batch,)), targets)
        want = embedded(mat, dims, targets) @ cols
        assert np.abs(got.reshape(12, batch) - want).max() <= ATOL


class TestDimCap:
    # every size here is above DIM_CAP = 2^22 and each guard raises before
    # the state is allocated
    def test_register_state_constructor(self):
        assert 2**12 * 2**11 > DIM_CAP
        with pytest.raises(LayoutError):
            RegisterState([("a", 2**12), ("b", 2**11)])

    def test_add_register_crossing_cap(self):
        state = RegisterState([("a", 2**12)])
        with pytest.raises(LayoutError):
            state.add_register("b", 2**11)
        assert state.labels == ("a",)

    def test_dense_simulator(self):
        with pytest.raises(LayoutError):
            SimulatorS(identity_commit(4, 6), backend="dense")

    def test_sparse_to_dense_vector(self):
        with pytest.raises(MemoryError):
            SparseState(10, 3, q_cap=4).to_dense_vector()

    def test_product_to_dense_vector(self):
        with pytest.raises(MemoryError):
            ProductState(10, 3).to_dense_vector()


class TestBasisStateTolerance:
    # a register is in a basis state, or unentangled, only within ATOL
    @staticmethod
    def leaky(mass):
        state = RegisterState([("a", 2), ("b", 2)])
        state.set_vector([np.sqrt(1.0 - mass), 0.0, 0.0, np.sqrt(mass)])
        return state

    def test_remove_register_rejects_mass_above_atol(self):
        with pytest.raises(LayoutError):
            self.leaky(1e-8).remove_register("a")
        assert self.leaky(ATOL / 10).remove_register("a") == 0

    def test_subvector_rejects_entanglement_above_atol(self):
        with pytest.raises(LayoutError):
            self.leaky(1e-8).subvector(["b"])
        assert abs(self.leaky(ATOL / 10).subvector(["b"])[0]) > 1.0 - ATOL


class TestOperatorNorm:
    def test_identity_is_one(self):
        assert abs(operator_norm(np.eye(4)) - 1.0) <= ATOL

    def test_zero_is_zero(self):
        assert operator_norm(np.zeros((4, 4))) <= ATOL

    def test_f_projector_commutator_matches_subspace_oracle(self):
        # Independent oracle: [F, |0><0|] = 2^{-1/2}(|d><0| - |0><d|) with
        # d = bot - phi0 acts on span{|0>, |d>}; Gram-Schmidt there gives the
        # antisymmetric 2x2 matrix s*[[0,-1],[1,0]], whose singular value is s.
        f = build_f(1)
        proj = np.zeros((3, 3))
        proj[0, 0] = 1.0
        measured = operator_norm(f @ proj - proj @ f)

        e0 = np.array([1.0, 0.0, 0.0])
        delta = np.array([0.0, 0.0, 1.0]) - np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        ov = e0 @ delta
        e2 = delta - ov * e0
        e2 /= np.linalg.norm(e2)
        # B = |d><0| - |0><d|; entries via inner products only
        b_21 = e2 @ delta                 # <e2|B|e0> component from |d><0|
        s = (1 / np.sqrt(2)) * abs(b_21)
        assert abs(measured - s) <= ATOL
        assert abs(measured - np.sqrt(3) / 2) <= ATOL
        # paper bound for n=1, Gamma_x=1: 2^{-1/2} sqrt(2*1) = 1
        assert measured <= 1.0 + ATOL

    def test_iterative_path_above_cutoff(self):
        diag = np.ones(1500)
        diag[7] = 3.75
        assert abs(operator_norm(np.diag(diag)) - 3.75) <= 1e-8

    def test_scipy_loads_only_for_lanczos(self):
        # spectral_norm_linop imports scipy.sparse.linalg itself, so the
        # modules that import qrolab's others do not pay for it
        src = str(Path(qrolab.__file__).parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, qrolab.cli, qrolab.experiments, qrolab.sigma, qrolab.fokem\n"
                "print('scipy.sparse.linalg' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            operator_norm(bad)

    def test_submultiplicative_and_triangle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            na, nb = operator_norm(a), operator_norm(b)
            assert operator_norm(a @ b) <= na * nb + ATOL
            assert operator_norm(a + b) <= na + nb + ATOL

    def test_orthogonal_images_norm_of_sum(self):
        # block-diagonal pieces conjugated by random unitaries keep
        # A^dag B = 0 = A B^dag, and the norm of the sum is the max norm
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = np.zeros((6, 6), dtype=complex)
            b = np.zeros((6, 6), dtype=complex)
            a[:3, :3] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b[3:, 3:] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            u, v = random_unitary(rng, 6), random_unitary(rng, 6)
            a, b = u @ a @ v, u @ b @ v
            assert np.abs(a.conj().T @ b).max() <= 1e-9
            assert np.abs(a @ b.conj().T).max() <= 1e-9
            na, nb = operator_norm(a), operator_norm(b)
            assert operator_norm(a + b) <= max(na, nb) + ATOL

    def test_controlled_operator_norm_is_max_of_blocks(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            blocks = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                      for _ in range(3)]
            ctrl = np.zeros((9, 9), dtype=complex)
            for x, blk in enumerate(blocks):
                ctrl[3 * x:3 * x + 3, 3 * x:3 * x + 3] = blk
            want = max(operator_norm(b) for b in blocks)
            assert operator_norm(ctrl) <= want + ATOL


class TestTraceDistance:
    def test_self_distance_zero(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        assert trace_distance(rho, rho) <= ATOL

    def test_orthogonal_pure_states(self):
        r0 = np.diag([1.0, 0.0]).astype(complex)
        r1 = np.diag([0.0, 1.0]).astype(complex)
        assert abs(trace_distance(r0, r1) - 1.0) <= ATOL

    def test_vector_norm_bound_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            phi = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            phi /= np.linalg.norm(phi)
            psi /= np.linalg.norm(psi)
            td = trace_distance(np.outer(phi, phi.conj()), np.outer(psi, psi.conj()))
            assert td <= np.linalg.norm(phi - psi) + ATOL
            assert abs(td - pure_trace_distance(phi, psi)) <= ATOL

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            trace_distance(bad, np.eye(2, dtype=complex) / 2)


def test_density_from_branches_matches_sum_of_outer_products():
    """The one-product density against the loop of weighted outer products it
    replaced; the summation order differs, so equal within 1e-15."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        d, k = int(rng.integers(1, 30)), int(rng.integers(1, 12))
        vecs = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        probs = rng.random(k)
        probs /= probs.sum()
        want = sum(p * np.outer(v, v.conj()) for p, v in zip(probs, vecs))
        got = density_from_branches(zip(probs, vecs.reshape(k, d, 1)))
        assert got.shape == (d, d)
        assert np.abs(got - want).max() <= 1e-15
