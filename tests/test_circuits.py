"""RO-indistinguishability: compressed oracle vs reference random oracle."""

import json

import numpy as np
import pytest

from qrolab import circuits
from qrolab.circuits import (
    compressed_distribution,
    equivalence_suite,
    gate_matrix,
    indistinguishability_gap,
    named_circuits,
    random_circuit,
    reference_distribution,
    run_circuit_compressed,
    validate_circuit,
)
from qrolab.branching import RandomChooser
from qrolab.config import ATOL
from qrolab.linalg import total_variation
from qrolab.oracle import check_unitary


class TestGates:
    def test_named_gates_unitary(self):
        for name, dims in [("hadamard", [4]), ("fourier", [3]), ("flip", [5]),
                           ("controlled-flip", [2, 3]), ("phase", [4])]:
            mat = gate_matrix({"gate": name}, dims)
            assert check_unitary(mat) <= ATOL

    def test_explicit_matrix_roundtrip(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        packed = np.stack([z.real, z.imag], axis=-1).tolist()
        assert np.abs(gate_matrix({"matrix": packed}, [2]) - z).max() <= ATOL

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            gate_matrix({"gate": "nope"}, [2])

    @staticmethod
    def _with_matrix(mat, targets):
        packed = np.stack([mat.real, mat.imag], axis=-1).tolist()
        return {"n": 1, "m": 2, "steps": [{"op": "unitary", "targets": targets,
                                           "matrix": packed}], "output": ["X"]}

    def test_non_unitary_matrix_rejected(self):
        validate_circuit(self._with_matrix(np.array([[0, 1], [1, 0]], dtype=complex), ["X"]))
        with pytest.raises(ValueError, match="not unitary"):
            validate_circuit(self._with_matrix(np.array([[1, 0], [0, 2]], dtype=complex), ["X"]))
        with pytest.raises(ValueError, match="not unitary"):
            run_circuit_compressed(self._with_matrix(np.full((2, 2), 0.5 + 0j), ["Y"]),
                                   RandomChooser(0))

    def test_wrong_matrix_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            validate_circuit(self._with_matrix(np.eye(2, dtype=complex), ["X", "Y"]))
        with pytest.raises(ValueError, match="shape"):
            validate_circuit(self._with_matrix(np.eye(4, dtype=complex)[:, :2], ["X", "Y"]))


MALFORMED = {
    "unknown-unitary-target": ({"steps": [{"op": "unitary", "targets": ["Z"], "gate": "flip"}]},
                               r"step 0 names unknown register 'Z'"),
    "step-without-op": ({"steps": [{"op": "query"}, {"targets": ["X"]}]},
                        r"step 1: unknown step op None"),
    "unknown-measure-target": ({"steps": [{"op": "measure", "targets": ["X", "Z"]}]},
                               r"step 0 names unknown register 'Z'"),
    "unknown-output-label": ({"output": ["X", "Z"]}, r"output names unknown register 'Z'"),
    "work-register-named-X": ({"registers": [["X", 2]]}, r"register labels repeat"),
    "target-named-twice": ({"steps": [{"op": "unitary", "targets": ["X", "X"], "gate": "flip"}]},
                           r"step 0 names a register twice"),
    "measure-without-targets": ({"steps": [{"op": "measure"}]}, r"step 0: measure step needs targets"),
    "q-cap-string": ({"q_cap": "x"}, r"q_cap must be an int >= 1, got 'x'"),
    "q-cap-zero": ({"q_cap": 0}, r"q_cap must be an int >= 1, got 0"),
    "q-cap-negative": ({"q_cap": -1}, r"q_cap must be an int >= 1, got -1"),
    "q-cap-bool": ({"q_cap": True}, r"q_cap must be an int >= 1, got True"),
    "q-cap-float": ({"q_cap": 2.0}, r"q_cap must be an int >= 1, got 2.0"),
    # json.loads reads NaN, so a circuit file can carry one
    "nan-matrix": ({"steps": [{"op": "unitary", "targets": ["X"],
                               "matrix": json.loads("[[1, 0], [NaN, 1]]")}]},
                   r"step 0: gate matrix has non-finite entries"),
    "nan-phase-angle": ({"steps": [{"op": "query"}, {"op": "unitary", "targets": ["Y"],
                                                      "gate": "phase", "angle": float("nan")}]},
                        r"step 1: gate matrix has non-finite entries"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_malformed_circuits_rejected(case, backend):
    """A malformed circuit is a ValueError naming the step or label, before
    any backend runs it."""
    fields, message = MALFORMED[case]
    circ = {"n": 1, "m": 2, "registers": [], "steps": [{"op": "query"}],
            "output": ["X"], **fields}
    with pytest.raises(ValueError, match=message):
        validate_circuit(circ)
    with pytest.raises(ValueError, match=message):
        run_circuit_compressed(circ, RandomChooser(0), backend)


class TestNamedCircuits:
    @pytest.mark.parametrize("n,m", [(1, 2), (1, 3), (2, 2)])
    def test_gap_below_tolerance(self, n, m):
        for circ in named_circuits(n, m):
            gap = indistinguishability_gap(circ)
            assert gap <= ATOL, f"{circ['name']} at n={n}, m={m}: gap={gap:.3e}"

    def test_uniform_superposition_query_reference_check(self):
        # paper-style check: querying in uniform X superposition then
        # re-interfering gives identical statistics to the reference oracle
        circ = [c for c in named_circuits(1, 2) if c["name"] == "query-then-interfere"][0]
        assert indistinguishability_gap(circ) <= ATOL

    def test_distributions_normalized(self):
        circ = named_circuits(1, 2)[0]
        for dist in (compressed_distribution(circ), reference_distribution(circ)):
            assert abs(sum(dist.values()) - 1.0) <= 1e-9

    @pytest.mark.parametrize("side", ["compressed_distribution", "reference_distribution"])
    def test_gap_refuses_a_tree_with_a_leaf_dropped(self, monkeypatch, side):
        full = getattr(circuits, side)

        def one_leaf_short(circ, *args):
            return dict(list(full(circ, *args).items())[1:])

        monkeypatch.setattr(circuits, side, one_leaf_short)
        with pytest.raises(ValueError, match="outcome mass"):
            indistinguishability_gap(named_circuits(1, 2)[0])


class TestRandomCircuits:
    def test_gap_below_tolerance_on_sample(self):
        rng = np.random.default_rng(77)
        for _ in range(6):
            circ = random_circuit(1, 2, rng)
            assert indistinguishability_gap(circ) <= ATOL

    def test_suite_size_and_validity(self):
        suite = equivalence_suite()
        assert len(suite) >= 50
        names = [c["name"] for c in suite]
        assert len(set(names)) == len(names)


class TestSparseRunnerAgreement:
    def test_sparse_backend_matches_dense(self):
        # single-register unitaries only on the sparse runner
        for circ in named_circuits(1, 2):
            if any(len(s.get("targets", [])) > 1 for s in circ["steps"]
                   if s["op"] == "unitary"):
                continue
            d_dense = compressed_distribution(circ, backend="dense")
            d_sparse = compressed_distribution(circ, backend="sparse")
            assert total_variation(d_dense, d_sparse) <= ATOL, circ["name"]
