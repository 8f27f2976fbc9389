"""The purified reference oracle against the per-table one in circuits_reference.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circuits_reference
from qrolab.branching import RandomChooser
from qrolab.circuits import (
    compressed_distribution,
    equivalence_suite,
    random_circuit,
    reference_distribution,
    run_circuit_reference,
)
from qrolab.linalg import LayoutError, total_variation

TOL = 1e-15


def deviations(circ):
    """Worst outcome-probability difference between the purified and the
    per-table reference, the difference of their gaps to the compressed
    oracle, and their total variation."""
    new = reference_distribution(circ)
    old = circuits_reference.reference_distribution(circ)
    assert set(new) == set(old), circ["name"]
    comp = compressed_distribution(circ)
    return (max(abs(new[k] - old[k]) for k in old),
            abs(total_variation(comp, new) - total_variation(comp, old)),
            total_variation(new, old))


def test_suite_matches_per_table_reference():
    for circ in equivalence_suite():
        worst, gap_diff, _ = deviations(circ)
        assert worst <= TOL and gap_diff <= TOL, (circ["name"], worst, gap_diff)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2]), m=st.sampled_from([2, 3]),
       data=st.data())
def test_random_circuits_with_mid_circuit_measurement(seed, n, m, data):
    circ = random_circuit(n, m, np.random.default_rng(seed))
    steps = circ["steps"]
    first_query = next(i for i, s in enumerate(steps) if s["op"] == "query")
    at = data.draw(st.integers(first_query + 1, len(steps)), label="position")
    target = data.draw(st.sampled_from(circ["output"]), label="target")
    steps.insert(at, {"op": "measure", "targets": [target]})
    worst, gap_diff, tv = deviations(circ)
    assert worst <= TOL
    # a gap summed over many outcomes can move by up to TV(new, old) (the
    # triangle inequality), which can pass TOL while every outcome stays within it
    assert gap_diff <= tv + TOL


def test_table_register_counts_toward_dim_cap():
    # 2^20 tables times X (5) and Y (16): over DIM_CAP before anything is allocated
    circ = {"name": "too-big", "n": 4, "m": 5, "registers": [],
            "steps": [{"op": "query"}], "output": ["Y"]}
    with pytest.raises(LayoutError, match="exceeds cap"):
        run_circuit_reference(circ, RandomChooser(0))
