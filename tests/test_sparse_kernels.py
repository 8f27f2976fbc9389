"""The numpy idioms of SparseState's row operations against the ones they
replaced, on hypothesis-drawn arrays.

`_distinct` must equal np.unique, np.take(axis=0) integer fancy indexing,
np.compress(axis=0) a boolean mask, `_sorted_rows` the 2-D fancy-index sort
and `_trimmed` the per-row count of held registers: same values, shape and
dtype.  The shapes include empty arrays, the (E, 0) prefix matrix of a state
without prefix registers (the n = 16 round trips) and W = 0 register and
cell matrices (a state whose databases are all empty).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qrolab.sparse import _distinct, _sorted_rows, _trimmed

ints = st.integers(-(2**62), 2**62)


def assert_identical(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


@st.composite
def row_matrices(draw, dtype=np.int64, elements=st.integers(0, 9)):
    """An E x W matrix with E and W drawn down to 0."""
    shape = (draw(st.integers(0, 12)), draw(st.integers(0, 4)))
    return draw(hnp.arrays(dtype, shape, elements=elements))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.int64, st.integers(0, 60),
                  elements=st.one_of(st.integers(-3, 3), ints)))
def test_distinct_matches_unique(a):
    assert_identical(_distinct(a), np.unique(a))


@settings(max_examples=200, deadline=None)
@given(st.one_of(row_matrices(), hnp.arrays(np.complex128, st.integers(0, 12),
                                            elements=st.complex_numbers(max_magnitude=1e6,
                                                                        allow_nan=False))),
       st.data())
def test_take_matches_integer_rows(a, data):
    idx = data.draw(hnp.arrays(np.int64, st.integers(0, 20) if len(a) else st.just(0),
                               elements=st.integers(0, max(len(a) - 1, 0))))
    assert_identical(np.take(a, idx, axis=0), a[idx])


@settings(max_examples=200, deadline=None)
@given(row_matrices(), st.data())
def test_compress_matches_boolean_rows(a, data):
    keep = data.draw(hnp.arrays(np.bool_, len(a)))
    assert_identical(np.compress(keep, a, axis=0), a[keep])
    amp = np.arange(len(a)) * (1 + 1j)
    assert_identical(np.compress(keep, amp, axis=0), amp[keep])


def test_compress_and_take_keep_the_empty_prefix_columns():
    """A state without prefix registers holds an (E, 0) pre matrix."""
    pre = np.zeros((5, 0), dtype=np.int64)
    assert_identical(np.compress(np.array([True, False, True, False, True]), pre, axis=0),
                     pre[[0, 2, 4]])
    assert_identical(np.take(pre, np.array([4, 4, 0]), axis=0), pre[[4, 4, 0]])
    assert_identical(np.take(pre, np.array([], dtype=np.int64), axis=0), pre[:0])


@settings(max_examples=200, deadline=None)
@given(row_matrices(), st.data())
def test_sorted_rows_matches_fancy_sort(reg, data):
    cell = data.draw(hnp.arrays(np.int64, reg.shape, elements=st.integers(0, 31)))
    order = np.argsort(reg, axis=1, kind="stable")
    rows = np.arange(len(reg))[:, None]
    got_reg, got_cell = _sorted_rows(reg, cell)
    assert_identical(got_reg, reg[rows, order])
    assert_identical(got_cell, cell[rows, order])


@settings(max_examples=200, deadline=None)
@given(row_matrices(elements=st.integers(0, 6)), st.integers(1, 6))
def test_trimmed_keeps_the_longest_db(reg, m):
    reg, cell = _sorted_rows(np.minimum(reg, m), reg)  # registers below m, padding m last
    width = int((reg < m).sum(axis=1).max(initial=0))
    got_reg, got_cell = _trimmed(reg, cell, m)
    assert_identical(got_reg, reg[:, :width])
    assert_identical(got_cell, cell[:, :width])
