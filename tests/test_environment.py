"""The test process pins BLAS threads before numpy loads."""

import os


def test_blas_threads_pinned_before_numpy_loaded(numpy_preloaded):
    assert not numpy_preloaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert var in os.environ
