"""Test-session setup that must run before anything imports numpy.

BLAS reads its thread count once, when numpy loads.  On small matrices extra
BLAS threads only add contention, and with a second numpy process on the
host they slowed the commutator sweep several-fold, so every test process
pins BLAS to one thread.  This file sits at the repository root because
`perfbench/tests` is collected before `tests/` and imports numpy.  An
explicit setting in the environment still wins.
"""

import os
import sys

import pytest

NUMPY_PRELOADED = "numpy" in sys.modules

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def numpy_preloaded() -> bool:
    """Whether numpy was already imported when the BLAS threads were pinned."""
    return NUMPY_PRELOADED
