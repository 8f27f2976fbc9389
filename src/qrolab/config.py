"""Shared numeric configuration for the whole library.

Every float assertion in the package compares against ATOL so that the
tolerance can be audited (and tightened) in exactly one place.
"""

# Absolute tolerance for all float assertions and well-formedness checks.
ATOL = 1e-9

# Amplitude cleanup threshold for the sparse backend; two orders below ATOL
# so pruning can never flip an ATOL-level assertion.
PRUNE_EPS = 1e-12

# Default cap on the total dimension of any dense multi-register space.
DIM_CAP = 2**22

# Exact SVD below this dimension; iterative spectral norm above it.
DENSE_SVD_CUTOFF = 1024
