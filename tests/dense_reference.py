"""Reference dense kernels: the forms the dense layer had before each step
became a few numpy calls, kept as the oracle the new forms are checked
against.

- `apply_on_axes`: tensordot of the matrix, reshaped to one axis per target
  register and side, with the state tensor, then moveaxis home.
- `queried`: a classical query's O^x as a register add (an outer product
  with |0>) followed by the full (2^n cd)^2 O^x on (_qY, D_x), in place;
  `classical_query`, `classical_query_probs` and
  `classical_query_branches` are the oracle's methods on top of it.
- `measured_branches`: one renormalized slice (`collapsed`, the helper
  RegisterState.measure was written with) per outcome.
- `measure_extraction_dense`: probabilities by np.add.at, collapse by a
  zero-fill of d_rows()'s rows, a norm and a divide.

`queried` applies O^x through this module's `apply_on_axes`, so the oracle
shares no kernel with the code it checks.
"""

from __future__ import annotations

import numpy as np

from qrolab.branching import PROB_FLOOR, _clean_probs
from qrolab.oracle import build_o_small, d_label
from qrolab.relations import ExtractionOutcome, outcome_array


def apply_on_axes(matrix: np.ndarray, tensor: np.ndarray, axes) -> np.ndarray:
    axes = list(axes)
    dims = tensor.shape
    sub = [dims[a] for a in axes]
    mat_t = matrix.reshape(sub + sub)
    moved = np.tensordot(mat_t, tensor, axes=(list(range(len(sub), 2 * len(sub))), axes))
    # tensordot puts the contracted (target) axes first; move them home.
    return np.moveaxis(moved, list(range(len(axes))), axes)


def queried(state, x: int):
    """state with a response register _qY attached in |0> and O^x applied on
    (_qY, D_x), in place: a classical query at x before its measurement."""
    if not 0 <= x < state.config.m:
        raise ValueError(f"x={x} out of domain range")
    state.add_register("_qY", state.config.big_n, value=0)
    axes = [state.axis("_qY"), state.axis(d_label(x))]
    o_small = np.asarray(build_o_small(state.config.n), dtype=complex)
    state.tensor = apply_on_axes(o_small, state.tensor, axes)
    return state


def classical_query(state, x: int, chooser) -> int:
    (h,) = queried(state, x).measure_and_remove(["_qY"], chooser)
    return h


def classical_query_probs(state, x: int) -> np.ndarray:
    return queried(state.copy(), x).born_probs(["_qY"])


def classical_query_branches(state, x: int):
    return [(q, child, h) for q, child, (h,)
            in measured_branches(queried(state.copy(), x), ["_qY"])]


def collapsed(state, labels, flat_outcome: int):
    """(index, outcome, amplitudes) of one outcome of the named registers:
    the tensor sliced at that outcome, renormalized, as a new array."""
    axes = [state.axis(lab) for lab in labels]
    outcome = np.unravel_index(flat_outcome, [state._dims[a] for a in axes])
    idx: list = [slice(None)] * state.tensor.ndim
    for a, v in zip(axes, outcome):
        idx[a] = int(v)
    kept = state.tensor[tuple(idx)]
    nrm = np.linalg.norm(kept)
    if nrm <= 0.0:
        raise ValueError("collapse onto zero-probability outcome")
    return tuple(idx), tuple(int(v) for v in outcome), kept / nrm


def measured_branches(state, labels):
    probs = _clean_probs(state.born_probs(labels))
    keep = [a for a, lab in enumerate(state._labels) if lab not in labels]
    out = []
    for flat in np.nonzero(probs > PROB_FLOOR)[0]:
        _, outcome, kept = collapsed(state, labels, int(flat))
        child = state._like([state._labels[a] for a in keep],
                            [state._dims[a] for a in keep], kept)
        out.append((float(probs[flat]), child, outcome))
    return out


def measure_extraction_dense(oracle_state, rel, chooser) -> ExtractionOutcome:
    config = oracle_state.config
    arr = outcome_array(rel, config)
    moved, order = oracle_state.d_rows()
    mass = np.sum(np.abs(moved) ** 2, axis=1)
    probs = np.zeros(config.m + 1)
    np.add.at(probs, arr, mass)
    code = chooser.choose(probs)  # 0..m-1 are x outcomes, m is empty
    keep = arr == code
    moved[~keep, :] = 0.0
    nrm = np.linalg.norm(moved)
    moved /= nrm
    back = moved.reshape([oracle_state.dims[a] for a in order])
    oracle_state.tensor = np.transpose(back, np.argsort(order))
    return ExtractionOutcome(None if code == config.m else code)
