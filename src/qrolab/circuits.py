"""Adversary circuits as data, and one step loop that runs them on any oracle.

A circuit is a JSON-able dict:

    {"name": "...", "n": 1, "m": 2,
     "registers": [["W", 2]],            # work registers; X and Y are implicit
     "steps": [
        {"op": "unitary", "targets": ["X"], "gate": "fourier"},
        {"op": "unitary", "targets": ["Y", "W"], "matrix": [[[re, im], ...], ...]},
        {"op": "query"},
        {"op": "measure", "targets": ["W"]}],
     "output": ["X", "Y"]}               # measured at the end, appended to
                                          # any mid-circuit results

Named gates: hadamard (2^k dims), fourier (any dim), flip (cyclic +1),
controlled-flip (|a,b> -> |a, b+a mod d>), phase (diag(1,-1,1,...), or
diag(e^{i angle j}) when "angle" is given).

Every circuit runs through one loop, `_run`, over three operations of its
state: `state.apply(matrix, labels)` for a unitary step, a `query(state)`
callable for a query step and `state.measure(labels, chooser)` for a
measurement.  The compressed oracle's state is `oracle.oracle_state(backend,
...)` (a dense DenseOracleState measures a target list jointly, with one
draw; a sparse SparseState measures it label by label) and its query is
O_XYD.  Grover experiments evolve once through the same loop and measure X
afterwards.

A seeded run (a RandomChooser) applies every step in place to one fresh
state.  Under a walk node (compressed_distribution and
reference_distribution walk `enumerate_paths` from no root), the same loop
makes each step one split of the node's state instead: a unitary or query
step gives one child, a copy with the step applied, and a measurement every
collapse above PROB_FLOOR (`state.collapses`, registers kept).  The first
split builds the fresh state.  So each distinct prefix of the circuit tree
evolves once, and the runner called once per leaf answers every step it
shares with an earlier leaf from its script.

The reference oracle is a RegisterState with a purified table register.  A
uniformly random
H: [m] -> {0,1}^n is one of T = 2^{n·m} tables t.  A register _H starts in
T^{-1/2} sum_t |t>, a query applies U_t: |x, y> -> |x, y xor table_t[x]>
controlled on |t>, and gates and projectors act as 1_H (x) A.  Along any run
of outcomes, with K_t its product of gates, projectors and U_t, the branch
is T^{-1/2} sum_t |t> (x) K_t |psi_0>.  The |t> are orthonormal, so its
squared norm is (1/T) sum_t ||K_t psi_0||^2, the table average of
Pr[run | table_t], for every prefix: one tree covers all T tables exactly.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .branching import ReplayChooser, _check_mass, enumerate_distribution
from .config import ATOL
from .engine import RegisterState
from .linalg import total_variation
from .oracle import OracleConfig, check_unitary, oracle_state, walsh


def gate_matrix(step: dict, dims: list[int]) -> np.ndarray:
    if "matrix" in step:
        raw = np.array(step["matrix"], dtype=float)
        if raw.ndim == 3:  # [[re, im], ...] pairs, read in place as complex
            return raw.view(complex)[..., 0]
        return raw.astype(complex)
    name = step["gate"]
    dim = int(np.prod(dims))
    if name == "hadamard":
        n = dim.bit_length() - 1
        if 2**n != dim:
            raise ValueError("hadamard gate needs a power-of-2 dimension")
        return walsh(n).astype(complex)
    if name == "fourier":
        j = np.arange(dim)
        return np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)
    if name == "flip":
        return np.roll(np.eye(dim), 1, axis=0).astype(complex)
    if name == "controlled-flip":
        if len(dims) != 2:
            raise ValueError("controlled-flip needs exactly two targets")
        da, db = dims
        mat = np.zeros((dim, dim))
        for a in range(da):
            for b in range(db):
                mat[a * db + (b + a) % db, a * db + b] = 1.0
        return mat.astype(complex)
    if name == "phase":
        j = np.arange(dim)
        angle = step.get("angle")
        if angle is None:
            return np.diag((-1.0 + 0j) ** j)
        return np.diag(np.exp(1j * float(angle) * j))
    raise ValueError(f"unknown gate {name!r}")


def validate_circuit(circ: dict) -> list:
    """Check a circuit; returns each step's gate matrix (None for other ops).
    Every work register must be [label, int >= 1] with a label other than
    _H (the reference oracle's table), register labels distinct, every
    target and output label a register, every gate matrix finite, an
    explicit matrix square over its targets and unitary within ATOL, and
    q_cap, when given, an int >= 1.
    Raises ValueError naming the step, label or field at fault."""
    for key in ("n", "m", "steps"):
        if key not in circ:
            raise ValueError(f"circuit missing field {key!r}")
    q_cap = circ.get("q_cap", 8)
    if isinstance(q_cap, bool) or not isinstance(q_cap, int) or q_cap < 1:
        raise ValueError(f"q_cap must be an int >= 1, got {q_cap!r}")
    for reg in circ.get("registers", []):
        if (not isinstance(reg, (list, tuple)) or len(reg) != 2 or not isinstance(reg[0], str)
                or isinstance(reg[1], bool) or not isinstance(reg[1], int) or reg[1] < 1):
            raise ValueError(f"work register {reg!r} must be [label, int >= 1]")
        if reg[0] == "_H":
            raise ValueError(f"work register {reg!r}: label '_H' is the reference oracle's "
                             f"table register")
    regs = circuit_registers(circ)
    dims_of = dict(regs)
    if len(dims_of) != len(regs):
        raise ValueError(f"register labels repeat: {[lab for lab, _ in regs]}")

    def check_labels(labels, where: str) -> None:
        for lab in labels:
            if lab not in dims_of:
                raise ValueError(f"{where} names unknown register {lab!r}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"{where} names a register twice: {labels}")

    mats = []
    for i, step in enumerate(circ["steps"]):
        op = step.get("op")
        if op not in ("unitary", "query", "measure"):
            raise ValueError(f"step {i}: unknown step op {op!r}")
        if op != "query":
            if "targets" not in step:
                raise ValueError(f"step {i}: {op} step needs targets")
            check_labels(step["targets"], f"step {i}")
        mat = None
        if op == "unitary":
            if "gate" not in step and "matrix" not in step:
                raise ValueError(f"step {i}: unitary step needs a gate name or explicit matrix")
            dims = [dims_of[t] for t in step["targets"]]
            mat = gate_matrix(step, dims)
            if not np.isfinite(mat).all():
                raise ValueError(f"step {i}: gate matrix has non-finite entries")
            if "matrix" in step:
                if mat.shape != (math.prod(dims),) * 2:
                    raise ValueError(f"step {i}: matrix of shape {mat.shape} on targets "
                                     f"of dims {dims}")
                if check_unitary(mat) > ATOL:
                    raise ValueError(f"step {i}: explicit matrix is not unitary")
        mats.append(mat)
    check_labels(circ.get("output", []), "output")
    return mats


def circuit_registers(circ: dict) -> list[tuple[str, int]]:
    config = OracleConfig(circ["n"], circ["m"])
    regs = [("X", config.m), ("Y", config.big_n)]
    regs += [(lab, int(d)) for lab, d in circ.get("registers", [])]
    return regs


def _run(circ: dict, mats: list, new_state, query, chooser) -> tuple:
    """The one step loop: every measured value of circ, mid-circuit and then
    the output registers.  new_state() builds the fresh state;
    state.apply(matrix, labels) runs a unitary step, query(state) a query
    step, state.measure(labels, chooser) a measurement, each in place.
    Under a walk node (a ReplayChooser) step i is one split of the node's
    state instead, named ("circuit", i) in the walk's memo (see the module
    docstring), so one walk runs one circuit."""
    steps = [(step["op"], step.get("targets"), mat) for step, mat in zip(circ["steps"], mats)]
    if circ.get("output"):
        steps.append(("measure", circ["output"], None))

    def act(state, op, targets, mat):
        """One step on state, in place; the values it measured."""
        if op == "unitary":
            state.apply(mat, targets)
        elif op == "query":
            query(state)
        else:
            return state.measure(targets, chooser)
        return ()

    if not isinstance(chooser, ReplayChooser):
        state = new_state()
        return tuple(v for step in steps for v in act(state, *step))

    def split(state, op, targets, mat):
        if op == "measure":
            return (new_state() if state is None else state).collapses(targets)
        child = new_state() if state is None else state.copy()
        act(child, op, targets, mat)
        return [(1.0, child, ())]

    return tuple(v for i, step in enumerate(steps)
                 for v in chooser.split(("circuit", i), lambda s, step=step: split(s, *step)))


def run_circuit_compressed(circ: dict, chooser, backend: str = "dense",
                           mats: list | None = None) -> tuple:
    """Execute against the compressed oracle; returns all measured values.
    mats is validate_circuit(circ), computed here when not given."""
    if mats is None:
        mats = validate_circuit(circ)
    return _run(circ, mats,
                lambda: oracle_state(backend, circ["n"], circ["m"], circuit_registers(circ),
                                     q_cap=circ.get("q_cap", 8)),
                lambda state: state.quantum_query("X", "Y"), chooser)


@lru_cache(maxsize=None)
def _table_index(n_tables: int, m: int, big_n: int) -> tuple:
    """The read-only gather that answers a query on the (_H, X, Y) axes:
    amplitude (t, x, y) reads (t, x, y xor table_t[x]), table_t[x] digit x
    of t in base big_n."""
    t, x, y = np.ogrid[:n_tables, :m, :big_n]
    index = (t, x, y ^ ((t // big_n**x) % big_n))
    for a in index:
        a.flags.writeable = False
    return index


def run_circuit_reference(circ: dict, chooser, mats: list | None = None) -> tuple:
    """Execute against a uniformly random oracle: a table register _H in
    T^{-1/2} sum_t |t>, queried as |t, x, y> -> |t, x, y xor table_t[x]> with
    table_t[x] digit x of t in base 2^n.  _H is never measured, so each run's
    probability is its table average (derivation in the module docstring).
    mats is validate_circuit(circ), computed here when not given."""
    if mats is None:
        mats = validate_circuit(circ)
    config = OracleConfig(circ["n"], circ["m"])
    big_n, m = config.big_n, config.m
    n_tables = big_n**m

    def new_state():
        state = RegisterState([("_H", n_tables)] + circuit_registers(circ))
        state.tensor[(slice(None),) + (0,) * (state.tensor.ndim - 1)] = n_tables**-0.5
        return state

    def query(state):
        # axes 0, 1, 2 are _H, X, Y
        state.tensor = state.tensor[_table_index(n_tables, m, big_n)]

    return _run(circ, mats, new_state, query, chooser)


def compressed_distribution(circ: dict, backend: str = "dense",
                            mats: list | None = None) -> dict:
    """Exact output distribution under the compressed oracle; the circuit is
    validated once (unless mats is given) and every leaf runs on mats."""
    if mats is None:
        mats = validate_circuit(circ)
    return enumerate_distribution(
        lambda ch: run_circuit_compressed(circ, ch, backend, mats))


def reference_distribution(circ: dict, mats: list | None = None) -> dict:
    """Exact output distribution under a uniformly random oracle; the circuit
    is validated once (unless mats is given) and every leaf runs on mats."""
    if mats is None:
        mats = validate_circuit(circ)
    return enumerate_distribution(lambda ch: run_circuit_reference(circ, ch, mats))


def indistinguishability_gap(circ: dict, backend: str = "dense") -> float:
    """Total variation between compressed-oracle and reference-RO outputs;
    raises ValueError if either mass is off 1 by more than ATOL (lost leaves)."""
    mats = validate_circuit(circ)
    dists = compressed_distribution(circ, backend, mats), reference_distribution(circ, mats)
    for dist in dists:
        _check_mass(math.fsum(dist.values()))
    return total_variation(*dists)


# -- bundled circuit families ------------------------------------------------------


def named_circuits(n: int, m: int) -> list[dict]:
    """Hand-written circuits exercising the oracle from several angles."""
    big_n = 2**n
    circs = [
        {"name": "classical-two-queries", "n": n, "m": m, "registers": [],
         "steps": [
             {"op": "unitary", "targets": ["Y"], "gate": "flip"},
             {"op": "query"},
             {"op": "measure", "targets": ["Y"]},
             {"op": "unitary", "targets": ["X"], "gate": "flip"},
             {"op": "query"},
         ],
         "output": ["X", "Y"]},
        {"name": "uniform-superposition-query", "n": n, "m": m, "registers": [],
         "steps": [
             {"op": "unitary", "targets": ["X"], "gate": "fourier"},
             {"op": "query"},
         ],
         "output": ["X", "Y"]},
        {"name": "query-then-interfere", "n": n, "m": m, "registers": [],
         "steps": [
             {"op": "unitary", "targets": ["X"], "gate": "fourier"},
             {"op": "unitary", "targets": ["Y"], "gate": "hadamard"},
             {"op": "query"},
             {"op": "unitary", "targets": ["X"], "gate": "fourier"},
         ],
         "output": ["X", "Y"]},
        {"name": "double-query-cancels", "n": n, "m": m, "registers": [],
         "steps": [
             {"op": "unitary", "targets": ["X"], "gate": "fourier"},
             {"op": "query"},
             {"op": "query"},
         ],
         "output": ["X", "Y"]},
        {"name": "entangle-work-register", "n": n, "m": m, "registers": [["W", 2]],
         "steps": [
             {"op": "unitary", "targets": ["W"], "gate": "hadamard"},
             {"op": "unitary", "targets": ["W", "X"], "gate": "controlled-flip"},
             {"op": "query"},
             {"op": "unitary", "targets": ["W"], "gate": "hadamard"},
         ],
         "output": ["W", "X", "Y"]},
        {"name": "mid-circuit-measurement", "n": n, "m": m, "registers": [],
         "steps": [
             {"op": "unitary", "targets": ["X"], "gate": "fourier"},
             {"op": "measure", "targets": ["X"]},
             {"op": "query"},
             {"op": "unitary", "targets": ["Y"], "gate": "phase"},
             {"op": "query"},
         ],
         "output": ["Y"]},
        {"name": "phase-kickback", "n": n, "m": m, "registers": [],
         "steps": [
             {"op": "unitary", "targets": ["Y"], "gate": "flip"},
             {"op": "unitary", "targets": ["Y"], "gate": "hadamard"},
             {"op": "unitary", "targets": ["X"], "gate": "fourier"},
             {"op": "query"},
             {"op": "unitary", "targets": ["X"], "gate": "fourier"},
             {"op": "unitary", "targets": ["Y"], "gate": "hadamard"},
         ],
         "output": ["X", "Y"]},
    ]
    return circs


def random_circuit(n: int, m: int, rng: np.random.Generator) -> dict:
    """Seeded random circuit: Haar unitaries interleaved with 1-3 oracle queries."""
    big_n = 2**n
    regs = [["W", 2]] if rng.random() < 0.5 else []
    labels = ["X", "Y"] + [lab for lab, _ in regs]
    dims = {"X": m, "Y": big_n, "W": 2}
    steps: list[dict] = []
    n_queries = int(rng.integers(1, 4))
    for q in range(n_queries):
        for _ in range(int(rng.integers(1, 3))):
            k = 1 if len(labels) == 2 or rng.random() < 0.6 else 2
            targets = list(rng.choice(labels, size=k, replace=False))
            dim = int(np.prod([dims[t] for t in targets]))
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            qmat, r = np.linalg.qr(z)
            qmat = qmat * (np.diag(r) / np.abs(np.diag(r)))
            steps.append({
                "op": "unitary", "targets": targets,
                "matrix": np.stack([qmat.real, qmat.imag], axis=-1).tolist(),
            })
        steps.append({"op": "query"})
        if rng.random() < 0.25:
            steps.append({"op": "measure", "targets": ["Y"]})
    return {"name": f"random-{rng.bit_generator.state['state']['state'] % 10**6}",
            "n": n, "m": m, "registers": regs, "steps": steps,
            "output": labels}


def equivalence_suite() -> list[dict]:
    """The bundled adversary-circuit suite for RO-indistinguishability checks:
    the named circuits and 36 seeded random ones over n in {1,2}, m in {2,3}."""
    rng = np.random.default_rng(2024)
    configs = [(n, m) for n in (1, 2) for m in (2, 3)]
    suite: list[dict] = []
    for n, m in configs:
        for circ in named_circuits(n, m):
            circ["name"] = f"{circ['name']}-n{n}m{m}"
            suite.append(circ)
    for i in range(36):
        n, m = configs[i % len(configs)]
        circ = random_circuit(n, m, rng)
        circ["name"] = f"random-{i:03d}-n{n}m{m}"
        suite.append(circ)
    return suite
