"""SparseState's array passes against the per-entry reference.

Random programs of single and joint prefix unitaries, quantum queries,
classical queries, prefix measurements and extraction measurements (the
reference given the `member` predicate, SparseState the cell lists) at
n <= 2, m <= 3 must give the same amplitude map after every step, the same
branch probabilities and outcome distribution, and the same seeded draws as
`ReferenceSparseState`.  The q_cap checks must fire at the same key length.
The `amps` map is derived from SparseState's arrays, so every step also
checks that it has one key per entry: a derived dict silently merges
duplicate keys.  Operations on a copy must leave the original unchanged,
since copies share their arrays.  The sparse-map benchmark's states are
checked entry by entry at full size: the n = 16 round trips (65,537 entries
after each query) and the n = 5, m = 8 Grover circuits (a peak of 8,192
entries with the uncompute query, 63,744 without).

Prefix unitaries on the same registers fuse into one pending product that
runs when the state is read (see `SparseState`), and the per-step reads above
apply it after every op.  So the fused programs below read nothing until
the end, and the work counts check that a run makes one block product.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrolab.branching import RandomChooser, ReplayChooser, enumerate_distribution, enumerate_paths
from qrolab.circuits import (
    circuit_registers,
    compressed_distribution,
    gate_matrix,
    named_circuits,
    run_circuit_compressed,
)
from qrolab.config import ATOL
from qrolab.experiments import grover_one_iteration_circuit
from qrolab.linalg import LayoutError, total_variation
from qrolab.sparse import QCapError, SparseState
from sparse_reference import ReferenceSparseState

W_DIM = 2  # an extra work register, so joint unitaries can skip X or Y


def random_unitary(dim: int, seed: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "permutation":  # sparse output: exact zeros in the block product
        return np.eye(dim, dtype=complex)[rng.permutation(dim)]
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def regs_of(n, m):
    return (("X", m), ("Y", 2**n), ("W", W_DIM))


@st.composite
def programs(draw):
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 3))
    regs = regs_of(n, m)
    dims = dict(regs)
    pairs = frozenset(draw(st.sets(st.tuples(st.integers(0, m - 1),
                                             st.integers(0, 2**n - 1)))))
    ops = []
    for _ in range(draw(st.integers(1, 4))):
        labels = draw(st.sampled_from([["X"], ["Y"], ["W"], ["X", "W"], ["Y", "X"],
                                       ["W", "Y"], ["X", "Y", "W"]]))
        dim = int(np.prod([dims[lab] for lab in labels]))
        kind = draw(st.sampled_from(["dense", "permutation"]))
        ops.append(("unitary", (labels, random_unitary(dim, draw(st.integers(0, 999)), kind))))
    for _ in range(draw(st.integers(0, 2))):
        ops.insert(draw(st.integers(0, len(ops))), ("quantum", None))
    branching = [("classical", draw(st.integers(0, m - 1)))
                 for _ in range(draw(st.integers(0, 2)))]
    branching += [("relation", None) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        branching.append(("prefix", draw(st.sampled_from(["X", "W"]))))
    for op in draw(st.permutations(branching))[:3]:
        ops.insert(draw(st.integers(0, len(ops))), op)
    return n, m, regs, pairs, tuple(ops)


def play(state, ops, pairs, chooser, snapshots=True):
    """Run ops on state; returns the outcomes and the map after each op."""
    member = lambda x, c: (x, c) in pairs
    satisfying = lambda x: sorted(c for xx, c in pairs if xx == x)
    outcomes, maps = [], []
    for kind, arg in ops:
        if kind == "unitary":
            state.apply_prefix_unitary(*arg)
        elif kind == "quantum":
            state.quantum_query("X", "Y")
        elif kind == "classical":
            outcomes.append(state.classical_query(arg, chooser))
        elif kind == "prefix":
            outcomes.append(state.measure_prefix(arg, chooser))
        elif isinstance(state, ReferenceSparseState):
            outcomes.append(state.measure_relation(member, chooser))
        else:
            outcomes.append(state.measure_relation(satisfying, chooser))
        assert len(state.amps) == state.support()
        if snapshots:
            maps.append((state.basis, dict(state.amps)))
    return tuple(outcomes), maps


def assert_same_map(fast, slow):
    (basis, amps), (slow_basis, slow_amps) = fast, slow
    assert basis == slow_basis
    assert set(amps) == set(slow_amps)
    for key, amp in amps.items():
        assert abs(amp - slow_amps[key]) <= ATOL, key


# Re-queries after an extraction miss, where a column's uniform part b is
# nonzero and a response of 0 adds it back, a register with two cells in the
# relation, and a second quantum query meeting the cell the first one wrote:
# rare among random programs.  At m = 2^40, a db of two cells makes the
# grouping codes overflow int64, so entries are grouped as matrix rows.
@settings(max_examples=60, deadline=None)
@given(programs())
@example((1, 2, regs_of(1, 2), frozenset(),
          (("unitary", (["X"], random_unitary(2, 5, "dense"))), ("quantum", None),
           ("quantum", None))))
@example((1, 1, regs_of(1, 1), frozenset({(0, 0), (0, 1)}),
          (("classical", 0), ("relation", None))))
@example((1, 2, regs_of(1, 2), frozenset({(0, 0)}),
          (("classical", 0), ("relation", None), ("classical", 0))))
@example((2, 2, regs_of(2, 2), frozenset({(0, 1), (1, 2)}),
          (("unitary", (["X"], random_unitary(2, 3, "dense"))), ("quantum", None),
           ("classical", 0), ("relation", None), ("classical", 0))))
@example((2, 2**40, (("X", 2), ("Y", 4), ("W", W_DIM)), frozenset({(0, 1), (1, 2)}),
          (("unitary", (["X", "W"], random_unitary(4, 6, "dense"))), ("quantum", None),
           ("unitary", (["X", "Y"], random_unitary(8, 5, "dense"))), ("quantum", None),
           ("classical", 1), ("relation", None))))
def test_array_passes_match_reference(program):
    n, m, regs, pairs, ops = program
    q_cap = sum(kind in ("quantum", "classical") for kind, _ in ops)

    def run(cls):
        return lambda ch: play(cls(n, m, q_cap, prefix=regs), ops, pairs, ch)[0]

    assert total_variation(enumerate_distribution(run(SparseState)),
                           enumerate_distribution(run(ReferenceSparseState))) <= ATOL

    def run_lockstep(ch):
        outcomes, maps = play(SparseState(n, m, q_cap, prefix=regs), ops, pairs, ch)
        slow = ReplayChooser(tuple(ch.taken))
        slow_outcomes, slow_maps = play(ReferenceSparseState(n, m, q_cap, prefix=regs),
                                        ops, pairs, slow)
        assert slow.taken == ch.taken and slow_outcomes == outcomes
        for p, q in zip(ch.branch_probs, slow.branch_probs):
            assert np.abs(p - q).max() <= ATOL
        for fast_map, slow_map in zip(maps, slow_maps):
            assert_same_map(fast_map, slow_map)
        return outcomes

    enumerate_paths(run_lockstep)


def grover_then_query(cls, circ, chooser, maps=None):
    """The Grover circuit, a measurement of X, a classical query of RO(x) and
    an extraction of its answer, as the sparse-map benchmark's paths run.
    The map after each circuit step is appended to maps, when given."""
    regs = circuit_registers(circ)
    dims_of = dict(regs)
    state = cls(circ["n"], circ["m"], q_cap=8, prefix=regs)
    for step in circ["steps"]:
        if step["op"] == "unitary":
            targets = step["targets"]
            state.apply_prefix_unitary(targets,
                                       gate_matrix(step, [dims_of[t] for t in targets]))
        else:
            state.quantum_query("X", "Y")
        if maps is not None:
            maps.append((state.basis, dict(state.amps)))
    x = state.measure_prefix("X", chooser)
    h = state.classical_query(x, chooser)
    if cls is ReferenceSparseState:
        hit = state.measure_relation(lambda xx, c: c == h, chooser)
    else:
        hit = state.measure_relation(lambda xx: [h], chooser)
    return x, h, hit, dict(state.amps)


def test_seeded_grover_paths_match_reference():
    circ = grover_one_iteration_circuit(5, 8, True)
    for seed in range(16):
        fast, slow = RandomChooser(seed), RandomChooser(seed)
        *out, amps = grover_then_query(SparseState, circ, fast)
        *slow_out, slow_amps = grover_then_query(ReferenceSparseState, circ, slow)
        assert out == slow_out
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
        assert_same_map(("", amps), ("", slow_amps))


@pytest.mark.parametrize("uncompute, peak", [(True, 8192), (False, 63744)])
def test_grover_circuits_at_full_support_match_reference(uncompute, peak):
    circ = grover_one_iteration_circuit(5, 8, uncompute)
    fast, slow = RandomChooser(3), RandomChooser(3)
    maps, slow_maps = [], []
    *out, amps = grover_then_query(SparseState, circ, fast, maps)
    *slow_out, slow_amps = grover_then_query(ReferenceSparseState, circ, slow, slow_maps)
    assert out == slow_out
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
    assert max(len(amps) for _, amps in maps) == peak
    for fast_map, slow_map in zip(maps + [("", amps)], slow_maps + [("", slow_amps)]):
        assert_same_map(fast_map, slow_map)


@pytest.mark.parametrize("seed", [0, 1])
def test_round_trips_at_n16_match_reference(seed):
    """ro(x) -> E(h) -> ro(x) -> E(h) on one state at n = 16 over a 2^20
    domain, as the sparse-map benchmark's round trips run."""
    x = 12345 + seed

    def run(cls):
        state, chooser = cls(16, 2**20, q_cap=2), RandomChooser(seed)
        outcomes, maps = [], []
        for _ in range(2):
            h = state.classical_query(x, chooser)
            maps.append(dict(state.amps))
            if cls is ReferenceSparseState:
                hit = state.measure_relation(lambda xx, c: c == h, chooser)
            else:
                hit = state.measure_relation(lambda xx: [h], chooser)
            maps.append(dict(state.amps))
            outcomes += [h, hit]
        return outcomes, chooser.rng.bit_generator.state, maps

    (out, rng, maps), (slow_out, slow_rng, slow_maps) = run(SparseState), run(ReferenceSparseState)
    assert out == slow_out and rng == slow_rng
    assert len(maps[0]) == len(maps[2]) == 2**16 + 1
    for fast_map, slow_map in zip(maps, slow_maps):
        assert_same_map(("", fast_map), ("", slow_map))


def test_column_block_over_the_cap_raises():
    """After ro(x) and an extraction that misses, x's register holds about
    2^16 cells, so a query of a second x would need a (65,536 x 65,537)
    block of 64 GiB: the block refuses it, as to_dense_vector refuses a
    densification over DIM_CAP."""
    state, chooser = SparseState(16, 2**20, q_cap=2), RandomChooser(0)
    h = state.classical_query(12345, chooser)
    assert state.measure_relation(lambda xx: [(h + 1) % 2**16], chooser) is None
    assert state.support() >= 2**16
    with pytest.raises(MemoryError, match="exceeds cap"):
        state.classical_query(999, chooser)


def test_prune_refuses_a_nan_amplitude():
    """A NaN amplitude fails `> eps`, so pruning would drop it and report a
    smaller state with its mass silently lost."""
    state = SparseState(1, 2, q_cap=2)
    state.amps = {((), ((0, 0), (1, 0))): complex(np.nan), ((), ()): np.sqrt(0.5) + 0j}
    assert state.support() == 2
    with pytest.raises(ValueError, match="NaN"):
        state.prune()
    assert state.support() == 2


def first_qcap_error(cls, q_cap, ops):
    """Index of the op that raises QCapError, or None."""
    state = cls(1, 4, q_cap, prefix=(("X", 4), ("Y", 2)))
    state.apply_prefix_unitary("X", np.fft.fft(np.eye(4)) / 2)
    chooser = RandomChooser(7)
    for i, op in enumerate(ops):
        try:
            if op == "quantum":
                state.quantum_query("X", "Y")
            else:
                state.classical_query(op, chooser)
        except QCapError:
            return i
    return None


@pytest.mark.parametrize("ops", [("quantum",) * 4, (0, 1, 2, 3), (0, "quantum", 2, "quantum"),
                                 ("quantum", 3, 3, "quantum", 1)])
def test_qcap_error_at_reference_key_length(ops):
    raised = [first_qcap_error(SparseState, q_cap, ops) for q_cap in range(5)]
    assert raised == [first_qcap_error(ReferenceSparseState, q_cap, ops) for q_cap in range(5)]
    assert raised[0] is not None and raised[-1] is None


def test_quantum_query_refuses_colliding_keys():
    state = SparseState(1, 2, 3, prefix=(("X", 2), ("Y", 2)))
    state.basis = "hadamard"
    # a malformed key listing register 0 twice; at eta = 1 the query maps it
    # onto the image of the empty database
    state.amps = {((0, 0), ()): 0.6 + 0j, ((0, 0), ((0, 1), (0, 1))): 0.8 + 0j}
    with pytest.raises(RuntimeError, match="two keys"):
        state.quantum_query("X", "Y")


def test_registers_beyond_the_domain_are_refused():
    # register m pads the db rows, so a register m would vanish into them
    state = SparseState(1, 2, 3, prefix=(("X", 3), ("Y", 2)))
    with pytest.raises(ValueError, match="at most m"):
        state.quantum_query("X", "Y")
    with pytest.raises(ValueError, match="out of domain range"):
        state.amps = {((0, 0), ((2, 1),)): 1.0 + 0j}


FORK_OPS = {
    "unitary": lambda s, ch: s.apply_prefix_unitary(["Y", "X"], random_unitary(8, 4, "dense")),
    "quantum": lambda s, ch: s.quantum_query("X", "Y"),
    "classical": lambda s, ch: s.classical_query(2, ch),
    "requery": lambda s, ch: s.classical_query(0, ch),
    "basis": lambda s, ch: s.basis_switch(),
    "prefix": lambda s, ch: s.measure_prefix("X", ch),
    "relation": lambda s, ch: s.measure_relation(lambda x: [1], ch),
    "satisfying": lambda s, ch: s.measure_relation(lambda x: [0], ch),
    "probs": lambda s, ch: s.classical_query_probs(1),
    "prune": lambda s, ch: s.prune(0.3),
    "dense": lambda s, ch: s.to_dense_vector(),
}


@pytest.mark.parametrize("op", sorted(FORK_OPS))
def test_ops_on_a_copy_leave_the_original_unchanged(op):
    """SimulatorS.fork and grover_experiment run ops on copy()s, which share
    the original's arrays."""
    state = SparseState(1, 4, 4, prefix=(("X", 4), ("Y", 2)))
    state.apply_prefix_unitary("X", np.fft.fft(np.eye(4)) / 2)
    state.quantum_query("X", "Y")
    state.quantum_query("X", "Y")
    state.classical_query(0, RandomChooser(3))
    state.quantum_query("X", "Y")
    before = (state.basis, dict(state.amps))
    assert state.basis == "hadamard" and max(len(db) for _, db in before[1]) == 2
    for seed in range(4):
        FORK_OPS[op](state.copy(), RandomChooser(seed))
        assert (state.basis, dict(state.amps)) == before


@pytest.mark.parametrize("labels, dim", [("X", 6), (["X", "X"], 16), ("X", 3)])
def test_malformed_prefix_unitaries_are_refused(labels, dim):
    """A pending product would carry a bad matrix away from its call, so the
    call itself refuses a matrix that is not (d, d) on distinct labels."""
    state = SparseState(1, 4, 2, prefix=(("X", 4), ("Y", 2)))
    state.apply_prefix_unitary("X", np.fft.fft(np.eye(4)) / 2)
    with pytest.raises(LayoutError):
        state.apply_prefix_unitary(labels, np.eye(dim))


# -- fused runs of prefix unitaries ----------------------------------------------

RUN_LABELS = [["X"], ["Y"], ["W"], ["X", "W"], ["Y", "X"], ["W", "Y"], ["X", "Y", "W"]]


@st.composite
def fused_programs(draw):
    """Runs of 2-4 unitaries on the same labels, a copy() inside some of
    them, and after each run at most one quantum query, classical query or
    prefix measurement, so a program branches at most three times."""
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 3))
    regs = regs_of(n, m)
    dims = dict(regs)
    between = st.one_of(st.just(("quantum", None)),
                        st.tuples(st.just("classical"), st.integers(0, m - 1)),
                        st.tuples(st.just("prefix"), st.sampled_from(["X", "W"])))
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        labels = draw(st.sampled_from(RUN_LABELS))
        dim = int(np.prod([dims[lab] for lab in labels]))
        run = [("unitary", (labels, random_unitary(dim, draw(st.integers(0, 999)),
                                                   draw(st.sampled_from(["dense", "permutation"])))))
               for _ in range(draw(st.integers(2, 4)))]
        if draw(st.booleans()):
            run.insert(draw(st.integers(1, len(run) - 1)), ("copy", None))
        ops += run + draw(st.lists(between, max_size=1))
    return n, m, regs, tuple(ops)


def play_unread(state, ops, chooser):
    """Run ops on state without reading it in between; after a copy op the
    program continues on the copy.  Returns the outcomes and the final map
    of every state."""
    outcomes, states = [], [state]
    for kind, arg in ops:
        if kind == "unitary":
            state.apply_prefix_unitary(*arg)
        elif kind == "copy":
            state = state.copy()
            states.append(state)
        elif kind == "quantum":
            state.quantum_query("X", "Y")
        elif kind == "classical":
            outcomes.append(state.classical_query(arg, chooser))
        else:
            outcomes.append(state.measure_prefix(arg, chooser))
    return tuple(outcomes), [(s.basis, dict(s.amps)) for s in states]


def assert_close_maps(fast, slow):
    """Two maps equal within ATOL, a key missing from one reading as 0."""
    (basis, amps), (slow_basis, slow_amps) = fast, slow
    assert basis == slow_basis
    for key in set(amps) | set(slow_amps):
        assert abs(amps.get(key, 0) - slow_amps.get(key, 0)) <= ATOL, key


@settings(max_examples=60, deadline=None)
@given(fused_programs())
@example((1, 2, regs_of(1, 2),
          (("unitary", (["X"], random_unitary(2, 1, "dense"))),
           ("unitary", (["X"], random_unitary(2, 2, "dense"))), ("prefix", "X"))))
@example((1, 2, regs_of(1, 2),
          (("unitary", (["X"], random_unitary(2, 1, "dense"))), ("quantum", None),
           ("unitary", (["Y", "X"], random_unitary(4, 2, "dense"))), ("copy", None),
           ("unitary", (["Y", "X"], random_unitary(4, 3, "dense"))), ("classical", 1))))
def test_fused_runs_match_reference(program):
    n, m, regs, ops = program
    q_cap = sum(kind in ("quantum", "classical") for kind, _ in ops)

    def run(cls):
        return lambda ch: play_unread(cls(n, m, q_cap, prefix=regs), ops, ch)[0]

    assert total_variation(enumerate_distribution(run(SparseState)),
                           enumerate_distribution(run(ReferenceSparseState))) <= ATOL

    def run_lockstep(ch):
        outcomes, maps = play_unread(SparseState(n, m, q_cap, prefix=regs), ops, ch)
        slow = ReplayChooser(tuple(ch.taken))
        slow_outcomes, slow_maps = play_unread(ReferenceSparseState(n, m, q_cap, prefix=regs),
                                               ops, slow)
        assert slow.taken == ch.taken and slow_outcomes == outcomes
        for p, q in zip(ch.branch_probs, slow.branch_probs):
            assert np.abs(p - q).max() <= ATOL
        assert len(maps) == len(slow_maps)
        for fast_map, slow_map in zip(maps, slow_maps):
            assert_close_maps(fast_map, slow_map)
        return outcomes

    enumerate_paths(run_lockstep)


@pytest.fixture
def products(monkeypatch):
    """The input support of every block product SparseState makes."""
    sizes = []
    product = SparseState._product

    def counted(state, axes, mat):
        sizes.append(len(state.amp))
        product(state, axes, mat)

    monkeypatch.setattr(SparseState, "_product", counted)
    return sizes


@pytest.mark.parametrize("uncompute, sizes", [(True, [1, 8, 256, 8192, 256]),
                                              (False, [1, 8, 256, 8192])])
def test_seeded_grover_path_fuses_its_runs(products, uncompute, sizes):
    """The first query's closing W_Y, mark_Y and the second query's opening
    W_Y make one product on 256 entries: seven products were five, and three
    of them on 8,192 entries one.  Without the uncompute query the closing
    W_Y and mark_Y make one product: five were four."""
    circ = grover_one_iteration_circuit(5, 8, uncompute)
    run_circuit_compressed(circ, RandomChooser(0), backend="sparse")
    assert products == sizes


WALKED = [c for c in named_circuits(1, 2)
          if all(len(s.get("targets", [])) <= 1 for s in c["steps"] if s["op"] == "unitary")]
WALKED += [grover_one_iteration_circuit(3, 4, unc) for unc in (False, True)]


@pytest.mark.parametrize("circ", WALKED, ids=lambda c: c["name"])
def test_walked_circuits_make_one_product_per_unitary(products, monkeypatch, circ):
    """Under a walk every step runs on a copy of the node before it, and
    copy() applies the pending product once for all the node's children."""
    calls = []
    apply = SparseState.apply_prefix_unitary

    def called(state, labels, mat):
        calls.append(labels)
        apply(state, labels, mat)

    monkeypatch.setattr(SparseState, "apply_prefix_unitary", called)
    compressed_distribution(circ, backend="sparse")
    assert len(products) == len(calls) > 0


def test_copies_share_one_applied_product(products):
    state = SparseState(1, 4, 2, prefix=(("X", 4), ("Y", 2)))
    state.apply_prefix_unitary("X", np.fft.fft(np.eye(4)) / 2)
    state.apply_prefix_unitary("X", random_unitary(4, 1, "dense"))
    copies = [state.copy() for _ in range(3)]
    assert len(products) == 1
    assert all(dict(c.amps) == dict(state.amps) for c in copies)
    assert len(products) == 1


READS = {
    "amps": lambda s, ch: len(s.amps),
    "dense": lambda s, ch: s.to_dense_vector(),
    "norm_sq": lambda s, ch: s.norm_sq(),
    "support": lambda s, ch: s.support(),
    "prune": lambda s, ch: s.prune(0.3) or s.support(),
    "prefix": lambda s, ch: s.measure_prefix("X", ch),
    "measure": lambda s, ch: s.measure(["X"], ch),
    "collapses": lambda s, ch: [(q, *o) for q, _, o in s.collapses(["X"])],
    "classical": lambda s, ch: s.classical_query(1, ch),
    "probs": lambda s, ch: s.classical_query_probs(1),
    "basis": lambda s, ch: s.basis_switch() or s.support(),
    "relation": lambda s, ch: s.measure_relation(lambda x: [0], ch) or -1,
}


@pytest.mark.parametrize("read", sorted(READS))
def test_every_read_applies_the_pending_product(read):
    """read on a state whose pending product was applied before it, and on
    one whose read applies it: the same draws and the same result."""
    def built():
        state = SparseState(1, 4, 4, prefix=(("X", 4), ("Y", 2)))
        state.quantum_query("X", "Y")
        state.apply_prefix_unitary("X", np.fft.fft(np.eye(4)) / 2)
        state.apply_prefix_unitary("X", random_unitary(4, 2, "dense"))
        return state

    eager = built()
    eager.support()
    out = [(READS[read](s, RandomChooser(5)), s.basis, dict(s.amps)) for s in (eager, built())]
    assert out[0][1:] == out[1][1:]
    assert np.array_equal(out[0][0], out[1][0])


def test_loading_a_map_drops_the_pending_product(products):
    state = SparseState(1, 2, 2, prefix=(("X", 2), ("Y", 2)))
    state.apply_prefix_unitary("X", random_unitary(2, 1, "dense"))
    state.amps = {((1, 0), ()): 1.0 + 0j}
    assert dict(state.amps) == {((1, 0), ()): 1.0 + 0j} and products == []
