"""The one game-tree walker against the closure-replay oracles.

branching.enumerate_paths must give the leaves of the replay walker in
tests/branching_reference.py on closures of draws: the same results in the
same order, with bit-equal probabilities.  With a dense SimulatorS root, the
collision, interface-soundness and early-extraction reports must match the
replay versions in tests/bounds_reference.py, and every tree's leaves must
carry mass 1 within ATOL.  The walk's split memo must give the leaves of a walk
that splits every (state, step) afresh, and must die with its walk.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bounds_reference as ref
import branching_reference
from qrolab import bounds, experiments
from qrolab.branching import PROB_FLOOR, ReplayChooser, enumerate_paths
from qrolab.config import ATOL
from qrolab.properties import toy_encryption_commit
from qrolab.relations import identity_commit
from qrolab.simulator import SimulatorS


def random_closure(seed: int, depth: int):
    """A run that makes up to depth draws, each a choose, choose_uniform or
    choose_spiked whose kind and probabilities are seeded by the outcomes so
    far, so that every path of the tree is its own fixed sequence of draws."""

    def run(ch):
        outs = []
        for _ in range(depth):
            rng = np.random.default_rng([seed, len(outs), *outs])
            count = int(rng.integers(1, 5))
            kind = int(rng.integers(3))
            if kind == 0:
                probs = rng.random(count) * (rng.random(count) < 0.8)
                probs[int(rng.integers(count))] += 0.1
                outs.append(ch.choose(probs / probs.sum()))
            elif kind == 1:
                outs.append(ch.choose_uniform(count))
            else:
                spikes = {int(i): float(rng.random()) for i in
                          rng.choice(count, size=int(rng.integers(count + 1)), replace=False)}
                base = float(rng.random()) if len(spikes) < count else 0.0
                total = base * (count - len(spikes)) + sum(spikes.values())
                if total == 0.0:
                    base, total = 1.0, float(count - len(spikes))
                outs.append(ch.choose_spiked(count, base / total,
                                             {i: p / total for i, p in spikes.items()}))
            if rng.random() < 0.15:
                break
        return tuple(outs)

    return run


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_closure_leaves_match_replay(seed, depth):
    run = random_closure(seed, depth)
    new, old = enumerate_paths(run), branching_reference.enumerate_paths(run)
    assert [res for _, res in new] == [res for _, res in old]
    assert [p for p, _ in new] == [p for p, _ in old]


def _same_reports(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert (a.experiment, a.params, a.satisfied, a.vacuous) == \
            (b.experiment, b.params, b.satisfied, b.vacuous)
        assert a.bound == b.bound, (a.experiment, a.params)
        assert abs(a.measured - b.measured) <= 1e-15, (a.experiment, a.params,
                                                       a.measured, b.measured)


def test_collision_battery_matches_replay(monkeypatch):
    new = experiments.run_collision_battery()
    monkeypatch.setattr(experiments, "collision_experiment", ref.collision_experiment)
    old = experiments.run_collision_battery()
    _same_reports(new, old)
    assert [a.measured for a in new] == [b.measured for b in old]


def test_interfaces_battery_matches_replay(monkeypatch):
    new = experiments.run_interfaces_battery()
    for name in ("hard_property_experiment", "hard_collision_experiment"):
        monkeypatch.setattr(experiments, name, getattr(ref, name))
    _same_reports(new, experiments.run_interfaces_battery())


def test_early_extraction_battery_matches_replay(monkeypatch):
    new = experiments.run_early_extraction_battery()
    monkeypatch.setattr(experiments, "early_extraction_experiment",
                        ref.early_extraction_experiment)
    _same_reports(new, experiments.run_early_extraction_battery())


@pytest.mark.parametrize("requery_parity", [1, 0], ids=["odd", "even"])
def test_largest_count_committers_match_replay(requery_parity):
    f = identity_commit(1, 2)

    def committer(ro, announce):
        h0 = ro(0)
        announce(f(0, h0))
        if h0 % 2 == requery_parity:
            ro(1)
        return [0], ()

    _same_reports(bounds.early_extraction_experiment(committer, f),
                  ref.early_extraction_experiment(committer, f))


class _Lossy:
    """A root whose S.RO split drops its last live child."""

    def ro_branches(self, x):
        return [(0.5, _Lossy(), 0)]


def test_split_that_drops_a_live_child_raises():
    with pytest.raises(ValueError, match="children carry mass"):
        enumerate_paths(lambda ch: ch.ro_classical(0), _Lossy())


def test_closure_that_loses_mass_raises():
    # each draw is within ATOL of mass 1, but the pruned outcomes below
    # PROB_FLOOR add up to more than ATOL
    tiny, count = 0.9 * PROB_FLOOR, 3_000_000
    probs = np.full(count, tiny)
    probs[0] = 1.0 - tiny * (count - 1)
    assert tiny * (count - 1) > ATOL
    with pytest.raises(ValueError, match="outcome mass"):
        enumerate_paths(lambda ch: ch.choose(probs))


def test_leaf_mass_within_atol_is_accepted():
    leaves = enumerate_paths(lambda ch: ch.choose([0.5, 0.5 + ATOL / 10]))
    assert [res for _, res in leaves] == [0, 1]


def test_sibling_probabilities_carry_their_q():
    leaves = enumerate_paths(lambda ch: (ch.choose([0.25, 0.75]), ch.choose_uniform(2)))
    assert leaves == [(0.125, (0, 0)), (0.125, (0, 1)), (0.375, (1, 0)), (0.375, (1, 1))]



def memo_free_paths(run, root):
    """enumerate_paths with a fresh memo per node, so that no split is ever
    reused: every (state, step) a run reaches is split again."""
    out, pending = [], [(1.0, root, ())]
    while pending:
        prob, state, script = pending.pop()
        ch = ReplayChooser(script, prob, state, pending)
        result = run(ch)
        out.append((ch.path_prob, result))
    return out


def simulator_closure(seed: int, f, depth: int):
    """A run of depth steps on a SimulatorS node: coin draws interleaved with
    S.RO and S.E calls.  Each step's kind and argument are seeded by the
    outcomes so far, but a step may ignore the coin outcomes, so that the
    sibling subtrees of a coin repeat the same calls on the same state."""

    def run(ch):
        outs, calls = [], []
        for _ in range(depth):
            rng = np.random.default_rng([seed, len(outs), *calls])
            history = outs if rng.random() < 0.5 else calls
            rng = np.random.default_rng([seed, len(outs), 7, *history])
            kind = int(rng.integers(3))
            if kind == 0:
                outs.append(ch.choose_uniform(int(rng.integers(2, 4))))
            elif kind == 1:
                outs.append(ch.ro_classical(int(rng.integers(f.m))))
                calls.append(outs[-1])
            else:
                t = f.t_values[int(rng.integers(len(f.t_values)))]
                value = ch.e_query(t).value
                outs.append(f.m if value is None else value)
                calls.append(outs[-1])
        return tuple(outs)

    return run


def _count_splits(monkeypatch) -> list:
    """Patch SimulatorS so that each S.RO split and each fork (one per S.E
    outcome) appends to the returned list."""
    calls = []
    ro_branches, fork = SimulatorS.ro_branches, SimulatorS.fork
    monkeypatch.setattr(SimulatorS, "ro_branches",
                        lambda self, x: calls.append("RO") or ro_branches(self, x))
    monkeypatch.setattr(SimulatorS, "fork",
                        lambda self, ch: calls.append("fork") or fork(self, ch))
    return calls


@pytest.mark.parametrize("seed", range(8))
def test_memoized_simulator_walk_matches_memo_free_walk(seed, monkeypatch):
    f = toy_encryption_commit(1, 3)
    calls = _count_splits(monkeypatch)
    run = simulator_closure(seed, f, depth=5)
    new = enumerate_paths(run, SimulatorS(f, backend="dense"))
    memo_calls = len(calls)
    old = memo_free_paths(run, SimulatorS(f, backend="dense"))
    assert [res for _, res in new] == [res for _, res in old]
    assert [p for p, _ in new] == [p for p, _ in old]
    assert memo_calls < len(calls) - memo_calls  # the coins' subtrees shared splits


def test_memo_does_not_outlive_its_walk(monkeypatch):
    f = identity_commit(1, 2)
    root = SimulatorS(f, backend="dense")
    children = []

    def run(ch):
        coin = ch.choose_uniform(2)
        h = ch.ro_classical(0)
        children.append(weakref.ref(ch.state))
        return coin, h

    calls = _count_splits(monkeypatch)
    first = enumerate_paths(run, root)
    assert calls == ["RO"]  # both coin subtrees share the one split of the root
    assert enumerate_paths(run, root) == first
    assert calls == ["RO", "RO"]  # the second walk splits afresh
    assert ReplayChooser().memo is not ReplayChooser().memo
    gc.collect()
    assert children and all(child() is None for child in children)
