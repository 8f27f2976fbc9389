"""The FO game-tree walk against the replay oracle in fokem_reference.py.

fokem.backend_agreement_experiment walks each game tree once and splits the
simulator at every oracle call; the reference re-runs the whole game per
leaf.  Both must give the same TV, budget, stats and verdict, reach the same
leaves, and the Monte-Carlo game must draw in the same order as before.  The
walk splits each distinct (simulator, oracle call) once and shares its
children between the sibling subtrees of a coin.
"""

import pytest

import fokem_reference as ref
from qrolab import branching, fokem
from qrolab.branching import RandomChooser, ReplayChooser, branch, enumerate_paths
from qrolab.fokem import (
    coin_guess_adversary,
    first_non_image_ciphertext,
    garbage_decaps_adversary,
    key_checking_adversary,
    toy_pke,
    wrong_randomness_adversary,
)
from qrolab.simulator import SimulatorS

PKE22 = toy_pke(2, 2, seed=5)
BACKENDS = ("real-decaps", "simulated-decaps")

# the five agreement trees of experiments.run_fo_battery: (pke, adversary, keep_ro_query)
BATTERY = {
    "key-check-01": (PKE22, key_checking_adversary((0, 1), 2), True),
    "wrong-r-keep": (PKE22, wrong_randomness_adversary((0, 1)), True),
    "wrong-r-nokeep": (PKE22, wrong_randomness_adversary((0, 1)), False),
    "garbage": (PKE22, garbage_decaps_adversary(first_non_image_ciphertext(PKE22)), True),
    "key-check-0-n3": (toy_pke(2, 3, seed=5), key_checking_adversary((0,), 1), True),
}


def _bundled(pke):
    return [coin_guess_adversary, key_checking_adversary(), wrong_randomness_adversary(),
            garbage_decaps_adversary(first_non_image_ciphertext(pke))]


def _reference(pke, adversary, keep):
    """The reference report and its leaf count over both backends."""
    counts = []

    def counting(run):
        leaves = enumerate_paths(run)
        counts.append(len(leaves))
        return leaves

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ref, "enumerate_paths", counting)
        rep = ref.backend_agreement_experiment(pke, adversary, keep_ro_query=keep,
                                               key_bits=1)
    return rep, sum(counts)


def _assert_same(pke, adversary, keep):
    new = fokem.backend_agreement_experiment(pke, adversary, keep_ro_query=keep,
                                             key_bits=1)
    old, leaves = _reference(pke, adversary, keep)
    assert abs(new.measured - old.measured) <= 1e-15, (new.measured, old.measured)
    assert abs(new.bound - old.bound) <= 1e-15, (new.bound, old.bound)
    assert new.satisfied == old.satisfied
    assert new.params == old.params
    assert {k: new.stats[k] for k in ("q_d", "swaps")} == old.stats
    assert new.stats["leaves"] == leaves
    assert new.stats["steps"] >= leaves
    assert 0 < new.stats["splits"] <= new.stats["steps"]
    return new


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_battery_trees_match_reference(name):
    rep = _assert_same(*BATTERY[name])
    if name.startswith("key-check"):
        assert rep.stats["splits"] < rep.stats["steps"]


@pytest.mark.parametrize("seed", range(6))
def test_seeded_toy_pkes_match_reference(seed):
    pke = toy_pke(2, 2, seed=seed)
    for adversary in _bundled(pke):
        _assert_same(pke, adversary, keep=seed % 2 == 0)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("keep", [True, False])
@pytest.mark.parametrize("adversary", [wrong_randomness_adversary((0, 1)),
                                       coin_guess_adversary],
                         ids=["wrong-r", "coin-guess"])
def test_monte_carlo_draw_order(backend, keep, adversary):
    for seed in range(5):
        new_ch, old_ch = RandomChooser(seed), RandomChooser(seed)
        new_trace, old_trace = [], []
        new = fokem.indcca_game(PKE22, adversary, backend, new_ch, key_bits=1,
                                keep_ro_query=keep, trace=new_trace)
        old = ref.indcca_game(PKE22, adversary, backend, old_ch, key_bits=1,
                              keep_ro_query=keep, trace=old_trace)
        assert new == old
        assert new_ch.rng.bit_generator.state == old_ch.rng.bit_generator.state
        assert new_trace == old_trace


def test_only_extraction_children_fork(monkeypatch):
    """A coin child is its node's simulator, shared; an S.RO child is a slice
    with no fork; each S.E child of a distinct (state, t) split is made by one
    fork, and a repeated (state, step) hands out the same child objects."""
    forks = []
    original_fork = SimulatorS.fork
    kinds = {"coin": 0, "RO": 0, "E": 0}
    splits = {}  # (id(state), method, args) -> (state, children)

    def counting_fork(self, chooser):
        forks.append(1)
        return original_fork(self, chooser)

    def classifying(method):
        original = getattr(ReplayChooser, method)

        def call(node, *args):
            if node.state is None or len(node.taken) < len(node.script):
                return original(node, *args)  # a fork's own draw, or a scripted answer
            sim, pushed, before = node.state, len(node.pending), len(forks)
            out = original(node, *args)
            kids = [node.state] + [state for _, state, _ in node.pending[pushed:]]
            if method.startswith("choose"):
                assert all(child is sim for child in kids)
                kind, fresh = "coin", False
            else:
                (kind,) = {child.log[-1]["interface"] for child in kids}
                assert all(len(child.log) == len(sim.log) + 1 for child in kids)
                key = (id(sim), method, args)
                fresh = key not in splits
                if fresh:
                    splits[key] = (sim, kids)
                else:
                    assert all(a is b for a, b in zip(kids, splits[key][1], strict=True))
            kinds[kind] += len(kids)
            assert len(forks) - before == (len(kids) if kind == "E" and fresh else 0), kind
            return out

        return call

    monkeypatch.setattr(SimulatorS, "fork", counting_fork)
    for method in ("choose", "choose_uniform", "ro_classical", "e_query"):
        monkeypatch.setattr(ReplayChooser, method, classifying(method))
    rep = fokem.backend_agreement_experiment(PKE22, wrong_randomness_adversary((0, 1)),
                                             key_bits=1)
    assert all(kinds.values()), kinds
    assert len(forks) == sum(len(kids) for (sim, kids) in splits.values()
                             if kids[0].log[-1]["interface"] == "E")
    assert len(forks) < kinds["E"]  # some S.E splits were repeated, and shared
    assert sum(kinds.values()) == rep.stats["steps"]
    assert len(splits) == rep.stats["splits"]


def test_dropped_child_raises(monkeypatch):
    dropped = []

    def lossy(leaves, split):
        kids = branch(leaves, split)
        if len(kids) > 1 and not dropped:
            dropped.append(kids.pop())
        return kids

    monkeypatch.setattr(branching, "branch", lossy)
    with pytest.raises(ValueError, match="mass"):
        fokem.backend_agreement_experiment(PKE22, key_checking_adversary(), key_bits=1)
    assert dropped
