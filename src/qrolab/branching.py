"""Outcome sampling: seeded Monte-Carlo draws or exhaustive game-tree walks.

Every probabilistic choice in an experiment goes through a chooser object, so
the same experiment function can be run once with a seeded RNG or enumerated
exhaustively over all measurement outcomes.

One walker, enumerate_paths(run, root=None), runs the closure run(chooser)
once per leaf.  Its chooser is a tree node (ReplayChooser) that answers the
calls of its path's script, then takes the first live outcome of each
further call and pushes every sibling onto the walk at once, as a pending
(prob, state, script) entry.  A coin or probability draw leaves the state
alone, so its children share it; that is all a closure-replay run (no root)
uses.  With a root state, the node also answers S.RO and S.E calls by
applying a *split* to its state: a function state -> [(q, child, result)]
that returns every outcome of one step at once (branch applies one to a
list of leaves).  SimulatorS.ro_branches evolves an S.RO query once and
slices its responses; replayed(step) runs any other step on one fork per
outcome.  A re-run that answers from its script does no dense work.

A walk is a DAG, not a tree: a draw leaves the state alone, so the sibling
subtrees below it make the same S.RO and S.E calls on the same state object.
Each walk owns one memo, (id(state), step) -> (state, children), shared by
all its nodes, so dense work runs once per distinct (state, step) of a walk,
and a repeated call hands out the same children.  A state is never mutated
once a child or sibling holds it, which is what makes sharing safe; the memo
keeps every state it keys, so no id is reused while the walk runs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import ATOL

PROB_FLOOR = 1e-15


def _check_mass(total: float) -> float:
    """Raise unless the total is within ATOL of 1: a caller that lost or
    invented probability is a bug, not something to renormalize away.  Every
    guard here is written as `not <=` or `not >=`, so that NaN fails it."""
    if not abs(total - 1.0) <= ATOL:
        raise ValueError(f"outcome mass {total!r} deviates from 1 by more than {ATOL}")
    return total


def _clean_probs(probs) -> np.ndarray:
    """A new array: clip rounding-level negatives (copying only if there are
    any) and divide by the mass, which must already be 1 within ATOL."""
    p = np.asarray(probs, dtype=float).reshape(-1)
    p = np.clip(p, 0.0, None) if (p < 0.0).any() else p
    return p / _check_mass(float(p.sum()))


@lru_cache(maxsize=None)
def _uniform(count: int) -> np.ndarray:
    """The read-only cleaned uniform distribution over count outcomes."""
    p = _clean_probs(np.full(count, 1.0 / count))
    p.flags.writeable = False
    return p


def _spiked_mass(count: int, base: float, spikes: dict) -> float:
    """Total mass of `count` outcomes of probability `base`, except `spikes`;
    it must be 1 within ATOL."""
    if not base >= 0.0 or not all(p >= 0.0 for p in spikes.values()):
        raise ValueError("negative or NaN outcome probability")
    if any(not 0 <= i < count for i in spikes):
        raise ValueError(f"spike index outside range({count})")
    return _check_mass(base * (count - len(spikes)) + sum(spikes.values()))


def _invert_spiked_cdf(count: int, base: float, spikes: dict, target: float) -> int:
    """First outcome whose cumulative mass exceeds target, walking the runs of
    base-probability outcomes between spikes in O(#spikes)."""
    acc = 0.0
    last = None  # last outcome with positive mass, for a target rounded past the end
    start = 0
    for idx in sorted(spikes) + [count]:
        run = idx - start
        if run and base > 0.0:
            last = idx - 1
            if acc + run * base > target:
                return start + min(int((target - acc) // base), run - 1)
            acc += run * base
        if idx == count:
            break
        if spikes[idx] > 0.0:
            last = idx
            acc += spikes[idx]
            if acc > target:
                return idx
        start = idx + 1
    return last


class RandomChooser:
    """Draws branch indices from a seeded numpy Generator."""

    def __init__(self, rng_or_seed):
        self.rng = np.random.default_rng(rng_or_seed)  # a Generator passes through

    def choose(self, probs) -> int:
        p = _clean_probs(probs)
        return int(self.rng.choice(len(p), p=p))

    def choose_uniform(self, count: int) -> int:
        return int(self.rng.integers(count))

    def choose_spiked(self, count: int, base: float, spikes: dict) -> int:
        """Draw from `count` outcomes of probability `base`, except the indices
        in `spikes` (index -> probability).

        Generator.choice(p=...) draws one rng.random() and returns the first
        index whose normalized cumulative mass exceeds it; this makes the same
        single draw against the piecewise-constant CDF, so it returns the same
        outcome and leaves the same generator state as choose() on the dense
        vector, in O(#spikes) instead of O(count).
        """
        total = _spiked_mass(count, base, spikes)
        return _invert_spiked_cdf(count, base, spikes, self.rng.random() * total)


class ReplayChooser:
    """One node of the game-tree walk: a path's script, then the first live
    outcome of every further call.

    Scripted calls return their recorded answers.  At each call past the
    script the node continues on the first live child and pushes every
    sibling onto pending as (prob x q, state, script): a draw's siblings
    share the node's state, a split's siblings each hold their own child.
    A split is looked up in memo, the walk's (id(state), step) -> (state,
    children) dict, and computed only on a miss.  path_prob is the leaf's
    probability, one left fold of the q's from the root; edges counts the
    children the node's calls past its script made, so that over a walk's
    runs it sums to the tree's edges.  branch_probs records the cleaned
    distribution of every draw, scripted or not.
    """

    def __init__(self, script: tuple = (), prob: float = 1.0, state=None, pending=None,
                 memo=None):
        self.script = script
        self.path_prob = prob
        self.state = state
        self.pending = [] if pending is None else pending
        self.memo = {} if memo is None else memo
        self.taken: list = []
        self.branch_probs: list[np.ndarray] = []
        self.edges = 0

    def choose(self, probs) -> int:
        return self._draw(_clean_probs(probs))

    def choose_uniform(self, count: int) -> int:
        return self._draw(_uniform(count).copy())

    def choose_spiked(self, count: int, base: float, spikes: dict) -> int:
        _spiked_mass(count, base, spikes)
        probs = np.full(count, float(base))
        for i, p in spikes.items():
            probs[i] = p
        return self.choose(probs)

    def _draw(self, p: np.ndarray) -> int:
        """A draw from the cleaned distribution p."""
        self.branch_probs.append(p)
        i = len(self.taken)
        if i < len(self.script):
            outcome = self.script[i]
        else:
            live = np.nonzero(p > PROB_FLOOR)[0]
            outcome = int(live[0])
            prefix = tuple(self.taken)
            self.pending.extend((self.path_prob * float(p[b]), self.state, prefix + (int(b),))
                                for b in live[1:])
            self.edges += len(live)
            self.path_prob *= float(p[outcome])
        self.taken.append(outcome)
        return outcome

    def ro_classical(self, x: int):
        return self._split(("RO", x), lambda s: s.ro_branches(x))

    def e_query(self, t):
        return self._split(("E", t), replayed(lambda s: s.e_query(t)))

    def _split(self, key, split):
        """A call on the state: its scripted answer, or every outcome of
        split(state), continuing on the first child.  key names the step, so
        that (id(state), key) names the split in the walk's memo."""
        i = len(self.taken)
        if i < len(self.script):
            answer = self.script[i]
        else:
            def memoized(state):
                hit = self.memo.get((id(state), key))
                if hit is None:
                    hit = self.memo[id(state), key] = (state, split(state))
                return hit[1]

            kids = branch([(self.path_prob, self.state, tuple(self.taken))], memoized)
            self.path_prob, self.state, (*_, answer) = kids[0]
            self.pending.extend(kids[1:])
            self.edges += len(kids)
        self.taken.append(answer)
        return answer


def enumerate_paths(run, root=None) -> list[tuple[float, object]]:
    """All (probability, result) leaves of run(chooser), pruning branches
    below PROB_FLOOR; the chooser is a ReplayChooser on a state grown from
    root, sharing the walk's pending list and split memo.  The leaves must
    carry mass 1 within ATOL."""
    out: list[tuple[float, object]] = []
    pending = [(1.0, root, ())]
    memo: dict = {}
    while pending:
        prob, state, script = pending.pop()
        ch = ReplayChooser(script, prob, state, pending, memo)
        result = run(ch)
        out.append((ch.path_prob, result))
    _check_mass(sum(p for p, _ in out))
    return out


def branch(leaves, split) -> list[tuple[float, object, tuple]]:
    """Extend every (prob, state, outcomes) leaf by one split(state) call.

    A split returns [(q, child, result)]: every outcome of one step on the
    state, with its probability and the state after it.  The leaf's own state
    is never mutated and the prefix that built it is never replayed.  Returns
    the children (prob * q, child, outcomes + (result,)); the q of each leaf
    must sum to 1 within ATOL.
    """
    out = []
    for prob, state, outcomes in leaves:
        kids = split(state)
        mass = prob * sum(q for q, _, _ in kids)
        if not abs(mass - prob) <= ATOL:
            raise ValueError(f"children carry mass {mass!r} of a leaf of mass {prob!r}")
        out.extend((prob * q, child, outcomes + (res,)) for q, child, res in kids)
    return out


def replayed(step):
    """The split that runs step(state) once per outcome, each time on
    state.fork(chooser) under enumerate_paths: any step of a forkable state."""
    def split(state):
        kids = enumerate_paths(lambda ch: (c := state.fork(ch), step(c)))
        return [(q, child, res) for q, (child, res) in kids]
    return split


def distribution(paths) -> dict:
    """Aggregate (prob, result) leaves into a result -> probability dict."""
    dist: dict = {}
    for p, res in paths:
        dist[res] = dist.get(res, 0.0) + p
    return dist


def enumerate_distribution(run) -> dict:
    return distribution(enumerate_paths(run))
