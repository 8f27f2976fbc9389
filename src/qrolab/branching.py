"""Outcome sampling: seeded Monte-Carlo draws or exhaustive game-tree walks.

Every probabilistic choice in an experiment goes through a chooser object, so
the same experiment function can be run once with a seeded RNG or enumerated
exhaustively over all measurement outcomes.

Two tree forms:
  enumerate_paths  replays a whole closure run(chooser) once per leaf;
  branch           grows a tree of (prob, state, outcomes) leaves one step at
                   a time, with a *split*: a function state -> [(q, child,
                   result)] that returns every outcome of the step at once.

A split may be native (SimulatorS.ro_branches evolves an S.RO query once and
slices its responses), shared (uniform: a coin that never touches the state
gives every child the parent's state), or replayed (replayed(step) runs step
on one fork per outcome through enumerate_paths, for any step).  Leaf states
are never mutated after they are made, which is what makes sharing safe.
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
    """Clip rounding-level negatives; the mass must already be 1 within ATOL."""
    p = np.clip(np.asarray(probs, dtype=float).reshape(-1), 0.0, None)
    return p / _check_mass(float(p.sum()))


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
    """Draws branch indices from a seeded numpy Generator, logging each draw."""

    def __init__(self, rng_or_seed):
        if isinstance(rng_or_seed, np.random.Generator):
            self.rng = rng_or_seed
        else:
            self.rng = np.random.default_rng(rng_or_seed)
        self.calls = 0
        self.log: list[tuple[int, int]] = []

    def choose(self, probs) -> int:
        p = _clean_probs(probs)
        outcome = int(self.rng.choice(len(p), p=p))
        self.log.append((self.calls, outcome))
        self.calls += 1
        return outcome

    def choose_uniform(self, count: int) -> int:
        outcome = int(self.rng.integers(count))
        self.log.append((self.calls, outcome))
        self.calls += 1
        return outcome

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
        outcome = _invert_spiked_cdf(count, base, spikes, self.rng.random() * total)
        self.log.append((self.calls, outcome))
        self.calls += 1
        return outcome


class ReplayChooser:
    """Follows a scripted branch prefix, then greedily takes the first live branch.

    Records every decision point so the enumerator can schedule the siblings.
    """

    def __init__(self, script: tuple[int, ...]):
        self.script = script
        self.taken: list[int] = []
        self.branch_probs: list[np.ndarray] = []
        self.path_prob = 1.0

    def choose(self, probs) -> int:
        p = _clean_probs(probs)
        i = len(self.taken)
        if i < len(self.script):
            outcome = self.script[i]
        else:
            live = np.nonzero(p > PROB_FLOOR)[0]
            outcome = int(live[0])
        self.taken.append(outcome)
        self.branch_probs.append(p)
        self.path_prob *= float(p[outcome])
        return outcome

    def choose_uniform(self, count: int) -> int:
        return self.choose(np.full(count, 1.0 / count))

    def choose_spiked(self, count: int, base: float, spikes: dict) -> int:
        _spiked_mass(count, base, spikes)
        probs = np.full(count, float(base))
        for i, p in spikes.items():
            probs[i] = p
        return self.choose(probs)


def enumerate_paths(run) -> list[tuple[float, object]]:
    """All (probability, result) leaves of run(chooser), pruning branches below PROB_FLOOR."""
    out: list[tuple[float, object]] = []
    pending: list[tuple[int, ...]] = [()]
    while pending:
        script = pending.pop()
        ch = ReplayChooser(script)
        result = run(ch)
        out.append((ch.path_prob, result))
        for i in range(len(script), len(ch.taken)):
            probs_i = ch.branch_probs[i]
            prefix = tuple(ch.taken[:i])
            for b in range(len(probs_i)):
                if b != ch.taken[i] and probs_i[b] > PROB_FLOOR:
                    pending.append(prefix + (b,))
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


@lru_cache(maxsize=None)
def uniform(count: int):
    """The split of a uniform draw from range(count) that does not touch the
    state: every child is the state itself, shared, so a state must not be
    mutated once it is a leaf.  One split per count, made once."""
    probs = _clean_probs(np.full(count, 1.0 / count))
    kids = [(float(probs[i]), i) for i in np.nonzero(probs > PROB_FLOOR)[0]]
    return lambda state: [(q, state, int(i)) for q, i in kids]


def distribution(paths) -> dict:
    """Aggregate (prob, result) leaves into a result -> probability dict."""
    dist: dict = {}
    for p, res in paths:
        dist[res] = dist.get(res, 0.0) + p
    return dist


def enumerate_distribution(run) -> dict:
    return distribution(enumerate_paths(run))
