"""The closure-replay walker as it was before it carried simulator states:
the test oracle for branching.enumerate_paths.

enumerate_paths re-runs run(chooser) once per leaf; ReplayChooser follows a
scripted prefix, takes the first live outcome of every later decision, and
records each decision's probabilities so that the walker schedules the
siblings after the run.  tests/test_walker.py checks that the one walker
gives the same leaves, in the same order and with bit-equal probabilities,
on closures of coin and probability draws.
"""

from __future__ import annotations

import numpy as np

from qrolab.branching import PROB_FLOOR, _clean_probs, _spiked_mass


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
