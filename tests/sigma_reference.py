"""Brute-force and reference oracles for `qrolab.sigma`.

`brute_force_p_trivial_parallel` enumerates the subsets of C^r that
`qrolab.sigma.p_trivial_parallel` reduces to per-position searches (tiny
cases only).

The provers, the online extractor, the real game and the experiment below
are the Σ game as it was written before each protocol step was kept once:
`TrivialAttackProver` builds its own slots, `online_extract` and
`run_real_game` each run their own challenge round, and
`run_sigma_experiment` has a separate exhaustive trial body.  They are
copied unchanged and are the oracle `tests/test_sigma.py` compares the
rewritten game against, draw for draw.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import numpy as np

from qrolab.bounds import Report
from qrolab.branching import RandomChooser
from qrolab.oracle import LazyRandomOracle
from qrolab.relations import identity_commit
from qrolab.sigma import (
    AccessStructure,
    ExtractTranscript,
    SigmaSpec,
    epsilon_exact,
    epsilon_simplified,
    p_trivial,
)
from qrolab.simulator import SimulatorS


def brute_force_p_trivial_parallel(spec: SigmaSpec, access: AccessStructure,
                                   r: int) -> Fraction:
    """Reference oracle: enumerate all subsets of C^r (tiny cases only)."""
    tuples = list(itertools.product(range(len(spec.challenges)), repeat=r))
    if 2 ** len(tuples) > 2**20:
        raise ValueError("too large for brute force")
    best = 0
    for size in range(len(tuples), 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(tuples, size):
            ok = True
            for pos in range(r):
                marginal = frozenset(t[pos] for t in subset)
                if access.member(marginal):
                    ok = False
                    break
            if ok:
                best = size
                break
    return Fraction(best, len(spec.challenges) ** r)


class HonestProver:
    """Commits to a fresh 3-share split of the witness instance."""

    def __init__(self, spec: SigmaSpec, instance, witness_shares, rng,
                 share_bits: int):
        self.spec = spec
        self.share_bits = share_bits
        s = list(witness_shares)
        self.slots = [
            self.spec.encode((s[i] << share_bits) | s[(i + 1) % 3],
                             int(rng.integers(2**spec.randomness_bits)))
            for i in range(3)
        ]

    def commit(self, ro) -> list[int]:
        return [ro(x) for x in self.slots]

    def respond(self, challenge) -> dict:
        return {i: self.slots[i] for i in challenge}


class TrivialAttackProver:
    """Answers exactly the first challenge; garbage in the remaining slot."""

    def __init__(self, spec: SigmaSpec, instance, witness_shares, rng,
                 share_bits: int):
        target = spec.challenges[0]
        s = list(witness_shares)
        good = {
            i: (s[i] << share_bits) | s[(i + 1) % 3] for i in range(3)
        }
        self.slots = []
        for i in range(3):
            msg = good[i]
            if i not in target:
                msg = (msg + 1) % spec.slot_space  # break both other challenges
            self.slots.append(
                spec.encode(msg, int(rng.integers(2**spec.randomness_bits)))
            )

    def commit(self, ro) -> list[int]:
        return [ro(x) for x in self.slots]

    def respond(self, challenge) -> dict:
        return {i: self.slots[i] for i in challenge}


def online_extract(prover, spec: SigmaSpec, access: AccessStructure, hook,
                   instance, sim: SimulatorS):
    """Run the prover over S.RO, extract on its commitments, then finish the run."""
    commitments = prover.commit(sim.ro_classical)
    if len(commitments) != spec.ell:
        raise ValueError("prover violated the round structure")
    extracted = {}
    for i, a_i in enumerate(commitments):
        out = sim.e_query(a_i)
        extracted[i] = None if out.is_empty else out.value
    witness = None
    openings_hat = {i: spec.decode(x) for i, x in extracted.items() if x is not None}
    s_hat = frozenset(
        idx for idx, c in enumerate(spec.challenges)
        if c <= set(openings_hat) and spec.verify(instance, c, openings_hat)
    )
    if access.member(s_hat):
        witness = hook(spec, instance, extracted)
    challenge_log_index = len(sim.log)
    c_idx = sim.chooser.choose(np.full(len(spec.challenges), 1.0 / len(spec.challenges)))
    challenge = spec.challenges[c_idx]
    openings = prover.respond(challenge)
    ok = all(sim.ro_classical(openings[i]) == commitments[i] for i in challenge)
    accepted = ok and spec.verify(
        instance, challenge, {i: spec.decode(x) for i, x in openings.items()}
    )
    return witness, ExtractTranscript(
        commitments, extracted, challenge, openings, accepted,
        sim.log, challenge_log_index,
    )


def run_real_game(prover, spec: SigmaSpec, instance, chooser, n: int):
    """The prover against the plain lazily-sampled RO (no extraction)."""
    ro = LazyRandomOracle(n, chooser)
    commitments = prover.commit(ro.query)
    c_idx = chooser.choose(np.full(len(spec.challenges), 1.0 / len(spec.challenges)))
    challenge = spec.challenges[c_idx]
    openings = prover.respond(challenge)
    ok = all(ro.query(openings[i]) == commitments[i] for i in challenge)
    return ok and spec.verify(
        instance, challenge, {i: spec.decode(x) for i, x in openings.items()}
    )


def run_sigma_experiment(prover_factory, spec: SigmaSpec, access: AccessStructure,
                         hook, instance_gen, witness_checker, n: int,
                         backend: str = "product", trials: int = 1000,
                         seed: int = 0, exhaustive: bool = False) -> Report:
    """Estimate prover and extractor success and check the extraction theorem.

    Pr[prover] is measured against the real (lazily sampled) RO; Pr[extract]
    in the simulated game.  The report's measured value is Pr[extract] and
    its bound the right-hand side (Pr[prover] - p_triv - epsilon) /
    (1 - p_triv), which Pr[extract] must reach.  The inequality uses the
    simplified epsilon and is flagged vacuous when epsilon >= 1 or the
    right-hand side is not positive.

    With exhaustive=True both probabilities are computed exactly over the
    full oracle/measurement/challenge game tree (the prover's own coins stay
    fixed by the seed so the tree is finite).
    """
    start = time.perf_counter()
    master = np.random.SeedSequence(seed)
    commit = identity_commit(n, spec.domain_size)
    if exhaustive:
        return _run_sigma_exhaustive(prover_factory, spec, access, hook,
                                     instance_gen, witness_checker, n,
                                     backend, master, commit, start)
    seeds = master.spawn(2 * trials)
    p_wins = 0
    e_wins = 0
    q_used = 0
    for k in range(trials):
        s_prover, s_oracle = seeds[2 * k].spawn(2)
        rng = np.random.default_rng(s_prover)
        instance, shares = instance_gen(rng)
        prover = prover_factory(spec, instance, shares, rng)
        chooser = RandomChooser(np.random.default_rng(s_oracle))
        if run_real_game(prover, spec, instance, chooser, n):
            p_wins += 1
        s_prover2, s_oracle2 = seeds[2 * k + 1].spawn(2)
        rng2 = np.random.default_rng(s_prover2)
        instance2, shares2 = instance_gen(rng2)
        prover2 = prover_factory(spec, instance2, shares2, rng2)
        sim = SimulatorS(commit, backend=backend, seed=s_oracle2)
        witness, transcript = online_extract(prover2, spec, access, hook,
                                             instance2, sim)
        q_used = max(q_used, sum(
            1 for e in transcript.log[:transcript.challenge_log_index]
            if e["interface"] == "RO"
        ))
        if witness is not None and witness_checker(instance2, witness):
            e_wins += 1
    p_prover = p_wins / trials
    p_extract = e_wins / trials
    return _sigma_report(spec, access, n, backend, p_prover, p_extract,
                         q_used, trials, start,
                         mc_slack=3.0 * np.sqrt(0.25 / trials))


def _run_sigma_exhaustive(prover_factory, spec, access, hook, instance_gen,
                          witness_checker, n, backend, master, commit, start):
    from qrolab.branching import enumerate_paths

    s_prover, _ = master.spawn(2)
    rng0 = np.random.default_rng(s_prover)
    instance, shares = instance_gen(rng0)
    coin_seed = np.random.default_rng(s_prover).integers(2**32)

    def mk_prover():
        return prover_factory(spec, instance, shares,
                              np.random.default_rng(coin_seed))

    def run_real(ch):
        return run_real_game(mk_prover(), spec, instance, ch, n)

    p_prover = sum(p for p, win in enumerate_paths(run_real) if win)
    q_box = [0]

    def run_sim(ch):
        sim = SimulatorS(commit, backend=backend, chooser=ch)
        witness, transcript = online_extract(mk_prover(), spec, access, hook,
                                             instance, sim)
        q_box[0] = max(q_box[0], sum(
            1 for e in transcript.log[:transcript.challenge_log_index]
            if e["interface"] == "RO"
        ))
        return witness is not None and witness_checker(instance, witness)

    p_extract = sum(p for p, win in enumerate_paths(run_sim) if win)
    return _sigma_report(spec, access, n, backend, float(p_prover),
                         float(p_extract), q_box[0], 0, start, mc_slack=0.0)


def _sigma_report(spec, access, n, backend, p_prover, p_extract, q_used,
                  trials, start, mc_slack):
    ptriv = p_trivial(spec, access)
    eps = epsilon_simplified(spec.ell, q_used, n)
    eps_exact = epsilon_exact(spec.ell, q_used, n)
    rhs = (p_prover - float(ptriv) - eps) / (1.0 - float(ptriv))
    vacuous = eps >= 1.0 or rhs <= 0.0
    satisfied = vacuous or p_extract >= rhs - mc_slack
    ms = (time.perf_counter() - start) * 1000.0
    return Report(
        "sigma-extraction",
        dict(n=n, ell=spec.ell, q=q_used, spec=spec.name,
             access=access.name, backend=backend, trials=trials,
             mode="exhaustive" if trials == 0 else "monte-carlo"),
        p_extract, rhs, satisfied=satisfied, vacuous=vacuous, runtime_ms=ms,
        stats=dict(p_prover=p_prover, p_triv=str(ptriv), epsilon=eps,
                   epsilon_exact=eps_exact),
    )
