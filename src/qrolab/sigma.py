"""Commit-and-open sigma protocols: soundness structures, trivial attacks,
and the online witness extractor.

Challenges are subsets of the slot indices [0, ell); an access structure is a
monotone family of subsets of the challenge LIST (by index).  Commitments are
a_i = H(x_i) with x_i = message || randomness, so the extractor runs the
RO-simulator with the identity commit function f(x, h) = h.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import Report, timed
from .branching import RandomChooser, enumerate_paths
from .oracle import LazyRandomOracle
from .relations import identity_commit
from .simulator import SimulatorS


# -- access structures -------------------------------------------------------------


@dataclass(frozen=True)
class AccessStructure:
    """Monotone increasing family of subsets of range(num_challenges)."""

    num_challenges: int
    member_fn: object
    name: str = "custom"

    def member(self, s) -> bool:
        return bool(self.member_fn(frozenset(s)))


def threshold_structure(k: int, num_challenges: int) -> AccessStructure:
    """T_k: all challenge sets of size at least k."""
    return AccessStructure(num_challenges, lambda s: len(s) >= k, f"T{k}")


def max_nonmember_size(access: AccessStructure) -> int:
    """Largest |S| with S outside the structure: every size from nc down,
    stopping at the first size that has a non-member."""
    nc = access.num_challenges
    if nc > 20:
        raise ValueError("challenge space too large for exhaustive search")
    for size in range(nc, -1, -1):
        for s in itertools.combinations(range(nc), size):
            if not access.member(frozenset(s)):
                return size
    return 0


# -- sigma protocol specification -----------------------------------------------------


@dataclass
class SigmaSpec:
    """Declarative commit-and-open protocol description."""

    ell: int
    challenges: tuple            # tuple of frozensets of slot indices
    randomness_bits: int
    slot_space: int              # number of distinct slot messages
    verifier: object             # (instance, challenge, {slot: message}) -> bool
    name: str = "sigma"

    def __post_init__(self):
        self.challenges = tuple(frozenset(c) for c in self.challenges)
        if not self.challenges:
            raise ValueError("challenge set must be non-empty")
        slots = frozenset(range(self.ell))
        for c in self.challenges:
            if not c <= slots:
                raise ValueError(f"challenge {sorted(c)} lists a slot outside "
                                 f"slot range 0..{self.ell - 1}")
        if frozenset().union(*self.challenges) != slots:
            raise ValueError("challenges must cover every slot")

    @property
    def domain_size(self) -> int:
        return self.slot_space * 2**self.randomness_bits

    def encode(self, message: int, r: int) -> int:
        return message * 2**self.randomness_bits + r

    def decode(self, x: int) -> int:
        return x >> self.randomness_bits

    def verify(self, instance, challenge, openings: dict) -> bool:
        return bool(self.verifier(instance, challenge, openings))


def p_trivial(spec: SigmaSpec, access: AccessStructure) -> Fraction:
    """(1/|C|) max_{S not in the structure} |S|."""
    return Fraction(max_nonmember_size(access), len(spec.challenges))


def p_trivial_parallel(spec: SigmaSpec, access: AccessStructure, r: int) -> Fraction:
    """p_triv of the r-fold parallel repetition.

    A subset of C^r lies outside the product structure iff every marginal is
    a non-member, so the maximal one is a product of maximal per-position
    non-members; the search therefore reduces to per-position searches.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    per_position = max_nonmember_size(access)
    return Fraction(per_position**r, len(spec.challenges) ** r)


# -- the bundled toy protocol -----------------------------------------------------------


def xor_shares_verifier(share_bits: int):
    """Slot i opens (s_i, s_{i+1 mod 3}); a challenge {i, j} checks overlap
    consistency and that the three recovered shares XOR to the instance."""
    mask = 2**share_bits - 1

    def split(msg: int) -> tuple[int, int]:
        return (msg >> share_bits) & mask, msg & mask

    def verify(instance, challenge, openings) -> bool:
        c = sorted(challenge)
        if len(c) != 2:
            return False
        shares: dict[int, int] = {}
        for i in challenge:
            a, b = split(openings[i])
            for idx, val in ((i, a), ((i + 1) % 3, b)):
                if idx in shares and shares[idx] != val:
                    return False
                shares[idx] = val
        if len(shares) != 3:
            return False
        return shares[0] ^ shares[1] ^ shares[2] == instance

    return verify


def xor_toy_spec(share_bits: int = 2, randomness_bits: int = 16) -> SigmaSpec:
    return SigmaSpec(
        ell=3,
        challenges=(frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
        randomness_bits=randomness_bits,
        slot_space=2 ** (2 * share_bits),
        verifier=xor_shares_verifier(share_bits),
        name=f"xor-2of3-k{share_bits}-r{randomness_bits}",
    )


def xor_toy_hook(share_bits: int):
    """S-sound* witness extractor: V-scan, then recover shares from any
    verified challenge; returns the share triple or None."""
    mask = 2**share_bits - 1

    def hook(spec: SigmaSpec, instance, extracted: dict):
        verified = verified_challenges(spec, instance, extracted)
        if not verified:
            return None
        shares: dict[int, int] = {}
        for i in spec.challenges[verified[0]]:
            msg = spec.decode(extracted[i])
            shares[i] = (msg >> share_bits) & mask
            shares[(i + 1) % 3] = msg & mask
        return (shares[0], shares[1], shares[2])

    return hook


def xor_witness_checker(instance, witness) -> bool:
    return witness is not None and witness[0] ^ witness[1] ^ witness[2] == instance


def xor_instance_gen(share_bits: int):
    def gen(rng: np.random.Generator):
        shares = tuple(int(rng.integers(2**share_bits)) for _ in range(3))
        return shares[0] ^ shares[1] ^ shares[2], shares

    return gen


class HonestProver:
    """Commits to a fresh 3-share split of the witness instance."""

    def __init__(self, spec: SigmaSpec, instance, witness_shares, rng,
                 share_bits: int):
        self.spec = spec
        self.share_bits = share_bits
        s = list(witness_shares)
        self.slots = [
            spec.encode(self.message(i, (s[i] << share_bits) | s[(i + 1) % 3]),
                        int(rng.integers(2**spec.randomness_bits)))
            for i in range(3)
        ]

    def message(self, slot: int, honest: int) -> int:
        """The message committed in slot, given the honest one."""
        return honest

    def commit(self, ro) -> list[int]:
        return [ro(x) for x in self.slots]

    def respond(self, challenge) -> dict:
        return {i: self.slots[i] for i in challenge}


class TrivialAttackProver(HonestProver):
    """Answers exactly the first challenge: every slot outside it is broken,
    which breaks both other challenges."""

    def message(self, slot: int, honest: int) -> int:
        if slot in self.spec.challenges[0]:
            return honest
        return (honest + 1) % self.spec.slot_space


class NoCommitProver:
    """Sends garbage commitments without ever querying the oracle."""

    def __init__(self, spec: SigmaSpec, *_a, **_k):
        self.spec = spec

    def commit(self, ro) -> list[int]:
        return [i % 2**16 for i in range(self.spec.ell)]

    def respond(self, challenge) -> dict:
        return {i: 0 for i in challenge}


# -- online extraction ---------------------------------------------------------------


@dataclass
class ExtractTranscript:
    commitments: list
    extracted: dict
    challenge: object
    openings: dict
    accepted: bool
    log: list
    challenge_log_index: int

    @property
    def ro_queries(self) -> int:
        """The S.RO queries made before the challenge."""
        return sum(1 for e in self.log[:self.challenge_log_index]
                   if e["interface"] == "RO")


def verified_challenges(spec: SigmaSpec, instance, extracted: dict) -> list[int]:
    """Indices of the challenges whose slots were all extracted and whose
    decoded openings verify."""
    openings = {i: spec.decode(x) for i, x in extracted.items() if x is not None}
    return [idx for idx, c in enumerate(spec.challenges)
            if c <= set(openings) and spec.verify(instance, c, openings)]


def _challenge_round(prover, spec: SigmaSpec, instance, commitments, ro, chooser):
    """A uniform challenge and the prover's openings; the verifier accepts
    iff every opened slot hashes to its commitment under ro and spec.verify
    passes on the decoded openings."""
    c_idx = chooser.choose(np.full(len(spec.challenges), 1.0 / len(spec.challenges)))
    challenge = spec.challenges[c_idx]
    openings = prover.respond(challenge)
    accepted = all(ro(openings[i]) == commitments[i] for i in challenge) and (
        spec.verify(instance, challenge, {i: spec.decode(x) for i, x in openings.items()}))
    return challenge, openings, accepted


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
    if access.member(verified_challenges(spec, instance, extracted)):
        witness = hook(spec, instance, extracted)
    challenge_log_index = len(sim.log)
    challenge, openings, accepted = _challenge_round(
        prover, spec, instance, commitments, sim.ro_classical, sim.chooser)
    return witness, ExtractTranscript(
        commitments, extracted, challenge, openings, accepted,
        sim.log, challenge_log_index,
    )


def run_real_game(prover, spec: SigmaSpec, instance, chooser, n: int):
    """The prover against the plain lazily-sampled RO (no extraction)."""
    ro = LazyRandomOracle(n, chooser)
    commitments = prover.commit(ro.query)
    return _challenge_round(prover, spec, instance, commitments, ro.query, chooser)[2]


def epsilon_simplified(ell: int, q: int, n: int) -> float:
    return 34.0 * ell * q / np.sqrt(2.0**n) + 2365.0 * q**3 / 2.0**n


def epsilon_exact(ell: int, q: int, n: int) -> float:
    """The extraction error for the identity commitment, whose Gamma' is 1."""
    return (8.0 * np.sqrt(2.0) * ell * (2 * q + ell + 1) / np.sqrt(2.0**n)
            + (40.0 * np.e**2 * (q + ell + 1) ** 3 + 2.0) / 2.0**n)


def run_sigma_experiment(prover_factory, spec: SigmaSpec, access: AccessStructure,
                         hook, instance_gen, witness_checker, n: int,
                         trials: int = 1000, seed: int = 0,
                         exhaustive: bool = False) -> Report:
    """Estimate prover and extractor success and check the extraction theorem.

    Pr[prover] is measured against the real (lazily sampled) RO; Pr[extract]
    in the simulated game, whose SimulatorS runs on the product backend.
    The report's measured value is Pr[extract] and its bound the right-hand
    side (Pr[prover] - p_triv - epsilon) / (1 - p_triv), which Pr[extract]
    must reach.  The inequality uses the simplified epsilon and is flagged
    vacuous when epsilon >= 1 or the right-hand side is not positive.

    Each game is one trial function of (instance, prover, chooser).  The
    Monte-Carlo mode runs it once per trial on a RandomChooser, the real game
    on seeds[2k] and the simulated one on seeds[2k + 1].  With
    exhaustive=True, enumerate_paths walks the same functions over the full
    oracle/measurement/challenge game tree, so both probabilities are exact
    (the prover's own coins stay fixed by the seed so the tree is finite).
    """
    master = np.random.SeedSequence(seed)
    commit = identity_commit(n, spec.domain_size)
    q_used = 0

    def real(instance, prover, chooser) -> bool:
        return run_real_game(prover, spec, instance, chooser, n)

    def simulated(instance, prover, chooser) -> bool:
        nonlocal q_used
        sim = SimulatorS(commit, backend="product", chooser=chooser)
        witness, transcript = online_extract(prover, spec, access, hook, instance, sim)
        q_used = max(q_used, transcript.ro_queries)
        return witness is not None and witness_checker(instance, witness)

    if exhaustive:
        trials = 0
        s_prover, _ = master.spawn(2)
        instance, shares = instance_gen(np.random.default_rng(s_prover))
        coin_seed = np.random.default_rng(s_prover).integers(2**32)

        def probability(game, _parity) -> float:
            def run(ch):
                prover = prover_factory(spec, instance, shares,
                                        np.random.default_rng(coin_seed))
                return game(instance, prover, ch)
            return float(sum(p for p, won in enumerate_paths(run) if won))
    else:
        seeds = master.spawn(2 * trials)

        def probability(game, parity) -> float:
            wins = 0
            for k in range(trials):
                s_prover, s_oracle = seeds[2 * k + parity].spawn(2)
                rng = np.random.default_rng(s_prover)
                instance, shares = instance_gen(rng)
                prover = prover_factory(spec, instance, shares, rng)
                if game(instance, prover, RandomChooser(np.random.default_rng(s_oracle))):
                    wins += 1
            return wins / trials

    (p_prover, p_extract), ms = timed(
        lambda: (probability(real, 0), probability(simulated, 1)))
    ptriv = p_trivial(spec, access)
    eps = epsilon_simplified(spec.ell, q_used, n)
    rhs = (p_prover - float(ptriv) - eps) / (1.0 - float(ptriv))
    vacuous = eps >= 1.0 or rhs <= 0.0
    mc_slack = 3.0 * np.sqrt(0.25 / trials) if trials else 0.0
    return Report(
        "sigma-extraction",
        dict(n=n, ell=spec.ell, q=q_used, spec=spec.name,
             access=access.name, backend="product", trials=trials,
             mode="exhaustive" if exhaustive else "monte-carlo"),
        p_extract, rhs, satisfied=vacuous or p_extract >= rhs - mc_slack,
        vacuous=vacuous, runtime_ms=ms,
        stats=dict(p_prover=p_prover, p_triv=str(ptriv), epsilon=eps,
                   epsilon_exact=epsilon_exact(spec.ell, q_used, n)),
    )
