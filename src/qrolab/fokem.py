"""Textbook FO transformation over table-based toy PKEs.

The toy scheme's key generation builds a public random injective table
cipher[m][r]; the secret key is the first-coordinate inverse.  That makes
every quantity the harness needs (delta-correctness, gamma-spreadness,
Gamma(f), Gamma'(f) of the derandomized encryption) analytically
controllable, with planted faults available for the nonzero-delta and
constant-ciphertext variants.

H and G are realized as two independent oracle instances with disjoint
seeds; only H is ever extracted.

backend_agreement_experiment walks each IND-CCA game tree once, with
branching.enumerate_paths from a dense SimulatorS root.  The walk's node
answers every oracle call of the game (a coin, S.RO, S.E, or a fresh G value,
drawn as a coin): a re-run answers its path's calls from the script, with no
dense work, and each call past it is split once.  A coin's children share
the node's simulator, which is never mutated once made; an S.RO query is
evolved once and sliced per response (SimulatorS.ro_branches); an S.E query
runs once per outcome on a SimulatorS.fork copy (branching.replayed).  The
sibling subtrees of a coin make the same calls on the same simulator, and
the walk's memo answers the repeats, so dense operations run once per
distinct (state, step) of a walk, never per edge, leaf or depth.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import Report, timed
from .branching import distribution, enumerate_paths
from .linalg import total_variation
from .oracle import LazyRandomOracle
from .relations import CommitFunction
from .simulator import SimulatorS


class DecapsGuardError(RuntimeError):
    """The adversary queried the challenge ciphertext to Decaps."""


class Tripwire:
    """Stand-in for a withheld secret key: any use raises immediately."""

    def _trip(self, *_a, **_k):
        raise AssertionError("secret key was accessed on a no-sk code path")

    __getattr__ = __getitem__ = __call__ = _trip


@dataclass
class PKESpec:
    """Toy public-key encryption over finite spaces with enumerable keys."""

    num_messages: int
    randomness_bits: int
    num_keys: int
    name: str
    _tables: list  # per key: table[m][r] -> ciphertext
    ct_space: int = 0  # 0: exactly the table size

    @property
    def num_random(self) -> int:
        return 2**self.randomness_bits

    @property
    def ciphertext_space(self) -> range:
        return range(self.ct_space or self.num_messages * self.num_random)

    def gen(self, key_index: int):
        """(sk, pk): pk is the public table, sk the first-match inverse."""
        table = self._tables[key_index % self.num_keys]
        inverse: dict[int, int] = {}
        for m in range(self.num_messages):
            for r in range(self.num_random):
                inverse.setdefault(table[m][r], m)
        return inverse, table

    def enc(self, pk, m: int, r: int) -> int:
        return pk[m][r]

    def dec(self, sk, c: int):
        return sk.get(c)

    def enc_commit(self, pk) -> CommitFunction:
        """The derandomized encryption as a commit function f(m, r)."""
        return CommitFunction(
            self.randomness_bits, self.num_messages,
            lambda m, r: pk[m][r],
            t_values=self.ciphertext_space,
            name=f"enc[{self.name}]",
        )


def toy_pke(num_messages: int, randomness_bits: int, seed: int = 0,
            num_keys: int = 1, faulty_cells: int = 0,
            constant_ct_message: bool = False) -> PKESpec:
    """Random injective tables; optional planted faults on key 0.

    The ciphertext space is twice the table size, so garbage
    ciphertexts outside the image exist.  faulty_cells > 0 copies that many
    ciphertexts from message 0 into message 1 cells (collisions => decryption
    errors, Gamma' > 0).  constant_ct_message makes message 0 of key 0
    encrypt to a single ciphertext.
    """
    nr = 2**randomness_bits
    size = num_messages * nr
    ct_space = 2 * size
    tables = []
    for k in range(num_keys):
        rng = np.random.default_rng([seed, k])
        perm = rng.permutation(ct_space)
        table = [[int(perm[m * nr + r]) for r in range(nr)]
                 for m in range(num_messages)]
        if k == 0 and faulty_cells:
            if num_messages < 2 or faulty_cells > nr:
                raise ValueError("cannot plant that many faults")
            for j in range(faulty_cells):
                table[1][j] = table[0][j]
        if k == 0 and constant_ct_message:
            table[0] = [table[0][0]] * nr
        tables.append(table)
    return PKESpec(
        num_messages, randomness_bits, num_keys,
        f"toy-m{num_messages}-n{randomness_bits}-s{seed}"
        + ("-faulty" if faulty_cells else "")
        + ("-constct" if constant_ct_message else ""),
        tables, ct_space,
    )


def first_non_image_ciphertext(pke: PKESpec) -> int:
    """The smallest ciphertext that key 0 never produces."""
    _, pk = pke.gen(0)
    image = {c for row in pk for c in row}
    for c in pke.ciphertext_space:
        if c not in image:
            return c
    raise ValueError("ciphertext space has no garbage values")


def wrong_randomness_adversary(probes=(0, 1)):
    """Submits candidate encryptions under shifted randomness: the
    re-encryption check must reject every one of them."""

    def adversary(pk, c_star, k_b, decaps, ro_h, ro_g, chooser):
        nr = len(pk[0])
        rejected = 0
        for m in probes:
            c = pk[m][(ro_h(m) + 1) % nr]
            if c == c_star:
                return chooser.choose_uniform(2)
            if decaps(c) is None:
                rejected += 1
        return 1 if rejected == len(probes) else 0

    return adversary


# -- estimators ------------------------------------------------------------------


def delta_correctness_estimate(pke: PKESpec) -> Fraction:
    """E over keygen of max_m Pr_r[Dec(Enc(m; r)) != m], exhaustively."""
    total = Fraction(0)
    for k in range(pke.num_keys):
        sk, pk = pke.gen(k)
        worst = Fraction(0)
        for m in range(pke.num_messages):
            errors = sum(
                1 for r in range(pke.num_random)
                if pke.dec(sk, pke.enc(pk, m, r)) != m
            )
            worst = max(worst, Fraction(errors, pke.num_random))
        total += worst
    return total / pke.num_keys


def gamma_spread_estimate(pke: PKESpec, mode: str = "strict") -> float:
    """Ciphertext min-entropy: worst-case, or averaged inside the log."""
    if mode not in ("strict", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    worst = []  # per key: the largest probability of one ciphertext of one message
    for k in range(pke.num_keys):
        _, pk = pke.gen(k)
        worst.append(max(
            max(Counter(pke.enc(pk, m, r) for r in range(pke.num_random)).values())
            for m in range(pke.num_messages)) / pke.num_random)
    return float(-np.log2(max(worst) if mode == "strict" else sum(worst) / pke.num_keys))


# -- the KEM ---------------------------------------------------------------------


def fo_encaps(pke: PKESpec, pk, h_query, g_query, chooser):
    """(K, c, m): m uniform, c = Enc(m; H(m)), K = G(m)."""
    m = chooser.choose_uniform(pke.num_messages)
    r = h_query(m)
    c = pke.enc(pk, m, r)
    return g_query(m), c, m

def fo_decaps(pke: PKESpec, sk, pk, c, h_query, g_query):
    """Textbook decapsulation with re-encryption check and explicit rejection."""
    m = pke.dec(sk, c)
    if m is None:
        return None
    if pke.enc(pk, m, h_query(m)) != c:
        return None
    return g_query(m)


def simulated_decaps(pke: PKESpec, sim: SimulatorS, g_query, c):
    """Extraction-based decapsulation: no secret key on this code path."""
    m_hat = sim.e_query(c)
    if m_hat.is_empty:
        return None
    return g_query(m_hat.value)


# -- games -------------------------------------------------------------------------


def indcca_game(pke: PKESpec, adversary, backend: str, chooser, key_bits: int = 2,
                keep_ro_query: bool = True, collect=None,
                trace: list | None = None, sim=None) -> bool:
    """One IND-CCA-KEM run under key 0; backend selects real or extraction
    decapsulation.

    sim answers H (S.RO) and extraction (S.E): a fresh dense SimulatorS that
    draws through chooser unless one is given, as the game-tree walk gives
    its node, which answers both.  With backend='simulated-decaps' and
    keep_ro_query=False the decapsulation closure receives a Tripwire in
    place of the secret key.  When a trace list is supplied, every Decaps
    call is appended to it (H and G calls are recorded in the simulator log
    and the G table).  collect(answers, b_prime) receives the observable.
    """
    if backend not in ("real-decaps", "simulated-decaps"):
        raise ValueError(f"unknown backend {backend!r}")
    sk, pk = pke.gen(0)
    if sim is None:
        sim = SimulatorS(pke.enc_commit(pk), backend="dense", chooser=chooser)
    g_oracle = LazyRandomOracle(key_bits, chooser)
    b = chooser.choose_uniform(2)
    k0, c_star, _ = fo_encaps(pke, pk, sim.ro_classical, g_oracle.query, chooser)
    k1 = chooser.choose_uniform(2**key_bits)
    k_b = k0 if b == 0 else k1

    sk_for_decaps = sk
    if backend == "simulated-decaps" and not keep_ro_query:
        sk_for_decaps = Tripwire()
    answers: list = []

    def decaps(c):
        if c == c_star:
            raise DecapsGuardError("adversary queried the challenge ciphertext")
        if backend == "real-decaps":
            out = fo_decaps(pke, sk_for_decaps, pk, c, sim.ro_classical,
                            g_oracle.query)
        else:
            if keep_ro_query:
                m = pke.dec(sk_for_decaps, c)
                if m is not None:
                    sim.ro_classical(m)
            out = simulated_decaps(pke, sim, g_oracle.query, c)
        answers.append(out)
        if trace is not None:
            trace.append({"call": "decaps", "backend": backend,
                          "input": int(c), "output": out})
        return out

    b_prime = adversary(pk, c_star, k_b, decaps, sim.ro_classical,
                        g_oracle.query, chooser)
    if trace is not None:
        trace.extend(sim.log)
    if collect is not None:
        collect(tuple(answers), b_prime)
    return b_prime == b


def ow_cpa_game(pke: PKESpec, adversary, chooser) -> bool:
    """One OW-CPA run under key 0: random message, honestly randomized encryption."""
    _, pk = pke.gen(0)
    m_star = chooser.choose_uniform(pke.num_messages)
    r = chooser.choose_uniform(pke.num_random)
    c_star = pke.enc(pk, m_star, r)
    return adversary(pk, c_star, chooser) == m_star


# -- backend agreement --------------------------------------------------------------


def backend_agreement_experiment(pke: PKESpec, adversary,
                                 keep_ro_query: bool = True,
                                 key_bits: int = 2) -> Report:
    """TV between real and extraction decapsulation on the exhaustive game tree.

    The observable is (all Decaps answers, adversary output); the budget sums
    the per-decaps disagreement terms (2 2^-n Gamma(f) + 2 2^-n) and one
    almost-commutation term 8 sqrt(2 Gamma(f)/2^n) per extraction query that
    precedes a later RO query in the run.  The report measures the TV
    against the budget; stats hold q_d (Decaps queries), swaps (E-before-RO
    pairs), and, summed over both backends, leaves (terminal games), steps
    (oracle-call outcomes, the tree's edges) and splits (the distinct dense
    splits computed, the size of the walk's memo).  Each tree is walked once,
    splitting the game's simulator per oracle call (see the module
    docstring); enumerate_paths checks that its leaves carry mass 1 within
    ATOL.
    """
    _, pk = pke.gen(0)
    f = pke.enc_commit(pk)
    stats = {"q_d": 0, "swaps": 0, "leaves": 0, "steps": 0, "splits": 0}
    splits = {}

    def walk(backend):
        def run(ch):
            seen = {}

            def collect(answers, b_prime):
                seen["row"] = (answers, b_prime)
                if backend == "simulated-decaps":
                    log = ch.state.log  # the leaf's simulator
                    e_idx = [i for i, e in enumerate(log) if e["interface"] == "E"]
                    ro_idx = [i for i, e in enumerate(log) if e["interface"] == "RO"]
                    swaps = sum(
                        sum(1 for j in ro_idx if j > i) for i in e_idx
                    )
                    stats["swaps"] = max(stats["swaps"], swaps)
                    stats["q_d"] = max(stats["q_d"], len(answers))

            indcca_game(pke, adversary, backend, ch, key_bits=key_bits,
                        keep_ro_query=keep_ro_query, collect=collect, sim=ch)
            stats["steps"] += ch.edges
            splits[backend] = len(ch.memo)  # the walk's memo, so far
            return seen["row"]

        leaves = enumerate_paths(run, SimulatorS(f, backend="dense"))
        stats["leaves"] += len(leaves)
        stats["splits"] += splits[backend]
        return distribution(leaves)

    dists, ms = timed(lambda: {b: walk(b) for b in ("real-decaps", "simulated-decaps")})
    tv = total_variation(dists["real-decaps"], dists["simulated-decaps"])
    n = pke.randomness_bits
    per_decaps = 2.0 * f.gamma / 2.0**n + 2.0 / 2.0**n
    budget = stats["q_d"] * per_decaps + stats["swaps"] * 8.0 * np.sqrt(
        2.0 * f.gamma / 2.0**n
    )
    return Report(
        "agreement",
        dict(pke=pke.name, n=n, M=pke.num_messages, gamma=f.gamma,
             keep_ro_query=keep_ro_query),
        tv, float(budget), runtime_ms=ms, stats=stats,
    )


# -- bundled adversaries ---------------------------------------------------------------


def coin_guess_adversary(pk, c_star, k_b, decaps, ro_h, ro_g, chooser):
    return chooser.choose_uniform(2)


def key_checking_adversary(probe_messages=(0, 1), q_d: int = 2):
    """Classical CCA distinguisher: re-encrypts candidate messages, uses
    Decaps on honestly formed non-challenge ciphertexts, and tests K_b
    against G of the candidates.  Kept narrow so exhaustive game trees stay
    small: only the listed messages are probed."""

    def adversary(pk, c_star, k_b, decaps, ro_h, ro_g, chooser):
        used = 0
        for m in probe_messages:
            r = ro_h(m)
            c = pk[m][r]
            if c == c_star:
                return 0 if k_b == ro_g(m) else 1
            if used < q_d:
                used += 1
                k = decaps(c)
                if k is not None and k != ro_g(m):
                    return 1
        return chooser.choose_uniform(2)

    return adversary


def garbage_decaps_adversary(invalid_c: int):
    """Decapsulates one ciphertext outside pk's image; raises ValueError if
    invalid_c is a valid encryption (c_star always is, so never queried)."""

    def adversary(pk, c_star, k_b, decaps, ro_h, ro_g, chooser):
        if any(invalid_c in row for row in pk):
            raise ValueError(f"ciphertext {invalid_c} is in the image of pk")
        return 1 if decaps(invalid_c) is None else 0

    return adversary


def guessing_ow_adversary(pk, c_star, chooser):
    return chooser.choose_uniform(len(pk))
