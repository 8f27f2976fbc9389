"""FO-KEM tests: estimators, games, backend agreement, and the sk tripwire."""

from fractions import Fraction

import numpy as np
import pytest

from qrolab.branching import RandomChooser, enumerate_paths
from qrolab.config import ATOL
from qrolab.fokem import (
    DecapsGuardError,
    Tripwire,
    backend_agreement_experiment,
    coin_guess_adversary,
    delta_correctness_estimate,
    first_non_image_ciphertext,
    fo_decaps,
    fo_encaps,
    gamma_spread_estimate,
    garbage_decaps_adversary,
    guessing_ow_adversary,
    indcca_game,
    key_checking_adversary,
    ow_cpa_game,
    simulated_decaps,
    toy_pke,
    wrong_randomness_adversary,
)
from qrolab.oracle import LazyRandomOracle
from qrolab.relations import gamma_of_f, gamma_prime_of_f
from qrolab.simulator import SimulatorS

PKE = toy_pke(3, 2, seed=5)
PKE22 = toy_pke(2, 2, seed=5)


class TestToyPke:
    def test_honest_injective_round_trip(self):
        sk, pk = PKE.gen(0)
        for m in range(3):
            for r in range(4):
                assert PKE.dec(sk, PKE.enc(pk, m, r)) == m

    def test_gamma_values_of_enc_commit(self):
        _, pk = PKE.gen(0)
        f = PKE.enc_commit(pk)
        assert f.gamma == 1 and f.gamma_prime == 0
        assert gamma_of_f(f.fn, range(f.m), f.n) == 1
        assert gamma_prime_of_f(f.fn, range(f.m), f.n) == 0

    def test_faulty_variant_plants_collision(self):
        faulty = toy_pke(3, 2, seed=5, faulty_cells=1)
        _, pk = faulty.gen(0)
        f = faulty.enc_commit(pk)
        assert f.gamma_prime >= 1
        assert delta_correctness_estimate(faulty) == Fraction(1, 4)

    def test_delta_always_failing(self):
        # copying every message-0 ciphertext into message 1 makes message 1
        # undecryptable for all r: max_m errors_m / 2^n = 1
        broken = toy_pke(2, 1, seed=1, faulty_cells=2)
        assert delta_correctness_estimate(broken) == 1

    def test_simulated_agrees_with_real_decaps_within_budget(self):
        # honest-encryption ciphertexts: the two decapsulations disagree
        # with probability at most the 4.a + 4.b budget per query
        pke = PKE22
        sk, pk = pke.gen(0)
        f = pke.enc_commit(pk)

        def run(ch):
            sim = SimulatorS(f, backend="dense", chooser=ch)
            g = LazyRandomOracle(1, ch)
            m = 1
            c = pke.enc(pk, m, sim.ro_classical(m))
            real = fo_decaps(pke, sk, pk, c, sim.ro_classical, g.query)
            simu = simulated_decaps(pke, sim, g.query, c)
            return real != simu

        disagree = sum(p for p, bad in enumerate_paths(run) if bad)
        n = pke.randomness_bits
        assert disagree <= 2 * 2.0**-n * f.gamma + 2 * 2.0**-n + ATOL

    def test_unrelated_ciphertext_rejected_whp(self):
        # extraction of a ciphertext never tied to any query: empty outcome
        # with probability >= 1 - 128 q^2 Gamma_R / 2^n
        pke = PKE22
        _, pk = pke.gen(0)
        f = pke.enc_commit(pk)
        target = pke.enc(pk, 0, 3)

        def run(ch):
            sim = SimulatorS(f, backend="dense", chooser=ch)
            sim.ro_classical(1)  # unrelated query
            g = LazyRandomOracle(1, ch)
            return simulated_decaps(pke, sim, g.query, target) is None

        p_reject = sum(p for p, rej in enumerate_paths(run) if rej)
        gamma_r = 1  # relation {(m, r): Enc(m, r) = target} has Gamma = 1
        bound = 128 * 1**2 * gamma_r / 2.0**pke.randomness_bits
        assert p_reject >= 1 - bound - ATOL  # vacuous at n=2, but exact value recorded
        assert p_reject >= 0.75  # the sharp fact at these sizes

    def test_gamma_spread_modes(self):
        assert gamma_spread_estimate(PKE, "strict") == 2.0
        assert gamma_spread_estimate(PKE, "weak") == 2.0
        const = toy_pke(3, 2, seed=5, num_keys=4, constant_ct_message=True)
        assert gamma_spread_estimate(const, "strict") == 0.0
        assert gamma_spread_estimate(const, "weak") > 0.0
        deterministic = toy_pke(3, 0, seed=5)
        assert gamma_spread_estimate(deterministic, "strict") == 0.0

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            gamma_spread_estimate(PKE, "nope")


class TestEncapsDecaps:
    def _stack(self, seed):
        sk, pk = PKE.gen(0)
        ch = RandomChooser(seed)
        sim = SimulatorS(PKE.enc_commit(pk), backend="dense", chooser=ch)
        g = LazyRandomOracle(2, ch)
        return sk, pk, ch, sim, g

    def test_honest_round_trip(self):
        sk, pk, ch, sim, g = self._stack(0)
        key, c, m = fo_encaps(PKE, pk, sim.ro_classical, g.query, ch)
        assert fo_decaps(PKE, sk, pk, c, sim.ro_classical, g.query) == key

    def test_derandomized_reencryption(self):
        sk, pk, ch, sim, g = self._stack(1)
        r = sim.ro_classical(1)
        c1 = PKE.enc(pk, 1, sim.ro_classical(1))
        c2 = PKE.enc(pk, 1, sim.ro_classical(1))
        assert c1 == c2  # H is idempotent on classical queries

    def test_wrong_randomness_rejected(self):
        sk, pk, ch, sim, g = self._stack(2)
        r = sim.ro_classical(0)
        c = PKE.enc(pk, 0, (r + 1) % PKE.num_random)
        assert fo_decaps(PKE, sk, pk, c, sim.ro_classical, g.query) is None

    def test_garbage_rejected(self):
        sk, pk, ch, sim, g = self._stack(3)
        c = first_non_image_ciphertext(PKE)
        assert fo_decaps(PKE, sk, pk, c, sim.ro_classical, g.query) is None
        assert simulated_decaps(PKE, sim, g.query, c) is None

    def test_fresh_simulator_rejects_everything(self):
        sk, pk, ch, sim, g = self._stack(4)
        for c in list(PKE.ciphertext_space)[:5]:
            assert simulated_decaps(PKE, sim, g.query, c) is None


class TestCiphertextDistribution:
    def test_max_probability_matches_gamma(self):
        # exhaustive over r: the largest ciphertext probability is 2^-gamma
        gamma = gamma_spread_estimate(PKE, "strict")
        _, pk = PKE.gen(0)
        worst = 0.0
        for m in range(PKE.num_messages):
            counts = {}
            for r in range(PKE.num_random):
                c = PKE.enc(pk, m, r)
                counts[c] = counts.get(c, 0) + 1
            worst = max(worst, max(counts.values()) / PKE.num_random)
        assert abs(worst - 2.0**-gamma) <= ATOL


class TestGames:
    def test_challenge_guard(self):
        def naughty(pk, c_star, k_b, decaps, ro_h, ro_g, chooser):
            decaps(c_star)
            return 0

        with pytest.raises(DecapsGuardError):
            indcca_game(PKE22, naughty, "real-decaps", RandomChooser(0))

    def test_coin_guess_wins_half(self):
        rng = np.random.default_rng(0)
        wins = sum(
            indcca_game(PKE22, coin_guess_adversary, "real-decaps",
                        RandomChooser(rng), key_bits=1)
            for _ in range(3000)
        )
        assert abs(wins / 3000 - 0.5) <= 3 * np.sqrt(0.25 / 3000)

    def test_ow_cpa_guessing_rate_exact(self):
        paths = enumerate_paths(
            lambda ch: ow_cpa_game(PKE, guessing_ow_adversary, ch)
        )
        p_win = sum(p for p, win in paths if win)
        assert abs(p_win - 1 / 3) <= ATOL

    def test_sk_withheld_on_simulated_path(self):
        # structural: Game-8-style decapsulation never touches the secret key
        adv = wrong_randomness_adversary((0, 1))
        win = indcca_game(PKE22, adv, "simulated-decaps", RandomChooser(7),
                          keep_ro_query=False, key_bits=1)
        assert isinstance(win, (bool, np.bool_))

    def test_garbage_adversary_rejects_a_valid_ciphertext(self):
        _, pk = PKE22.gen(0)
        with pytest.raises(ValueError, match="image"):
            indcca_game(PKE22, garbage_decaps_adversary(pk[1][2]), "real-decaps",
                        RandomChooser(0), key_bits=1)

    def test_tripwire_trips(self):
        with pytest.raises(AssertionError):
            Tripwire()["anything"]
        with pytest.raises(AssertionError):
            Tripwire().get(3)

    def test_game_trace_log(self):
        trace = []
        indcca_game(PKE22, wrong_randomness_adversary((0,)), "real-decaps",
                    RandomChooser(1), key_bits=1, trace=trace)
        decaps_calls = [e for e in trace if e.get("call") == "decaps"]
        oracle_calls = [e for e in trace if e.get("interface") == "RO"]
        assert decaps_calls and oracle_calls
        assert decaps_calls[0]["backend"] == "real-decaps"


class TestBackendAgreement:
    def test_wrong_randomness_agreement(self):
        rep = backend_agreement_experiment(
            PKE22, wrong_randomness_adversary((0, 1)),
            keep_ro_query=True, key_bits=1)
        assert rep.satisfied
        assert rep.stats["q_d"] == 2

    def test_garbage_agreement_exact(self):
        rep = backend_agreement_experiment(
            PKE22, garbage_decaps_adversary(first_non_image_ciphertext(PKE22)),
            keep_ro_query=True, key_bits=1)
        assert rep.measured <= ATOL

    def test_key_checker_within_budget_nonvacuous(self):
        rep = backend_agreement_experiment(
            PKE22, key_checking_adversary((0,), 1),
            keep_ro_query=True, key_bits=1)
        assert rep.satisfied
        assert rep.bound <= 1.0 + ATOL  # non-vacuous configuration
        assert rep.measured > 0.0  # extraction noise is genuinely observable
