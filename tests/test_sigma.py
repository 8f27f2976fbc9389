"""Sigma-protocol tests: access structures, trivial attacks, online extraction."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import sigma_reference as ref
from qrolab.branching import RandomChooser
from qrolab.fixtures import load, parse_fixture
from qrolab.relations import identity_commit
from qrolab.sigma import (
    AccessStructure,
    HonestProver,
    NoCommitProver,
    SigmaSpec,
    TrivialAttackProver,
    epsilon_exact,
    epsilon_simplified,
    max_nonmember_size,
    online_extract,
    p_trivial,
    p_trivial_parallel,
    run_real_game,
    run_sigma_experiment,
    threshold_structure,
    xor_instance_gen,
    xor_toy_hook,
    xor_toy_spec,
    xor_witness_checker,
)
from qrolab.simulator import SimulatorS
from sigma_reference import brute_force_p_trivial_parallel

SB = 1
TINY = xor_toy_spec(share_bits=SB, randomness_bits=2)
T2 = threshold_structure(2, 3)
HOOK = xor_toy_hook(SB)
GEN = xor_instance_gen(SB)


def honest_factory(spec, instance, shares, rng):
    return HonestProver(spec, instance, shares, rng, share_bits=SB)


class TestAccessStructures:
    def test_threshold_monotone_and_min_sets(self):
        # exhaustive over all 2^5 subsets: adding an element never leaves
        # the structure
        t2 = threshold_structure(2, 5)
        subsets = [frozenset(c) for size in range(6)
                   for c in itertools.combinations(range(5), size)]
        for s in subsets:
            if t2.member(s):
                assert all(t2.member(s | {u}) for u in range(5))

    def test_max_nonmember(self):
        assert max_nonmember_size(threshold_structure(2, 3)) == 1
        assert max_nonmember_size(threshold_structure(2, 10)) == 1
        assert max_nonmember_size(threshold_structure(1, 4)) == 0
        bare = AccessStructure(4, lambda s: len(s) >= 3)
        assert max_nonmember_size(bare) == 2


class TestPTrivial:
    def test_special_sound_third(self):
        assert p_trivial(TINY, T2) == Fraction(1, 3)

    def test_k_sound_over_ten(self):
        spec = load("sigma-2of10-pairs")
        t2 = threshold_structure(2, len(spec.challenges))
        assert p_trivial(spec, t2) == Fraction(1, 10)

    def test_all_nonempty_gives_zero(self):
        assert p_trivial(TINY, threshold_structure(1, 3)) == 0

    @pytest.mark.parametrize("nc", [3, 10])
    def test_k_soundness_reproduced_for_all_k(self, nc):
        for k in range(1, nc + 1):
            assert max_nonmember_size(threshold_structure(k, nc)) == k - 1

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_parallel_power_law(self, r):
        assert p_trivial_parallel(TINY, T2, r) == Fraction(1, 3) ** r

    def test_parallel_matches_brute_force(self):
        got = p_trivial_parallel(TINY, T2, 2)
        assert got == brute_force_p_trivial_parallel(TINY, T2, 2)

    def test_zero_stays_zero(self):
        assert p_trivial_parallel(TINY, threshold_structure(1, 3), 3) == 0


class TestSpecValidation:
    def test_challenges_must_cover(self):
        with pytest.raises(ValueError):
            SigmaSpec(3, (frozenset({0, 1}),), 2, 4, lambda i, c, o: True)

    def test_challenge_outside_range(self):
        with pytest.raises(ValueError):
            SigmaSpec(2, (frozenset({0, 1}), frozenset({2})), 2, 4,
                      lambda i, c, o: True)

    def test_fixture_challenge_outside_range_names_the_range(self):
        # slot 5 also breaks coverage, so the range check must come first
        raw = {"type": "sigma", "ell": 3, "challenges": [[0, 1], [1, 2], [2, 5]],
               "randomness_bits": 2, "slot_space": 4, "verifier": "always"}
        with pytest.raises(ValueError, match="outside slot range"):
            parse_fixture(raw)


class TestToyProtocolSoundness:
    def test_hook_against_exhaustive_v_scan(self):
        # T2-sound*: whenever two challenges verify, the hook recovers a
        # valid witness; checked over the whole opening space at tiny size
        spec = TINY
        rng = np.random.default_rng(0)
        for _ in range(300):
            instance = int(rng.integers(2))
            openings = {i: int(rng.integers(spec.slot_space)) for i in range(3)}
            verified = [c for c in spec.challenges
                        if spec.verify(instance, c, openings)]
            extracted = {i: spec.encode(m, 0) for i, m in openings.items()}
            witness = HOOK(spec, instance, extracted)
            if len(verified) >= 2:
                assert witness is not None
                assert xor_witness_checker(instance, witness)

    def test_honest_prover_extracts(self):
        rng = np.random.default_rng(1)
        instance, shares = GEN(rng)
        prover = honest_factory(TINY, instance, shares, rng)
        sim = SimulatorS(identity_commit(8, TINY.domain_size),
                         backend="product", seed=3)
        witness, transcript = online_extract(prover, TINY, T2, HOOK,
                                             instance, sim)
        assert witness is not None
        assert xor_witness_checker(instance, witness)
        assert transcript.accepted

    def test_extractor_is_online(self):
        # every extraction call precedes the challenge in the transcript log
        rng = np.random.default_rng(2)
        instance, shares = GEN(rng)
        prover = honest_factory(TINY, instance, shares, rng)
        sim = SimulatorS(identity_commit(8, TINY.domain_size),
                         backend="product", seed=4)
        _, transcript = online_extract(prover, TINY, T2, HOOK, instance, sim)
        e_indices = [i for i, e in enumerate(transcript.log) if e["interface"] == "E"]
        assert e_indices and max(e_indices) < transcript.challenge_log_index

    def test_round_structure_enforced(self):
        class BadProver:
            def commit(self, ro):
                return [0]  # wrong number of commitments

        sim = SimulatorS(identity_commit(8, TINY.domain_size),
                         backend="product", seed=5)
        with pytest.raises(ValueError):
            online_extract(BadProver(), TINY, T2, HOOK, 0, sim)


class TestExperiments:
    def test_honest_experiment_small_n(self):
        rep = run_sigma_experiment(honest_factory, TINY, T2, HOOK, GEN,
                                   xor_witness_checker, n=8, trials=150, seed=0)
        assert rep.stats["p_prover"] >= 0.95
        assert rep.measured >= 0.9
        assert rep.satisfied

    def test_trivial_attacker_blocked(self):
        factory = lambda s, i, w, r: TrivialAttackProver(s, i, w, r,
                                                         share_bits=SB)
        rep = run_sigma_experiment(factory, TINY, T2, HOOK, GEN,
                                   xor_witness_checker, n=8, trials=300, seed=1)
        assert rep.measured == 0.0
        assert abs(rep.stats["p_prover"] - 1 / 3) <= 0.15

    def test_no_commit_prover(self):
        factory = lambda s, i, w, r: NoCommitProver(s)
        rep = run_sigma_experiment(factory, TINY, T2, HOOK, GEN,
                                   xor_witness_checker, n=8, trials=100, seed=2)
        assert rep.measured == 0.0 and rep.stats["p_prover"] == 0.0

    def test_exhaustive_mode_matches_monte_carlo(self):
        micro = xor_toy_spec(share_bits=1, randomness_bits=1)
        exact = run_sigma_experiment(honest_factory, micro, T2, HOOK, GEN,
                                     xor_witness_checker, n=1, seed=5,
                                     exhaustive=True)
        assert exact.params["mode"] == "exhaustive"
        assert abs(exact.stats["p_prover"] - 1.0) <= 1e-9  # honest prover always passes
        mc = run_sigma_experiment(honest_factory, micro, T2, HOOK, GEN,
                                  xor_witness_checker, n=1, trials=800, seed=5)
        # extraction success: MC within 3 sigma of an exact-tree ballpark
        sigma3 = 3 * np.sqrt(0.25 / 800)
        assert abs(mc.measured - exact.measured) <= sigma3 + 0.05

    def test_vacuous_flag_at_tiny_n(self):
        rep = run_sigma_experiment(honest_factory, TINY, T2, HOOK, GEN,
                                   xor_witness_checker, n=2, trials=50, seed=3)
        assert rep.vacuous  # epsilon >= 1 at n = 2
        assert rep.satisfied  # vacuous is reported, not failed

    def test_epsilon_formulas(self):
        # simplified formula at the paper's q >= ell + 1 regime stays above
        # nothing smaller than the exact epsilon's leading term
        assert epsilon_simplified(3, 4, 16) == pytest.approx(
            34 * 12 / 256 + 2365 * 64 / 65536)
        assert epsilon_exact(3, 4, 16) == pytest.approx(
            8 * np.sqrt(2) * 3 * 12 / 256 + (40 * np.e**2 * 8**3 + 2) / 65536)


class TestAgainstReference:
    """The game against tests/sigma_reference.py, today's protocol steps
    before each was kept once: every seeded draw must land the same."""

    PROVERS = {
        "honest": (HonestProver, ref.HonestProver),
        "trivial": (TrivialAttackProver, ref.TrivialAttackProver),
        "no-commit": (NoCommitProver, NoCommitProver),
    }

    @staticmethod
    def factory(cls):
        return lambda s, i, w, r: cls(s, i, w, r, share_bits=SB)

    @pytest.mark.parametrize("prover", sorted(PROVERS))
    def test_transcripts_match(self, prover):
        commit = identity_commit(8, TINY.domain_size)
        for seed in range(24):
            runs = []
            for cls, extract, real_game in zip(
                    self.PROVERS[prover], (online_extract, ref.online_extract),
                    (run_real_game, ref.run_real_game)):
                rng = np.random.default_rng(seed)
                instance, shares = GEN(rng)
                p = self.factory(cls)(TINY, instance, shares, rng)
                sim = SimulatorS(commit, backend="product", seed=100 + seed)
                witness, transcript = extract(p, TINY, T2, HOOK, instance, sim)
                rng = np.random.default_rng(seed)
                instance, shares = GEN(rng)
                won = real_game(self.factory(cls)(TINY, instance, shares, rng), TINY,
                                instance, RandomChooser(200 + seed), 8)
                runs.append((getattr(p, "slots", None), witness, transcript, won))
            assert runs[0] == runs[1], (prover, seed)

    @pytest.mark.parametrize("exhaustive", [False, True], ids=["monte-carlo", "exhaustive"])
    @pytest.mark.parametrize("prover", ["honest", "trivial"])
    @pytest.mark.parametrize("seed", range(4))
    def test_reports_match(self, prover, seed, exhaustive):
        if exhaustive:
            spec, kw = xor_toy_spec(share_bits=1, randomness_bits=1), dict(n=1)
        else:
            spec, kw = TINY, dict(n=8, trials=300)
        new, old = (
            run(self.factory(cls), spec, T2, HOOK, GEN, xor_witness_checker,
                seed=seed, exhaustive=exhaustive, **kw)
            for run, cls in zip((run_sigma_experiment, ref.run_sigma_experiment),
                                self.PROVERS[prover]))
        assert new.params["mode"] == ("exhaustive" if exhaustive else "monte-carlo")
        for field in ("measured", "bound", "satisfied", "vacuous", "params", "stats"):
            assert getattr(new, field) == getattr(old, field), field


class TestCollisionAttackIllustration:
    def test_planted_collision_breaks_extraction(self):
        # tightness illustration: with a tiny hash range the prover finds a
        # collision classically and opens the other preimage; the extractor
        # (first-hit rule) then disagrees with the opened value
        n = 2
        spec = xor_toy_spec(share_bits=1, randomness_bits=6)
        commit = identity_commit(n, spec.domain_size)
        found = 0
        disagreements = 0
        for seed in range(40):
            sim = SimulatorS(commit, backend="product", seed=seed)
            # brute-force a collision pair for slot 0's target message
            table = {}
            pair = None
            for x in range(spec.domain_size):
                h = sim.ro_classical(x)
                if h in table and table[h] != x:
                    pair = (table[h], x)
                    break
                table[h] = x
            if pair is None:
                continue
            found += 1
            a = sim.ro_classical(pair[1])
            x_hat = sim.e_query(a)
            if x_hat.is_empty or x_hat.value != pair[1]:
                disagreements += 1
        assert found > 10
        assert disagreements > found / 2
