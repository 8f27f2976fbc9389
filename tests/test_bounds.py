"""Bound-lab tests: norms, lemma bounds, and the query experiments."""

import numpy as np
import pytest

import bounds_reference
from dense_commutators import oxm_norm_by_columns
from qrolab.bounds import (
    OxMCommutator,
    Report,
    collision_experiment,
    collision_mask,
    early_extraction_experiment,
    full_commutator_norm_direct,
    grover_experiment,
    interface_soundness_experiment,
    relation_chain_monotonicity,
    theorem_bound,
    theorem_commutator_norm,
    verify_local_bounds,
)
from qrolab.config import ATOL, DENSE_SVD_CUTOFF
from qrolab.experiments import (
    AdaptiveTwoQueryCommitter,
    HonestCommitter,
    RefusingCommitter,
    all_relations,
    commutator_relation_reports,
    grover_blind_circuit,
    grover_one_iteration_circuit,
    random_relations,
)
from qrolab.fixtures import list_fixtures, load
from qrolab.oracle import OracleConfig
from qrolab.properties import bundled_commits, toy_encryption_commit
from qrolab.relations import Relation, identity_commit


class TestCommutatorNorms:
    def test_regression_anchor_single_pair_relation(self):
        # frozen exact value for R = {(0,0)} at n=1, M=2, cross-checked
        # against the direct full-space construction during development
        rel = Relation.from_pairs(1, 2, [(0, 0)])
        config = OracleConfig(1, 2)
        val = theorem_commutator_norm(rel, config)
        assert abs(val - 1.5) <= ATOL
        assert val <= theorem_bound(1, 1) + ATOL

    def test_block_reduction_matches_direct(self):
        config = OracleConfig(1, 2)
        for pairs in ([], [(0, 0)], [(0, 0), (1, 1)], [(0, 0), (0, 1)]):
            rel = Relation.from_pairs(1, 2, pairs)
            direct = full_commutator_norm_direct(rel, config)
            blocks = theorem_commutator_norm(rel, config)
            assert abs(direct - blocks) <= ATOL

    def test_empty_relation_commutes_exactly(self):
        rel = Relation.from_pairs(1, 2, [])
        assert theorem_commutator_norm(rel, OracleConfig(1, 2)) <= ATOL

    def test_exhaustive_sweep_n1_m2(self):
        config = OracleConfig(1, 2)
        for rel in all_relations(1, 2):
            val = theorem_commutator_norm(rel, config)
            assert val <= theorem_bound(1, rel.gamma) + ATOL

    def test_iterative_path_matches_dense_at_n2_m3(self):
        # dim 2000 > SVD cutoff: Lanczos path must agree with a dense SVD
        rel = Relation(2, 3, lambda x, y: y == x)
        config = OracleConfig(2, 3)
        com = OxMCommutator(rel, config, 0)
        assert com.dim > 1024
        assert abs(com.norm() - oxm_norm_by_columns(rel, config, 0)) <= 1e-8

    def test_iterative_path_matches_blocks_at_n2_m3(self):
        # the blocks, called directly above the cutoff, as a second exact
        # reference for Lanczos on seeded relations and the empty one, where
        # Lanczos stops at beta = 0 with exactly 0.0
        config = OracleConfig(2, 3)
        empty = Relation.from_pairs(2, 3, [])
        cases = [(empty, 0.0)] + [
            (rel, tol)
            for seed, count, tol in ((23, 3, 1e-8), (0, 21, 1e-13))
            for rel in random_relations(2, 3, count, np.random.default_rng(seed))
        ]
        for rel, tol in cases:
            for x in range(3):
                com = OxMCommutator(rel, config, x)
                assert com.dim > DENSE_SVD_CUTOFF
                reference = 0.0 if rel is empty else com.block_norm()
                assert abs(com.norm() - reference) <= tol, (x, list(rel.pairs()))


class TestLocalBounds:
    def test_lemma_values_at_n1(self):
        rel = Relation.from_pairs(1, 2, [(0, 0)])
        reports = verify_local_bounds(1, rel)
        by = {(r.experiment, r.params["x"]): r for r in reports}
        # Gamma_0 = 1: measured sqrt(3)/2 against bound 1
        assert abs(by[("local-F-Pi", 0)].measured - np.sqrt(3) / 2) <= ATOL
        assert abs(by[("local-F-Pi", 0)].bound - 1.0) <= ATOL
        # Gamma_1 = 0: all three commutators vanish exactly
        for exp in ("local-F-Pi", "local-O-Pi", "local-O-PiEmpty"):
            assert by[(exp, 1)].measured <= ATOL
            assert by[(exp, 1)].bound == 0.0

    def test_full_relation_bound_at_n2(self):
        rel = Relation(2, 2, lambda x, y: True)
        reports = verify_local_bounds(2, rel)
        for rep in reports:
            assert rep.satisfied
            if rep.experiment == "local-F-Pi":
                # bound = 2^-1 sqrt(8) = sqrt(2); measured is exactly 1
                assert abs(rep.bound - np.sqrt(2)) <= ATOL
                assert abs(rep.measured - 1.0) <= ATOL

    def test_lifting_inequality(self):
        for pairs in ([(0, 0)], [(0, 0), (1, 1), (0, 1)]):
            rel = Relation.from_pairs(1, 2, pairs)
            lifting = [r for r in commutator_relation_reports(1, 2, rel)
                       if r.experiment == "lifting-inequality"]
            assert len(lifting) == 2
            for rep in lifting:
                assert rep.satisfied


class TestMonotonicityProbe:
    def test_probe_reports_without_asserting(self):
        chain = [
            Relation.from_pairs(1, 2, []),
            Relation.from_pairs(1, 2, [(0, 0)]),
            Relation.from_pairs(1, 2, [(0, 0), (1, 0)]),
        ]
        rep = relation_chain_monotonicity(1, 2, chain)
        assert rep.satisfied  # informational: never a failure
        assert "monotone" in rep.note


class TestGrover:
    def test_blind_guess_exact(self):
        rel = Relation(3, 4, lambda x, y: y == 0)
        rep = grover_experiment(grover_blind_circuit(3, 4), rel, backend="dense")
        assert abs(rep.measured - 2.0**-3) <= ATOL
        assert rep.params["q"] == 0
        assert rep.satisfied

    def test_one_iteration_dense_sparse_agree(self):
        rel = Relation(2, 2, lambda x, y: y == 0)
        circ = grover_one_iteration_circuit(2, 2)
        d = grover_experiment(circ, rel, backend="dense")
        s = grover_experiment(circ, rel, backend="sparse")
        assert abs(d.measured - s.measured) <= ATOL

    def test_pinned_sparse_value_at_n5_m8(self):
        rel = Relation(5, 8, lambda x, y: y == 0)
        rep = grover_experiment(grover_one_iteration_circuit(5, 8, True), rel,
                                backend="sparse")
        assert abs(rep.measured - 0.18025207519531228) <= ATOL
        assert rep.runtime_ms > 0

    def test_uncompute_dense_sparse_agree_at_n3_m2(self):
        rel = Relation(3, 2, lambda x, y: y == 0)
        circ = grover_one_iteration_circuit(3, 2, True)
        d = grover_experiment(circ, rel, backend="dense")
        s = grover_experiment(circ, rel, backend="sparse")
        assert abs(d.measured - s.measured) <= ATOL
        assert d.runtime_ms > 0 and s.runtime_ms > 0

    def test_uncompute_amplifies(self):
        rel = Relation(6, 8, lambda x, y: y == 0)
        rep = grover_experiment(grover_one_iteration_circuit(6, 8, True), rel,
                                backend="sparse")
        assert rep.measured > 2.0**-6 * 3  # well above blind guessing
        assert rep.satisfied


class TestCollision:
    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (3, 2), (2, 3), (1, 4)])
    def test_mask_matches_loop_reference(self, n, m):
        config = OracleConfig(n, m)
        fixtures = [load(name) for name, _ in list_fixtures("commit")]
        for f in bundled_commits(n, m) + [f for f in fixtures if (f.n, f.m) == (n, m)]:
            got = collision_mask(config, f)
            assert got.dtype == bool and got.shape == (config.d_dim(),)
            assert np.array_equal(got, bounds_reference.collision_mask(config, f)), f.name

    def test_zero_queries_zero_mass(self):
        f = identity_commit(3, 2)
        rep = collision_experiment(lambda ro: None, f, q=0)
        assert rep.measured == 0.0

    def test_collision_free_f_zero_mass(self):
        f = toy_encryption_commit(3, 2)

        def adv(ro):
            ro(0)
            ro(1)

        rep = collision_experiment(adv, f, q=2)
        assert rep.measured <= ATOL
        assert rep.bound == 0.0

    def test_budget_enforced(self):
        f = identity_commit(1, 2)

        def adv(ro):
            ro(0)
            ro(1)

        with pytest.raises(ValueError):
            collision_experiment(adv, f, q=1)


class TestInterfaceSoundness:
    def test_adversary_cannot_extract(self):
        f = identity_commit(1, 2)

        def cheater(sim):
            sim.e_query(0)
            return [0]

        with pytest.raises(PermissionError):
            interface_soundness_experiment("hard-property", cheater, f,
                                           r_prime=lambda x, t: True)

    def test_garbage_t_never_succeeds(self):
        f = identity_commit(2, 2)
        rep = interface_soundness_experiment(
            "hard-property", lambda sim: [3], f, r_prime=lambda x, t: True)
        assert rep.measured == 0.0
        assert rep.bound == 0.0  # q = 0

    def test_hard_collision_collision_free(self):
        f = toy_encryption_commit(2, 2)

        def honest(sim):
            h = sim.ro(1)
            return ([f(1, h)], [1])

        rep = interface_soundness_experiment("hard-collision", honest, f)
        assert abs(rep.bound - 2.0 / 4.0) <= ATOL  # Gamma' = 0: bound 2/2^n
        assert rep.satisfied and not rep.vacuous

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            interface_soundness_experiment("nope", lambda sim: [0],
                                           identity_commit(1, 2))


class TestEarlyExtraction:
    def test_honest_committer_reports(self):
        f = toy_encryption_commit(2, 2)
        td, mm = early_extraction_experiment(HonestCommitter(f), f)
        assert td.satisfied and mm.satisfied
        assert td.params["q2"] == 0

    def test_refusing_committer_never_mismatches(self):
        f = identity_commit(1, 2)
        td, mm = early_extraction_experiment(RefusingCommitter(f), f)
        # declared convention: f(None, h) != t, so the event cannot fire
        assert mm.measured == 0.0
        assert td.measured <= ATOL  # no oracle use at all: games identical

    def test_adaptive_two_query(self):
        f = identity_commit(1, 2)
        td, mm = early_extraction_experiment(AdaptiveTwoQueryCommitter(f), f)
        assert td.params["q"] == 2
        assert td.satisfied and mm.satisfied

    @pytest.mark.parametrize("requery_parity", [1, 0], ids=["odd", "even"])
    def test_counts_are_the_largest_over_leaves(self, requery_parity):
        # H(1) is queried on half of the leaves: the bound must not depend on
        # whether the last leaf enumerated is one of them
        f = identity_commit(1, 2)

        class Committer:
            def run(self, ro, announce):
                h0 = ro(0)
                announce(f(0, h0))
                if h0 % 2 == requery_parity:
                    ro(1)
                return [0], ()

        td, _ = early_extraction_experiment(Committer(), f)
        assert (td.params["q"], td.params["q2"], td.params["ell"]) == (2, 1, 1)
        assert td.bound == 16.0


class TestMonteCarloCrossCheck:
    def test_mc_agrees_with_exact_within_three_sigma(self):
        from qrolab.branching import RandomChooser, enumerate_paths
        from qrolab.simulator import SimulatorS

        f = identity_commit(2, 2)

        def run(ch):
            sim = SimulatorS(f, chooser=ch)
            h = sim.ro_classical(0)
            return not sim.e_query(h).is_empty

        exact = sum(p for p, hit in enumerate_paths(run) if hit)
        rng = np.random.default_rng(0)
        trials = 4000
        est = sum(1 for _ in range(trials) if run(RandomChooser(rng))) / trials
        slack = 3.0 * max(np.sqrt(exact * (1 - exact) / trials), 1e-6)
        assert abs(est - exact) <= slack


class TestInRunQueriesVariant:
    def test_hard_collision_with_in_run_ro(self):
        # remark variant: the S.RO(x_i) queries happen during the run, so the
        # ell term is dropped from the cubic factor
        f = toy_encryption_commit(2, 2)

        def adversary(sim):
            h = sim.ro(1)
            sim.ro(1)  # in-run repeat of the opening query
            return ([f(1, h)], [1])

        rep = interface_soundness_experiment("hard-collision", adversary, f,
                                             in_run_ro=True)
        # Gamma' = 0: the bound is 2/2^n regardless, and it must still hold
        assert abs(rep.bound - 0.5) <= ATOL
        assert rep.satisfied


class TestReport:
    def test_satisfied_tolerance(self):
        rep = Report("x", {}, 1.0 + 5e-10, 1.0)
        assert rep.satisfied
        rep2 = Report("x", {}, 1.0 + 5e-9, 1.0)
        assert not rep2.satisfied

    def test_supplied_verdict(self):
        # a supplied verdict wins over the derived measured <= bound + ATOL
        assert not Report("x", {}, 0.5, 1.0, satisfied=False).satisfied
        assert Report("x", {}, 2.0, 1.0, satisfied=np.bool_(True)).satisfied is True
        with pytest.raises(TypeError):
            Report("x", {}, 0.5, 1.0, satisfied="yes")
        row = Report("x", {"n": 1, "f": "id"}, 2.0, 1.0, satisfied=True).row()
        assert row["satisfied"] is True and row["detail"]["f"] == "id"

    def test_vacuous_flagging(self):
        # a probability bound >= 1 is vacuous; a commutator-norm bound is not
        blind = grover_experiment(grover_blind_circuit(3, 4),
                                  Relation(3, 4, lambda x, y: y == 0),
                                  backend="dense")
        assert blind.bound >= 1.0 and blind.vacuous and blind.satisfied
        assert blind.row()["detail"]["vacuous"] is True
        theorem = commutator_relation_reports(1, 2, Relation.from_pairs(1, 2, [(0, 0)]))[0]
        assert theorem.bound >= 1.0 and not theorem.vacuous
