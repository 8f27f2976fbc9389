"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them on success).
Criterion runtimes are asserted where the criterion states a limit.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from qrolab.branching import RandomChooser
from qrolab.experiments import (
    run_collision_battery,
    run_commutator_battery,
    run_equivalence_battery,
    run_fo_battery,
    run_grover_battery,
    run_interfaces_battery,
)
from qrolab.linalg import operator_norm
from qrolab.oracle import build_f
from qrolab.properties import theorem2_property_suite
from qrolab.relations import identity_commit
from qrolab.sigma import (
    HonestProver,
    p_trivial,
    p_trivial_parallel,
    run_sigma_experiment,
    threshold_structure,
    xor_instance_gen,
    xor_toy_hook,
    xor_toy_spec,
    xor_witness_checker,
)
from qrolab.simulator import SimulatorS


def announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def commutator_reports():
    start = time.perf_counter()
    reports = run_commutator_battery(seed=0, random_count=200)
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def theorem2_reports():
    start = time.perf_counter()
    reports = theorem2_property_suite()
    return reports, time.perf_counter() - start


def test_criterion_1_perfect_ro_indistinguishability():
    start = time.perf_counter()
    reports = run_equivalence_battery(backend="dense")
    elapsed = time.perf_counter() - start
    worst = max(r.measured for r in reports)
    ok = len(reports) >= 50 and worst <= 1e-9 and elapsed < 120
    announce("1", ok,
             f"{len(reports)} circuits, worst TV {worst:.2e}, {elapsed:.1f}s")
    assert len(reports) >= 50
    assert worst <= 1e-9
    assert elapsed < 120
    assert all(r.runtime_ms > 0 for r in reports)


def test_criterion_2_main_commutator_bound(commutator_reports):
    reports, elapsed = commutator_reports
    theorem = [r for r in reports if r.experiment == "commutator-theorem"]
    # 16 relations at n=1 M=2 plus 64 at n=1 M=3 (exhaustive), 200 random
    assert len(theorem) == 16 + 64 + 200
    bad = [r for r in theorem if not r.satisfied]
    anchor = operator_norm(
        build_f(1) @ np.diag([1.0, 0, 0]) - np.diag([1.0, 0, 0]) @ build_f(1)
    )
    anchor_ok = abs(anchor - np.sqrt(3) / 2) <= 1e-9
    ok = not bad and anchor_ok and elapsed < 300
    announce("2", ok,
             f"{len(theorem)} relations swept, {len(bad)} violations, "
             f"[F,Pi] anchor {anchor:.9f}, {elapsed:.1f}s")
    assert not bad
    assert anchor_ok
    assert elapsed < 300
    # every row of the battery carries its own measured runtime
    assert all(r.runtime_ms > 0 for r in reports)


def test_criterion_3_local_and_lifting(commutator_reports):
    reports, _ = commutator_reports
    locals_ = [r for r in reports if r.experiment.startswith("local-")]
    lifting = [r for r in reports if r.experiment == "lifting-inequality"]
    bad = [r for r in locals_ + lifting if not r.satisfied]
    ok = not bad and len(locals_) >= 3 * (16 * 2 + 64 * 3) and len(lifting) > 0
    announce("3", ok,
             f"{len(locals_)} local bounds + {len(lifting)} lifting checks, "
             f"{len(bad)} violations")
    assert not bad


def test_criterion_4_theorem_properties(theorem2_reports):
    reports, elapsed = theorem2_reports
    bad = [r for r in reports if not r.satisfied]
    by_kind = {}
    for r in reports:
        by_kind.setdefault(r.experiment, []).append(r)
    # exactness claims are asserted at <= 1e-9 via bound 0 + ATOL
    for kind in ("theorem2-1-ro-indistinguishable", "theorem2-2a-ro-commute",
                 "theorem2-2b-e-commute", "theorem2-3a-ro-idempotent",
                 "theorem2-3b-e-idempotent"):
        assert all(r.measured <= 1e-9 for r in by_kind[kind]), kind
    for r in by_kind["theorem2-2c-roe-almost-commute"]:
        assert r.measured <= 8 * np.sqrt(2 * r.params["gamma"] / 2.0 ** r.params["n"]) + 1e-9
    for r in by_kind["theorem2-4a-extract-then-ro"]:
        assert r.measured <= 2 * 2.0 ** -r.params["n"] * r.params["gamma"] + 1e-9
    for r in by_kind["theorem2-4b-ro-then-extract"]:
        assert r.measured <= 2 * 2.0 ** -r.params["n"] + 1e-9
    ok = not bad and elapsed < 600
    announce("4", ok, f"{len(reports)} property reports over the grid, "
                      f"{len(bad)} violations, {elapsed:.1f}s")
    assert not bad
    assert elapsed < 600


def test_criterion_5_sparse_dense_equivalence():
    from qrolab.oracle import DenseOracleState, OracleConfig
    from sparse_reference import dict_form, encoded

    start = time.perf_counter()
    # criterion-1 suite, identical on the sparse backend
    sparse_reports = run_equivalence_battery(backend="sparse")
    worst_gap = max(r.measured for r in sparse_reports)

    # inner products preserved by the encoding
    worst_ip = 0.0
    for s1 in range(4):
        for s2 in range(4):
            a = _two_query_state(s1)
            b = _two_query_state(s2 + 7)
            ip_dense = complex(np.vdot(a.d_vector(), b.d_vector()))
            ip_sparse = dict_form(encoded(a, 2)).inner(dict_form(encoded(b, 2)))
            worst_ip = max(worst_ip, abs(ip_dense - ip_sparse))

    # large-domain smoke test: M = 2^20, n = 16, q = 4 in < 1 s
    commit = identity_commit(16, 2**20)
    t0 = time.perf_counter()
    sim = SimulatorS(commit, backend="sparse", seed=123, q_cap=8)
    x0 = 654321
    h = sim.ro_classical(x0)
    hit = sim.e_query(h)
    h2 = sim.ro_classical(hit.value)
    sim.e_query(h2)
    smoke_s = time.perf_counter() - t0
    smoke_ok = smoke_s < 1.0 and hit.value == x0

    # extraction success over 10^3 seeded trials (product backend for the
    # statistics; 30 trials re-run on the flat sparse map for agreement)
    def round_trip(backend, seed):
        s = SimulatorS(commit, backend=backend, seed=seed, q_cap=8)
        x = int(np.random.default_rng(seed).integers(2**20))
        hh = s.ro_classical(x)
        out = s.e_query(hh)
        return (not out.is_empty) and out.value == x

    wins = sum(round_trip("product", seed) for seed in range(1000))
    rate = wins / 1000
    sparse_wins = sum(round_trip("sparse", seed) for seed in range(30))
    elapsed = time.perf_counter() - start
    ok = (worst_gap <= 1e-9 and worst_ip <= 1e-9 and smoke_ok
          and rate >= 1 - 2 * 2.0**-16 - 3 * np.sqrt(0.25 / 1000)
          and sparse_wins == 30)
    announce("5", ok,
             f"sparse suite gap {worst_gap:.2e}, inner-product dev "
             f"{worst_ip:.2e}, smoke {smoke_s * 1000:.0f}ms, success rate "
             f"{rate:.4f} ({elapsed:.1f}s)")
    assert worst_gap <= 1e-9
    assert worst_ip <= 1e-9
    assert smoke_ok
    # 1 - 2*2^-16 = 0.99997; allow the binomial 3-sigma band around it
    assert rate >= 1 - 2 * 2.0**-16 - 3 * np.sqrt(0.25 / 1000)
    assert sparse_wins == 30


def _two_query_state(seed):
    from qrolab.oracle import DenseOracleState, OracleConfig

    oracle = DenseOracleState(OracleConfig(1, 2))
    ch = RandomChooser(seed)
    oracle.classical_query(0, ch)
    oracle.classical_query(1, ch)
    return oracle


def test_criterion_6_query_bound_experiments():
    start = time.perf_counter()
    grover = run_grover_battery()
    collision = run_collision_battery()
    interfaces = run_interfaces_battery()
    bad = [r for r in grover + collision + interfaces if not r.satisfied]
    g6 = [r for r in grover if r.params.get("n") == 6]
    nonvac = [r for r in interfaces if not r.vacuous]
    elapsed = time.perf_counter() - start
    ok = not bad and g6 and nonvac
    announce("6", ok,
             f"{len(grover)} grover + {len(collision)} collision + "
             f"{len(interfaces)} interface reports, {len(bad)} violations, "
             f"{len(nonvac)} non-vacuous interface bounds, {elapsed:.1f}s")
    assert not bad
    assert g6, "n=6 sparse grover experiment missing"
    assert nonvac, "need at least one non-vacuous interface bound"


def test_criterion_7_sigma_online_extraction():
    share_bits = 2
    spec = xor_toy_spec(share_bits=share_bits, randomness_bits=16)
    access = threshold_structure(2, 3)
    hook = xor_toy_hook(share_bits)
    gen = xor_instance_gen(share_bits)
    honest = lambda s, i, w, r: HonestProver(s, i, w, r, share_bits=share_bits)

    start = time.perf_counter()
    rep16 = run_sigma_experiment(honest, spec, access, hook, gen,
                                 xor_witness_checker, n=16, trials=10_000, seed=42)
    success_ok = rep16.measured >= 0.99

    # at n = 16 the simplified epsilon is >= 1 for every q >= ell, so the
    # inequality is arithmetically vacuous there; it is reported as such and
    # checked non-vacuously at n = 20 (see decisions ledger)
    vacuous_reported = rep16.vacuous
    rep20 = run_sigma_experiment(honest, spec, access, hook, gen,
                                 xor_witness_checker, n=20, trials=200, seed=43)
    ineq_ok = (not rep20.vacuous) and rep20.satisfied and rep20.bound > 0
    # at n = 32 epsilon is ~0.005, so the bound is non-vacuous with margin
    rep32 = run_sigma_experiment(honest, spec, access, hook, gen,
                                 xor_witness_checker, n=32, trials=2000, seed=44)
    ineq32_ok = ((not rep32.vacuous) and rep32.satisfied
                 and rep32.stats["epsilon"] < 0.01 and rep32.bound > 0.99)

    pt = p_trivial(spec, access)
    from qrolab.fixtures import load

    pairs = load("sigma-2of10-pairs")
    pt10 = p_trivial(pairs, threshold_structure(2, len(pairs.challenges)))
    pt_par = p_trivial_parallel(spec, access, 2)
    ptriv_ok = (pt == Fraction(1, 3) and pt10 == Fraction(1, 10)
                and pt_par == Fraction(1, 9))
    elapsed = time.perf_counter() - start
    ok = success_ok and vacuous_reported and ineq_ok and ineq32_ok and ptriv_ok
    announce("7", ok,
             f"n=16 extract rate {rep16.measured:.4f} over 10^4 trials; "
             f"n=16 inequality vacuous (eps={rep16.stats['epsilon']:.2f}) as reported; "
             f"n=20 non-vacuous rhs={rep20.bound:.3f} <= {rep20.measured:.4f}; "
             f"n=32 eps={rep32.stats['epsilon']:.4f}, rhs={rep32.bound:.3f} <= "
             f"{rep32.measured:.4f}; "
             f"p_triv {pt}, {pt10}, {pt_par} ({elapsed:.0f}s)")
    assert success_ok
    assert vacuous_reported, "n=16 epsilon >= 1 must be flagged, not hidden"
    assert ineq_ok
    assert ineq32_ok
    assert ptriv_ok


def test_criterion_8_fo_pipeline():
    start = time.perf_counter()
    rows = run_fo_battery(seed=0, trials=2000)
    by = {}
    for row in rows:
        by.setdefault(row.experiment, []).append(row)
    bad = [r for r in rows if not r.satisfied]
    agreements = by["fo-backend-agreement"]
    nonvac = [r for r in agreements if r.bound < 1.0 and r.satisfied]
    advantage = by["fo-theorem-advantage"][0]
    elapsed = time.perf_counter() - start
    ok = (not bad and by["fo-delta-honest"][0].satisfied
          and by["fo-gamma-honest"][0].satisfied
          and by["fo-delta-faulty"][0].satisfied
          and len(agreements) == 5 and nonvac
          and advantage.vacuous)
    announce("8", ok,
             f"delta/gamma exact, {len(agreements)} agreement trees "
             f"({len(nonvac)} non-vacuous budgets), coin-guess "
             f"{by['fo-coin-guess-rate'][0].measured:.3f}, {elapsed:.0f}s")
    assert not bad
    assert len(agreements) == 5
    assert nonvac, "need a satisfied agreement row with budget < 1"
    assert advantage.vacuous
    # sk-withheld structural test
    from qrolab.fokem import indcca_game, toy_pke, wrong_randomness_adversary

    indcca_game(toy_pke(2, 2, seed=5), wrong_randomness_adversary((0, 1)),
                "simulated-decaps", RandomChooser(3), keep_ro_query=False,
                key_bits=1)


def test_criterion_9_determinism(tmp_path):
    from qrolab.cli import main

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["interfaces", "--out", str(out)]) == 0
        outs.append((out / "results.jsonl").read_bytes())
    ok = outs[0] == outs[1]
    announce("9", ok, f"results.jsonl byte-identical across reruns "
                      f"({len(outs[0])} bytes)")
    assert ok
