"""Named experiment batteries: the grids behind the CLI and acceptance suite.

Every battery returns a list of Reports.  Their runtimes go to the CLI's
side channel, so the results.jsonl rows stay byte-deterministic per seed.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np

from .bounds import (
    OxMCommutator,
    Report,
    collision_experiment,
    early_extraction_experiment,
    full_commutator_norm_direct,
    grover_experiment,
    interface_soundness_experiment,
    relation_chain_monotonicity,
    theorem_bound,
    theorem_commutator_norm,
    timed,
    verify_local_bounds,
)
from .branching import RandomChooser, enumerate_paths
from .circuits import equivalence_suite, indistinguishability_gap
from .config import ATOL
from .fokem import (
    backend_agreement_experiment,
    coin_guess_adversary,
    delta_correctness_estimate,
    first_non_image_ciphertext,
    gamma_spread_estimate,
    garbage_decaps_adversary,
    guessing_ow_adversary,
    indcca_game,
    key_checking_adversary,
    ow_cpa_game,
    toy_pke,
    wrong_randomness_adversary,
)
from .oracle import OracleConfig
from .properties import theorem2_property_suite, toy_encryption_commit
from .relations import CommitFunction, Relation, identity_commit
from .sigma import (
    HonestProver,
    NoCommitProver,
    TrivialAttackProver,
    p_trivial,
    p_trivial_parallel,
    run_sigma_experiment,
    threshold_structure,
    xor_instance_gen,
    xor_toy_hook,
    xor_toy_spec,
    xor_witness_checker,
)

CSV_COLUMNS = ["experiment", "n", "M", "gamma", "q", "measured", "bound",
               "satisfied", "runtime_ms"]


def all_relations(n: int, m: int):
    pairs_all = [(x, y) for x in range(m) for y in range(2**n)]
    for code in range(2 ** len(pairs_all)):
        yield Relation.from_pairs(
            n, m, [p for k, p in enumerate(pairs_all) if code >> k & 1]
        )


def random_relations(n: int, m: int, count: int, rng) -> list[Relation]:
    out = []
    for _ in range(count):
        p = float(rng.uniform(0.1, 0.9))
        pairs = [(x, y) for x in range(m) for y in range(2**n)
                 if rng.random() < p]
        out.append(Relation.from_pairs(n, m, pairs))
    return out


# -- commutator battery (acceptance 2 + 3) ----------------------------------------


def commutator_relation_reports(n: int, m: int, rel: Relation) -> list[Report]:
    """Theorem, local, and lifting reports for one relation.

    The per-x commutator norms are computed once and shared between the
    theorem report and the lifting inequality.
    """
    config = OracleConfig(n, m)
    per_x = [timed(lambda: OxMCommutator(rel, config, x).norm()) for x in range(m)]
    reps = [Report(
        "commutator-theorem", dict(n=n, M=m, gamma=rel.gamma),
        max(norm for norm, _ in per_x), theorem_bound(n, rel.gamma),
        runtime_ms=sum(ms for _, ms in per_x),
    )]
    local_reps = verify_local_bounds(n, rel)
    reps.extend(local_reps)
    # rows come in (F-Pi, O-Pi, O-PiEmpty) triples per x, and the Pi^empty
    # norm is the Pi^x one, so the lifting rhs 3 ||[O, Pi]|| + ||[O, Pi^empty]||
    # is 4 ||[O, Pi]||
    for x, ((norm, ms), o_pi) in enumerate(zip(per_x, local_reps[1::3])):
        reps.append(Report(
            "lifting-inequality", dict(n=n, M=m, x=x, gamma=rel.gamma_x(x)),
            norm, 4 * o_pi.measured, runtime_ms=ms,
        ))
    return reps


def run_commutator_battery(seed: int, random_count: int) -> list[Report]:
    """Exhaustive n=1 sweeps (m=2 and m=3) plus random_count random
    relations at n=2, half at m=2 and half at m=3 (m=2 takes an odd one),
    then two checks at n=1, m=2: the block reduction against the direct
    dense build, and the monotonicity probe."""
    rng = np.random.default_rng(seed)
    reports: list[Report] = []
    for m in (2, 3):
        for rel in all_relations(1, m):
            reports.extend(commutator_relation_reports(1, m, rel))
    grid = [(2, 2), (2, 3)]
    per, extra = divmod(random_count, len(grid))
    for i, (n, m) in enumerate(grid):
        for rel in random_relations(n, m, per + (extra if i == 0 else 0), rng):
            reports.extend(commutator_relation_reports(n, m, rel))
    rel = Relation.from_pairs(1, 2, [(0, 0)])
    config = OracleConfig(1, 2)
    gap, ms = timed(lambda: abs(full_commutator_norm_direct(rel, config)
                                - theorem_commutator_norm(rel, config)))
    reports.append(Report(
        "commutator-block-reduction-crosscheck", dict(n=1, M=2, gamma=1),
        gap, 0.0, runtime_ms=ms,
    ))
    chain = [
        Relation.from_pairs(1, 2, []),
        Relation.from_pairs(1, 2, [(0, 0)]),
        Relation.from_pairs(1, 2, [(0, 0), (1, 0)]),
        Relation.from_pairs(1, 2, [(0, 0), (1, 0), (0, 1)]),
    ]
    reports.append(relation_chain_monotonicity(1, 2, chain))
    return reports


# -- RO-indistinguishability battery (acceptance 1) ---------------------------------


def run_equivalence_battery(backend: str) -> list[Report]:
    suite = equivalence_suite()
    reports = []
    for circ in suite:
        gap, ms = timed(lambda: indistinguishability_gap(circ, backend=backend))
        reports.append(Report(
            "ro-indistinguishability",
            dict(n=circ["n"], M=circ["m"], circuit=circ["name"], backend=backend),
            gap, 0.0, runtime_ms=ms,
        ))
    return reports


# -- grover battery (acceptance 6a) ---------------------------------------------------


def grover_blind_circuit(n: int, m: int) -> dict:
    return {"name": "grover-blind-guess", "n": n, "m": m, "registers": [],
            "steps": [], "output": ["X"]}


def grover_one_iteration_circuit(n: int, m: int, uncompute: bool = False) -> dict:
    """Compute H into Y, flip the phase of the all-zero response, diffuse X.

    Without the uncompute query the Y register decoheres X and no
    amplification happens; with it (q = 2) the textbook gain appears.
    """
    big_n = 2**n
    mark = np.eye(big_n, dtype=complex)
    mark[0, 0] = -1.0
    diffusion = 2.0 * np.full((m, m), 1.0 / m) - np.eye(m)
    pack = lambda mat: np.stack([mat.real, mat.imag], axis=-1).tolist()
    steps = [
        {"op": "unitary", "targets": ["X"], "gate": "fourier"},
        {"op": "query"},
        {"op": "unitary", "targets": ["Y"], "matrix": pack(mark)},
    ]
    if uncompute:
        steps.append({"op": "query"})
    steps.append({"op": "unitary", "targets": ["X"], "matrix": pack(diffusion)})
    return {
        "name": f"grover-{'2q' if uncompute else '1it'}-n{n}m{m}",
        "n": n, "m": m, "registers": [], "steps": steps, "output": ["X"],
    }


def run_grover_battery() -> list[Report]:
    reports = []
    rel34 = Relation(3, 4, lambda x, y: y == 0)
    reports.append(grover_experiment(grover_blind_circuit(3, 4), rel34,
                                     backend="dense"))
    rel31 = Relation(3, 2, lambda x, y: y == 0)
    reports.append(grover_experiment(grover_one_iteration_circuit(3, 2), rel31,
                                     backend="dense"))
    rel6 = Relation(6, 8, lambda x, y: y == 0)
    reports.append(grover_experiment(grover_one_iteration_circuit(6, 8), rel6,
                                     backend="sparse"))
    reports.append(grover_experiment(grover_one_iteration_circuit(6, 8, True),
                                     rel6, backend="sparse"))
    return reports


# -- collision battery (acceptance 6b) -------------------------------------------------


def run_collision_battery() -> list[Report]:
    reports = []
    ident32 = identity_commit(3, 2)

    def no_queries(ro):
        return None

    reports.append(collision_experiment(no_queries, ident32, q=0))

    def two_queries(ro):
        ro(0)
        ro(1)

    reports.append(collision_experiment(two_queries, ident32, q=2))
    toyenc = toy_encryption_commit(3, 2)
    reports.append(collision_experiment(two_queries, toyenc, q=2))
    return reports


# -- interface-soundness battery (acceptance 6c) ----------------------------------------


def run_interfaces_battery() -> list[Report]:
    reports = []
    for n, m in [(1, 2), (2, 2), (2, 3)]:
        ident = identity_commit(n, m)
        toyenc = toy_encryption_commit(n, m)

        def garbage_t(sim):
            return [2**n - 1]  # t announced without any query

        reports.append(interface_soundness_experiment(
            "hard-property", garbage_t, ident,
            r_prime=lambda x, t: True,
        ))

        def honest_preimage_hunt(sim):
            h = sim.ro(0)
            return [h]

        reports.append(interface_soundness_experiment(
            "hard-property", honest_preimage_hunt, ident,
            r_prime=lambda x, t: t == 0,
        ))

        def honest_collision(sim):
            h = sim.ro(m - 1)
            return ([toyenc(m - 1, h)], [m - 1])

        reports.append(interface_soundness_experiment(
            "hard-collision", honest_collision, toyenc, in_run_ro=False,
        ))

        def honest_collision_ident(sim):
            h = sim.ro(m - 1)
            return ([h], [m - 1])

        reports.append(interface_soundness_experiment(
            "hard-collision", honest_collision_ident, ident, in_run_ro=False,
        ))
    return reports


# -- early-extraction battery (acceptance 6 context / module op) -------------------------


class HonestCommitter:
    """One commitment to x = 0, opened immediately; no extra second-round queries."""

    def __init__(self, f: CommitFunction):
        self.f = f

    def run(self, ro, announce):
        h = ro(0)
        announce(self.f(0, h))
        return [0], ()


class RefusingCommitter:
    """Announces a commitment but refuses to open (outputs None)."""

    def __init__(self, f: CommitFunction):
        self.t0 = next(iter(f.t_values))

    def run(self, ro, announce):
        announce(self.t0)
        return [None], ()


class AdaptiveTwoQueryCommitter:
    """q = 2 adaptive queries around the announcement."""

    def __init__(self, f: CommitFunction):
        self.f = f

    def run(self, ro, announce):
        h0 = ro(0)
        announce(self.f(0, h0))
        x1 = 1 if h0 % 2 else 0
        ro(x1)
        return [0], (h0 % 2,)


def run_early_extraction_battery() -> list[Report]:
    reports = []
    ident12 = identity_commit(1, 2)
    toyenc22 = toy_encryption_commit(2, 2)
    for f, adv, multi in [
        (toyenc22, HonestCommitter(toyenc22), False),
        (ident12, RefusingCommitter(ident12), False),
        (ident12, AdaptiveTwoQueryCommitter(ident12), False),
        (toyenc22, HonestCommitter(toyenc22), True),
    ]:
        reports.extend(early_extraction_experiment(adv, f, multi=multi))
    return reports


# -- sigma battery (acceptance 7) ---------------------------------------------------------


def run_sigma_battery(seed: int, trials: int,
                      inequality_trials: int = 300) -> list[Report]:
    """Trivial-attack probabilities, which must equal their exact values, and
    four extraction experiments, each with its own verdict."""
    share_bits = 2
    spec = xor_toy_spec(share_bits=share_bits, randomness_bits=16)
    access = threshold_structure(2, len(spec.challenges))
    hook = xor_toy_hook(share_bits)
    gen = xor_instance_gen(share_bits)
    honest = lambda s, i, w, r: HonestProver(s, i, w, r, share_bits=share_bits)

    def exact(name, value_ms, expected):
        value, ms = value_ms
        return Report(name, {}, float(value), float(expected), satisfied=value == expected,
                      stats=dict(p_triv=str(value)), runtime_ms=ms)

    from .fixtures import load  # importlib.resources is slow to import

    pt, pt_ms = timed(lambda: p_trivial(spec, access))
    pairs_spec = load("sigma-2of10-pairs")
    t2_10 = threshold_structure(2, len(pairs_spec.challenges))
    reports = [
        exact("sigma-p-trivial", (pt, pt_ms), Fraction(1, 3)),
        exact("sigma-p-trivial-2of10", timed(lambda: p_trivial(pairs_spec, t2_10)),
              Fraction(1, 10)),
        exact("sigma-p-trivial-parallel-r2",
              timed(lambda: p_trivial_parallel(spec, access, 2)), pt**2),
    ]

    rep16 = run_sigma_experiment(honest, spec, access, hook, gen,
                                 xor_witness_checker, n=16, trials=trials, seed=seed)
    reports.append(replace(rep16, experiment="sigma-honest-n16",
                           satisfied=rep16.measured >= 0.99))

    rep_ineq = run_sigma_experiment(honest, spec, access, hook, gen,
                                    xor_witness_checker, n=32,
                                    trials=inequality_trials, seed=seed + 1)
    reports.append(replace(rep_ineq, experiment="sigma-inequality-n32",
                           satisfied=(not rep_ineq.vacuous) and rep_ineq.satisfied))

    trivial = lambda s, i, w, r: TrivialAttackProver(s, i, w, r,
                                                     share_bits=share_bits)
    rep_triv = run_sigma_experiment(trivial, spec, access, hook, gen,
                                    xor_witness_checker, n=16, trials=min(trials, 1000),
                                    seed=seed + 2)
    reports.append(replace(
        rep_triv, experiment="sigma-trivial-attack",
        satisfied=rep_triv.measured <= ATOL
        and abs(rep_triv.stats["p_prover"] - 1 / 3) <= 0.1))

    nocommit = lambda s, i, w, r: NoCommitProver(s)
    rep_nc = run_sigma_experiment(nocommit, spec, access, hook, gen,
                                  xor_witness_checker, n=16, trials=200, seed=seed + 3)
    reports.append(replace(
        rep_nc, experiment="sigma-no-commit",
        satisfied=rep_nc.measured == 0.0 and rep_nc.stats["p_prover"] == 0.0))
    return reports


# -- FO battery (acceptance 8) --------------------------------------------------------------


def run_fo_battery(seed: int, trials: int) -> list[Report]:
    """Exact correctness and spreadness values, the backend-agreement trees,
    and the two guessing games; each row supplies its own verdict."""
    def spread(pke):
        return gamma_spread_estimate(pke, "strict"), gamma_spread_estimate(pke, "weak")

    pke = toy_pke(3, 2, seed=5)
    delta, ms_delta = timed(lambda: delta_correctness_estimate(pke))
    (g_strict, g_weak), ms_gamma = timed(lambda: spread(pke))
    delta_f, ms_faulty = timed(lambda: delta_correctness_estimate(
        toy_pke(3, 2, seed=5, faulty_cells=1)))
    (gs, gw), ms_gap = timed(lambda: spread(
        toy_pke(3, 2, seed=5, num_keys=4, constant_ct_message=True)))
    reports = [
        Report("fo-delta-honest", {}, float(delta), 0.0, satisfied=delta == 0,
               runtime_ms=ms_delta),
        Report("fo-gamma-honest", {}, g_strict, float(pke.randomness_bits),
               satisfied=g_strict == pke.randomness_bits == g_weak, runtime_ms=ms_gamma),
        Report("fo-delta-faulty", {}, float(delta_f), 1 / 4,
               satisfied=delta_f == 1 / 4, stats=dict(analytic="1/4"), runtime_ms=ms_faulty),
        Report("fo-gamma-gap", {}, gs, gw, satisfied=gs == 0.0 and gw > 0.0,
               runtime_ms=ms_gap),
    ]

    pke22 = toy_pke(2, 2, seed=5)
    agreements = [
        backend_agreement_experiment(pke22, key_checking_adversary((0, 1), 2),
                                     keep_ro_query=True, key_bits=1),
        backend_agreement_experiment(pke22, wrong_randomness_adversary((0, 1)),
                                     keep_ro_query=True, key_bits=1),
        backend_agreement_experiment(pke22, wrong_randomness_adversary((0, 1)),
                                     keep_ro_query=False, key_bits=1),
        backend_agreement_experiment(
            pke22, garbage_decaps_adversary(first_non_image_ciphertext(pke22)),
            keep_ro_query=True, key_bits=1),
        # one Decaps and no RO query after it: no swap term, so the budget
        # 4/2^n = 0.5 binds at n = 3
        backend_agreement_experiment(toy_pke(2, 3, seed=5), key_checking_adversary((0,), 1),
                                     key_bits=1),
    ]
    reports.extend(replace(rep, experiment="fo-backend-agreement") for rep in agreements)

    # coin-guessing adversary: win rate 1/2 within 3 sigma over seeded trials
    rng = np.random.default_rng(seed)
    wins, ms = timed(lambda: sum(
        indcca_game(pke22, coin_guess_adversary, "real-decaps", RandomChooser(rng),
                    key_bits=1) for _ in range(trials)))
    rate = wins / trials
    slack = 3.0 * np.sqrt(0.25 / trials)
    reports.append(Report("fo-coin-guess-rate", dict(trials=trials), rate,
                          0.5 + slack, satisfied=abs(rate - 0.5) <= slack, runtime_ms=ms))

    # OW-CPA guessing adversary: exact win probability 1/|M|
    paths, ms = timed(lambda: enumerate_paths(
        lambda ch: ow_cpa_game(pke, guessing_ow_adversary, ch)
    ))
    p_win = sum(p for p, win in paths if win)
    reports.append(Report("fo-owcpa-guess", {}, float(p_win), 1 / 3,
                          satisfied=abs(p_win - 1 / 3) <= ATOL, runtime_ms=ms))

    # FO theorem advantage inequality: vacuous at desk scale (bound >= 1), so
    # it is reported with its numeric bound and nothing is measured
    q = 6
    adv_bound, ms = timed(lambda: (
        2 * q * np.sqrt(1 / 3) + 24 * q**2 * np.sqrt(float(delta))
        + 24 * q * np.sqrt(q * 2) * 2.0 ** (-pke.randomness_bits / 4)))
    reports.append(Report("fo-theorem-advantage", {}, 0.0, float(adv_bound),
                          vacuous=adv_bound >= 1.0, runtime_ms=ms))
    return reports


# -- sweep ------------------------------------------------------------------------------


def run_sweep(seed: int) -> list[Report]:
    return [
        *run_equivalence_battery(backend="dense"),
        *run_commutator_battery(seed, random_count=40),
        *theorem2_property_suite(ns=(1,), ms=(2,)),
        *run_grover_battery(),
        *run_collision_battery(),
        *run_interfaces_battery(),
        *run_early_extraction_battery(),
        *run_sigma_battery(seed, trials=300, inequality_trials=100),
        *run_fo_battery(seed, trials=500),
    ]
