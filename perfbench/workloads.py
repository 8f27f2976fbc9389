"""The four benchmark workloads, built from a seed.

A workload is a list of units that make up one *pass*.  The worker repeats
passes until the measuring time is used up, so every run measures whole
passes and its unit mix, and with it p50 and p90, does not depend on when
the clock ran out.  Each unit returns its outputs as (label, measured,
verdict) triples, which the gate compares with the recorded reference.

Module functions are looked up through the module at call time
(``experiments.commutator_relation_reports(...)``), so a traced run that
replaces them sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qrolab import (bounds, branching, circuits, config, experiments, fokem,
                    oracle, properties, relations, sigma, simulator, sparse)

ATOL = config.ATOL
DEFAULT_SEED = 0
GROVER_EXPECTED = 0.18025207519531228  # exact sparse grover_experiment at n=5, m=8


@dataclass
class Unit:
    kind: str        # population label; p50/p90 are chosen to sit inside one
    key: str         # stable id for the reference file
    run: Callable[[], list]
    seeded: bool     # inputs depend on --seed, so the reference holds only for DEFAULT_SEED


@dataclass
class Workload:
    name: str
    units_for_pass: Callable[[int], list]   # pass index -> units
    warmup: list
    min_passes: int = 1
    finish: Callable[[list], list] = lambda results: []  # aggregate gate -> errors


def _report_outputs(reports) -> list:
    out = []
    for rep in reports:
        params = getattr(rep, "params", {})
        label = rep.experiment if hasattr(rep, "experiment") else "agreement"
        if "x" in params:
            label += f"[x={params['x']}]"
        measured = rep.tv if hasattr(rep, "tv") else rep.measured
        out.append((label, float(measured), bool(rep.satisfied)))
    return out


def _interleave(groups: list[list]) -> list:
    """Spread each group evenly over the pass (largest group sets the stride)."""
    tagged = [((j + 0.5) / len(group), g, u)
              for g, group in enumerate(groups) for j, u in enumerate(group)]
    tagged.sort(key=lambda t: t[:2])
    return [u for _, _, u in tagged]


# -- commutator-sweep ------------------------------------------------------------


def _commutator_unit(n, m, rel, key, seeded):
    return Unit(f"n{n}m{m}", key,
                lambda: _report_outputs(experiments.commutator_relation_reports(n, m, rel)),
                seeded)


def commutator_sweep(seed: int, smoke: bool = False) -> Workload:
    """Every n=1 relation plus seeded random relations at (2,2) and (2,3).

    Mix per pass: 16 at (1,2), 64 at (1,3), 4 at (2,2), 21 at (2,3).  Sorted
    by cost that is ranks 1-16, 17-80, 81-84 and 85-105, so p50 sits among
    the (1,3) dense-SVD relations and p90 (rank 94.5) at the middle of the
    (2,3) Lanczos relations, where it depends least on which random
    relations the seed drew.
    """
    rng = np.random.default_rng([seed, 1])
    groups = []
    for m in (2, 3):
        groups.append([_commutator_unit(1, m, rel, f"n1m{m}:{i}", False)
                       for i, rel in enumerate(experiments.all_relations(1, m))])
    for (n, m), count in (((2, 2), 4), ((2, 3), 21)):
        rels = experiments.random_relations(n, m, count, rng)
        groups.append([_commutator_unit(n, m, rel, f"n{n}m{m}:r{i}", True)
                       for i, rel in enumerate(rels)])
    if smoke:
        groups = [g[:1] for g in groups]
    units = _interleave(groups)
    for n in (1, 2):
        oracle.build_f(n)
        oracle.build_o_small(n)
    return Workload("commutator-sweep", lambda p: units, [g[-1] for g in groups])


# -- sigma-extract ----------------------------------------------------------------

SHARE_BITS = 2


def sigma_extract(seed: int, smoke: bool = False) -> Workload:
    """Monte-Carlo online extraction over the product backend.

    Mix per pass: 30 honest trials at n=16, 10 trivial-attack trials at n=16
    and 10 honest trials at n=20.  The n=16 trials are 80% of units, so p50
    lands among them; the n=20 trials are the top 20%, so p90 lands there.
    Every pass draws fresh trial seeds; the gate uses binomial 3-sigma bands.
    A run times at least eight passes (about 20 s): with the five or six
    passes that 100 units and 10 s need, units_per_s spread by 7% over ten
    seeds.
    """
    spec = sigma.xor_toy_spec(share_bits=SHARE_BITS, randomness_bits=16)
    access = sigma.threshold_structure(2, len(spec.challenges))
    hook = sigma.xor_toy_hook(SHARE_BITS)
    gen = sigma.xor_instance_gen(SHARE_BITS)
    commits = {n: relations.identity_commit(n, spec.domain_size) for n in (16, 20)}
    mix = ((sigma.HonestProver, 16, 30), (sigma.TrivialAttackProver, 16, 10),
           (sigma.HonestProver, 20, 10))
    if smoke:
        mix = tuple((cls, n, 1) for cls, n, _ in mix)
    per_pass = sum(c for _, _, c in mix)

    def trial(cls, n, seq):
        def run():
            s_real, s_sim = seq.spawn(2)
            p_rng, o_rng = (np.random.default_rng(s) for s in s_real.spawn(2))
            instance, shares = gen(p_rng)
            prover = cls(spec, instance, shares, p_rng, share_bits=SHARE_BITS)
            chooser = branching.RandomChooser(o_rng)
            won = sigma.run_real_game(prover, spec, instance, chooser, n)
            p_seed, o_seed = s_sim.spawn(2)
            p_rng2 = np.random.default_rng(p_seed)
            instance2, shares2 = gen(p_rng2)
            prover2 = cls(spec, instance2, shares2, p_rng2, share_bits=SHARE_BITS)
            sim = simulator.SimulatorS(commits[n], backend="product", seed=o_seed)
            witness, _ = sigma.online_extract(prover2, spec, access, hook,
                                              instance2, sim)
            extracted = witness is not None and sigma.xor_witness_checker(instance2, witness)
            out = [("real_game_won", float(won), True),
                   ("witness_extracted", float(extracted), True)]
            if cls is sigma.TrivialAttackProver:
                # a trivial attack never commits to a witness: p_extract <= ATOL
                out[1] = ("witness_extracted", float(extracted), not extracted)
            return out
        return run

    def units_for_pass(p):
        seqs = iter(np.random.SeedSequence([seed, 2, p]).spawn(per_pass))
        groups = [[Unit(f"{cls.__name__}-n{n}", f"{cls.__name__}-n{n}",
                        trial(cls, n, next(seqs)), True) for _ in range(count)]
                  for cls, n, count in mix]
        return _interleave(groups)

    warm_seqs = iter(np.random.SeedSequence([seed, 3]).spawn(len(mix)))
    warmup = [Unit("warmup", "warmup", trial(cls, n, next(warm_seqs)), True)
              for cls, n, _ in mix]

    return Workload("sigma-extract", units_for_pass, warmup, finish=sigma_bands,
                    min_passes=8)


def sigma_bands(results) -> list:
    """Binomial 3-sigma gates on the Monte-Carlo rates, per population.

    results: (unit, outputs or None) pairs.  Returns (kind, message) errors.
    """
    errors = []
    by_kind: dict[str, list] = {}
    for unit, outs in results:
        if outs is not None:
            by_kind.setdefault(unit.kind, []).append(dict((k, v) for k, v, _ in outs))
    for kind, rows in sorted(by_kind.items()):
        trials = len(rows)
        p_extract = sum(r["witness_extracted"] for r in rows) / trials
        p_prover = sum(r["real_game_won"] for r in rows) / trials
        if kind.startswith("HonestProver"):
            floor = 0.99 - 3.0 * math.sqrt(0.99 * 0.01 / trials)
            if p_extract < floor:
                errors.append((kind, f"honest p_extract {p_extract:.4f} < {floor:.4f} "
                                     f"over {trials} trials"))
        else:
            if p_extract > ATOL:
                errors.append((kind, f"trivial-attack p_extract {p_extract} > ATOL"))
            band = 3.0 * math.sqrt((1 / 3) * (2 / 3) / trials)
            if abs(p_prover - 1 / 3) > band:
                errors.append((kind, f"trivial-attack p_prover {p_prover:.4f} outside "
                                     f"1/3 +- {band:.4f} over {trials} trials"))
    return errors


# -- game-tree ----------------------------------------------------------------------

PROPERTY_REPORTS = ("2b", "2c", "3a", "3b", "4a", "4b")


def game_tree(seed: int, smoke: bool = False) -> Workload:
    """Exhaustive Born-rule enumeration on the dense backend.

    One pass: the 64 RO-indistinguishability circuits, the property reports
    2a-4b over n in {1,2}, m in {2,3} and the three bundled commit functions
    (76 reports), and the four FO backend-agreement trees; 144 units.  The
    seed only shuffles their order: all inputs are fixed.  A run times at
    least two passes: p50 sits where unit costs climb steeply (about 2.5%
    per rank), and over five seeds its spread was 16% with one pass and 3%
    with two.
    """
    units = [Unit("circuit", f"circ:{circ['name']}", _gap(circ), False)
             for circ in circuits.equivalence_suite()]
    for n in (1, 2):
        for m in (2, 3):
            units.append(Unit("property", f"prop:2a:n{n}m{m}",
                              lambda n=n, m=m: _report_outputs(
                                  [properties.property_2a_report(n, m)]), False))
            for f in properties.bundled_commits(n, m):
                for prop in PROPERTY_REPORTS:
                    units.append(Unit(
                        "property", f"prop:{prop}:n{n}m{m}:{f.name}",
                        lambda f=f, prop=prop: _report_outputs(
                            [getattr(properties, f"property_{prop}_report")(f)]),
                        False))
    pke22 = fokem.toy_pke(2, 2, seed=5)
    fo_cases = [  # the cheapest tree first, so that smoke runs keep it
        (fokem.garbage_decaps_adversary(fokem.first_non_image_ciphertext(pke22)), True),
        (fokem.key_checking_adversary((0, 1), 2), True),
        (fokem.wrong_randomness_adversary((0, 1)), True),
        (fokem.wrong_randomness_adversary((0, 1)), False),
    ]
    for i, (adv, keep) in enumerate(fo_cases):
        units.append(Unit("fo", f"fo:{i}", lambda adv=adv, keep=keep: _report_outputs(
            [fokem.backend_agreement_experiment(pke22, adv, keep_ro_query=keep,
                                                key_bits=1)]), False))
    warmup = list({u.kind: u for u in reversed(units)}.values())
    if smoke:  # one unit per circuit/FO kind and per property report type
        units = list({u.key.split(":n")[0]: u for u in reversed(units)
                      if u.kind == "property"}.values()) + warmup
    order = np.random.default_rng([seed, 4]).permutation(len(units))
    units = [units[i] for i in order]
    for n in (1, 2):
        oracle.build_f(n)
        oracle.build_o_small(n)
        oracle.walsh(n)
    return Workload("game-tree", lambda p: units, warmup, min_passes=2)


def _gap(circ):
    def run():
        gap = float(circuits.indistinguishability_gap(circ, backend="dense"))
        return [("gap", gap, gap <= ATOL)]
    return run


# -- sparse-map ---------------------------------------------------------------------

GROVER_N, GROVER_M = 5, 8
RT_N, RT_DOMAIN_BITS = 16, 20


def sparse_map(seed: int, smoke: bool = False) -> Workload:
    """The flat-map SparseState, used for quantum and for classical queries.

    Mix per pass, with costs at the seed commit:
    - 16 Grover sample paths with the uncompute query (~130 ms);
    - 2 of the same paths followed by a classical query of the measured x
      (~180 ms).  The query needs the computational basis, so basis_switch
      transforms a populated database and sparse.fwht does work;
    - 3 Grover paths without the uncompute query (~280 ms);
    - 3 classical ro->E->ro->E round trips at n=16 over a 2^20 domain
      (~440 ms);
    - the exact grover_experiment at n=5, m=8 with uncompute (~1 s).
    An untraced run times four passes (100 units).  Sorted, the plain paths
    fill ranks 1-64, so p50 sits among them, and the round trips fill ranks
    85-96, so p90 (rank 90.1) sits among them.
    """
    seq = np.random.SeedSequence([seed, 5])
    mix = (("grover-2q", True, 16), ("grover-1it", False, 3))
    circs = {k: experiments.grover_one_iteration_circuit(GROVER_N, GROVER_M, unc)
             for k, unc, _ in mix}
    groups = []
    for kind, _, count in mix:
        seeds = [int(s.generate_state(1)[0]) for s in seq.spawn(count)]
        groups.append([Unit(kind, f"{kind}:{i}", _grover_path(circs[kind], s), True)
                       for i, s in enumerate(seeds)])
    commit = relations.identity_commit(RT_N, 2**RT_DOMAIN_BITS)
    rt_rng = np.random.default_rng(seq.spawn(1)[0])
    groups.append([Unit("round-trip", f"rt:{i}",
                        _round_trip(commit, int(rt_rng.integers(2**RT_DOMAIN_BITS)),
                                    int(rt_rng.integers(2**32))), True)
                   for i in range(3)])
    seeds = [int(s.generate_state(1)[0]) for s in seq.spawn(2)]
    groups.append([Unit("grover-2q-query", f"grover-2q-query:{i}",
                        _grover_then_query(circs["grover-2q"], s), True)
                   for i, s in enumerate(seeds)])
    rel = relations.Relation(GROVER_N, GROVER_M, lambda x, y: y == 0)

    def grover_exact():
        rep = bounds.grover_experiment(circs["grover-2q"], rel, backend="sparse")
        return [("grover", float(rep.measured),
                 bool(rep.satisfied) and abs(rep.measured - GROVER_EXPECTED) <= ATOL)]

    groups.append([Unit("grover-exact", "grover-exact", grover_exact, False)])
    if smoke:
        groups = [g[:1] for g in groups]
    units = _interleave(groups)
    oracle.walsh(GROVER_N)
    return Workload("sparse-map", lambda p: units, [g[0] for g in groups])


def _grover_path(circ, chooser_seed):
    def run():
        out = circuits.run_circuit_compressed(
            circ, branching.RandomChooser(chooser_seed), backend="sparse")
        return [("x", float(out[0]), 0 <= out[0] < circ["m"])]
    return run


def _grover_then_query(circ, chooser_seed):
    """The Grover circuit step by step on a SparseState, then a measurement of
    X and a classical query of RO(x) from the Hadamard frame."""
    regs = circuits.circuit_registers(circ)
    dims_of = dict(regs)
    big_n = 2 ** circ["n"]

    def run():
        chooser = branching.RandomChooser(chooser_seed)
        state = sparse.SparseState(circ["n"], circ["m"], q_cap=8, prefix=regs)
        for step in circ["steps"]:
            if step["op"] == "unitary":
                targets = step["targets"]
                state.apply_prefix_unitary(
                    targets, circuits.gate_matrix(step, [dims_of[t] for t in targets]))
            else:
                state.quantum_query("X", "Y")
        x = state.measure_prefix("X", chooser)
        h = state.classical_query(x, chooser)
        norm = state.norm_sq()
        return [("x", float(x), 0 <= x < circ["m"]), ("h", float(h), 0 <= h < big_n),
                ("norm_sq", norm, abs(norm - 1.0) <= 1e-9)]
    return run


def _round_trip(commit, x, oracle_seed):
    """ro(x) -> E(h) -> ro(x) -> E(h): one query point, so the map stays small."""
    def run():
        sim = simulator.SimulatorS(commit, backend="sparse", seed=oracle_seed)
        h = sim.ro_classical(x)
        e1 = sim.e_query(h)
        h2 = sim.ro_classical(x)
        e2 = sim.e_query(h2)
        return [("h", float(h), True),
                ("h_again", float(h2), h2 == h),
                ("e", float(e1.value if not e1.is_empty else -1), e1.value == x),
                ("e_again", float(e2.value if not e2.is_empty else -1), e2.value == x)]
    return run


WORKLOADS = {
    "commutator-sweep": commutator_sweep,
    "sigma-extract": sigma_extract,
    "game-tree": game_tree,
    "sparse-map": sparse_map,
}
