"""Forked property trees against the replay oracle in properties_reference.py.

properties.py walks each preparation tree once, folds its leaves into one
purified root (a leaf register _L after D) and branches that root with
branching.branch, splitting the simulator at every decision; the reference
rebuilds every leaf from a fresh simulator.  Both must give the same numbers,
branch must give the distribution enumerate_paths gives from a per-leaf and a
purified start alike, and a branched leaf must come out untouched.  A
coherent sum of the leaves without _L passes every mass check, so the root's
reduced density on D is checked against the per-leaf tree's outright.
Property 2a's real-arithmetic commutator must match the complex one, and so
must 3a and 3b, whose densities are real-valued on the grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import properties_reference as ref
from qrolab import linalg, properties
from qrolab.branching import ReplayChooser, branch, distribution, enumerate_paths, replayed
from qrolab.config import ATOL
from qrolab.linalg import density_from_branches, total_variation, trace_distance
from qrolab.simulator import SimulatorS

CHECKS = ("ro_idempotence", "e_idempotence", "prop_4a_worst", "prop_4b_worst")


@pytest.mark.parametrize("n,m", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_forked_checks_match_replay(n, m):
    for f in properties.bundled_commits(n, m):
        for name in CHECKS:
            new = np.atleast_1d(getattr(properties, name)(f))
            old = np.atleast_1d(getattr(ref, name)(f))
            assert np.abs(new - old).max() <= 1e-15, (f.name, name, new, old)
        for prep, leaves in zip(properties._preps_for(m), properties._prep_leaves(f)):
            new = [(p, sim.backend.d_vector()) for p, sim, _ in leaves]
            old = ref._prep_branches(f, prep)
            assert [p for p, _ in new] == [p for p, _ in old]
            assert max(np.abs(a - b).max() for (_, a), (_, b) in zip(new, old)) <= 1e-15


GRID = [(n, m) for n in (1, 2) for m in (2, 3)]


def _leaf_density(leaves):
    """The per-leaf tree's density on D, from each leaf's pure D vector."""
    return density_from_branches((p, sim.backend.d_vector()) for p, sim, _ in leaves)


def _coherent(f, leaves):
    """The mutant root: sum_i sqrt(p_i) psi_i on D alone, normalized, no _L."""
    sim = SimulatorS(f, backend="dense", chooser=ReplayChooser())
    vec = sum(np.sqrt(p) * s.backend.d_vector() for p, s, _ in leaves)
    sim.backend.set_vector(vec / np.linalg.norm(vec))
    return [(1.0, sim, ())]


def _root_density_gap(f, root_for):
    """max over f's preparations of |rho_root - rho_leaves|, entrywise."""
    return max(np.abs(properties._density(root_for(f, leaves)) - _leaf_density(leaves)).max()
               for leaves in properties._prep_leaves(f))


@pytest.mark.parametrize("n,m", GRID)
def test_purified_root_density_matches_prep_tree(n, m):
    for f in properties.bundled_commits(n, m):
        for leaves in properties._prep_leaves(f):
            ((p, root, outs),) = properties._purified(f, leaves)
            assert (p, outs, root.backend.labels[-1]) == (1.0, (), "_L")
            assert abs(root.backend.norm() - 1.0) <= ATOL
        assert _root_density_gap(f, properties._purified) <= 1e-15, f.name


@pytest.mark.parametrize("n,m", GRID)
def test_coherent_sum_without_leaf_register_fails_the_density_check(n, m):
    """The mutant has unit norm, so no mass check sees it; its cross terms
    psi_i psi_j^dag put it far from the mixture."""
    for f in properties.bundled_commits(n, m):
        for leaves in properties._prep_leaves(f):
            ((_, root, _),) = _coherent(f, leaves)
            assert abs(root.backend.norm() - 1.0) <= ATOL
        assert _root_density_gap(f, _coherent) > 0.1, f.name


@pytest.mark.parametrize("n", [1, 2])
def test_real_ro_commutation_matches_complex(n):
    new, old = properties.independent_ro_commutation(n, 2), ref.independent_ro_commutation(n, 2)
    assert abs(new - old) <= 1e-15, (new, old)


def test_ro_commutation_refuses_a_complex_oracle(monkeypatch):
    monkeypatch.setattr(properties, "build_o_small", lambda n: np.eye(2 * 3) + 0j)
    with pytest.raises(TypeError, match="not real"):
        properties.independent_ro_commutation(1, 2)


@pytest.mark.parametrize("n,m", GRID)
def test_real_idempotence_matches_complex_path(n, m, monkeypatch):
    fs = properties.bundled_commits(n, m)
    root = properties._purified(fs[1], properties._prep_leaves(fs[1])[-1])
    checks = lambda: [(properties.ro_idempotence(f), *properties.e_idempotence(f)) for f in fs]
    assert not np.iscomplexobj(properties._density(root))
    real = checks()
    monkeypatch.setattr(linalg, "_real_if_exact", lambda a: np.asarray(a, dtype=complex))
    assert np.iscomplexobj(properties._density(root))
    assert np.abs(np.subtract(real, checks())).max() <= 1e-15


def test_tree_reports_count_purified_leaves_and_children():
    """3a-4b report the prep-tree leaves folded into their roots and the
    children of their splits, the same on every run; each split makes at
    most 2^n or m+1 children per node, never leaves x outcomes."""
    for f in (properties.bundled_commits(1, 3)[1], properties.bundled_commits(2, 2)[0]):
        leaves = sum(map(len, properties._prep_leaves(f)))
        for prop in ("3a", "3b", "4a", "4b"):
            report = getattr(properties, f"property_{prop}_report")
            first, again = report(f).stats, report(f).stats
            assert first == again
            assert set(first) == {"prep_leaves", "split_children"}
            assert first["prep_leaves"] == leaves > len(properties.PREPS)
            per_step = max(2**f.n, f.m + 1)
            runs = len(properties.PREPS) * max(f.m, len(f.t_values))  # (prep, x or t) pairs
            assert 0 < first["split_children"] <= runs * (per_step + per_step**2), (prop, first)


def _run_step(sim, kind, arg):
    return sim.ro_classical(arg) if kind == "ro" else sim.e_query(arg).value


@st.composite
def step_lists(draw):
    n = draw(st.integers(1, 2))
    m = draw(st.integers(2, 3))
    f = draw(st.sampled_from(properties.bundled_commits(n, m)))
    prep = draw(st.integers(0, len(properties.PREPS) - 1))
    ts = list(f.t_values)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("ro"), st.integers(0, m - 1)),
        st.tuples(st.just("e"), st.sampled_from(ts))), max_size=4))
    return f, prep, steps


@settings(max_examples=30, deadline=None)
@given(step_lists())
def test_branch_matches_enumerate_paths(case):
    """After a preparation, the steps branched from its per-leaf tree and from
    its purified root give the outcome distribution and D density of replaying
    preparation and steps from a fresh simulator."""
    f, prep, steps = case
    vecs = []

    def run(ch):
        sim = SimulatorS(f, backend="dense", chooser=ch)
        for x in properties._preps_for(f.m)[prep]:
            sim.ro_classical(x)
        outs = tuple(_run_step(sim, kind, arg) for kind, arg in steps)
        vecs.append(sim.backend.d_vector())
        return outs, len(vecs) - 1

    paths = enumerate_paths(run)
    rho_replayed = density_from_branches((p, vecs[i]) for p, (_, i) in paths)
    per_leaf = properties._prep_leaves(f)[prep]
    for leaves in (per_leaf, properties._purified(f, per_leaf)):
        for kind, arg in steps:
            split = ((lambda sim: sim.ro_branches(arg)) if kind == "ro"
                     else replayed(lambda sim: _run_step(sim, kind, arg)))
            leaves = branch(leaves, split)
        assert total_variation(distribution((p, outs) for p, (outs, _) in paths),
                               distribution((p, outs) for p, _, outs in leaves)) <= ATOL
        assert trace_distance(rho_replayed, properties._density(leaves)) <= ATOL


def test_branch_leaves_parent_untouched():
    f = properties.bundled_commits(2, 3)[1]
    base = properties._prep_leaves(f)[properties._preps_for(3).index((0, 1))]
    before = [(p, sim.backend.tensor.copy(), list(sim.log), sim.chooser, outs)
              for p, sim, outs in base]
    kids = branch(branch(base, replayed(lambda sim: sim.e_query(3).value)),
                  lambda sim: sim.ro_branches(2))
    assert len(kids) > len(base)
    for (p, sim, outs), (p0, tensor, log, chooser, outs0) in zip(base, before):
        assert (p, outs, sim.log, sim.chooser) == (p0, outs0, log, chooser)
        assert np.array_equal(sim.backend.tensor, tensor)
    assert all(len(sim.log) == 4 for _, sim, _ in kids)


class _Stub:
    """A forkable state whose one decision has most of its outcomes below
    PROB_FLOOR, so enumerate_paths prunes more than ATOL of the mass."""

    def fork(self, chooser):
        out = _Stub()
        out.chooser = chooser
        return out


def test_branch_refuses_lost_mass():
    tiny, count = 9e-16, 3_000_000
    probs = np.full(count, tiny)
    probs[0] = 1.0 - tiny * (count - 1)
    with pytest.raises(ValueError, match="mass"):
        branch([(0.5, _Stub(), ())], replayed(lambda s: s.chooser.choose(probs)))
