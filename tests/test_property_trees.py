"""Forked property trees against the replay oracle in properties_reference.py.

properties.py walks each preparation tree once and branches its leaves with
branching.branch, splitting the simulator at every decision; the reference
rebuilds every leaf from a fresh simulator.  Both must give the same numbers,
branch must give the distribution enumerate_paths gives, and a branched leaf
must come out untouched.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import properties_reference as ref
from qrolab import properties
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


def _run_step(sim, kind, arg):
    return sim.ro_classical(arg) if kind == "ro" else sim.e_query(arg).value


@st.composite
def step_lists(draw):
    n = draw(st.integers(1, 2))
    m = draw(st.integers(2, 3))
    f = draw(st.sampled_from(properties.bundled_commits(n, m)))
    ts = list(f.t_values)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("ro"), st.integers(0, m - 1)),
        st.tuples(st.just("e"), st.sampled_from(ts))), max_size=4))
    return f, steps


@settings(max_examples=30, deadline=None)
@given(step_lists())
def test_branch_matches_enumerate_paths(case):
    f, steps = case
    vecs = []

    def run(ch):
        sim = SimulatorS(f, backend="dense", chooser=ch)
        outs = tuple(_run_step(sim, kind, arg) for kind, arg in steps)
        vecs.append(sim.backend.d_vector())
        return outs, len(vecs) - 1

    paths = enumerate_paths(run)
    leaves = [(1.0, SimulatorS(f, backend="dense", chooser=ReplayChooser(())), ())]
    for kind, arg in steps:
        split = ((lambda sim: sim.ro_branches(arg)) if kind == "ro"
                 else replayed(lambda sim: _run_step(sim, kind, arg)))
        leaves = branch(leaves, split)
    assert total_variation(distribution((p, outs) for p, (outs, _) in paths),
                           distribution((p, outs) for p, _, outs in leaves)) <= ATOL
    rho_replayed = density_from_branches((p, vecs[i]) for p, (_, i) in paths)
    rho_forked = density_from_branches((p, sim.backend.d_vector()) for p, sim, _ in leaves)
    assert trace_distance(rho_replayed, rho_forked) <= ATOL


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
