"""Native splits against the replay oracle.

SimulatorS.ro_branches evolves an S.RO query once and slices its responses;
replayed(ro_classical) runs the query once per response on a fork.  Both
must give the same children.  A coin's children must each get prob / count
and the parent's own state, and the 2c form must match the loop over
(leaf, xy state, t) in properties_reference.py that applies O_XYD and M_DP
outright, on the grid and on complex D vectors under random relations.
"""

import numpy as np
import pytest

import branching_reference
import properties_reference as ref
from qrolab import properties
from qrolab.branching import enumerate_paths, replayed
from qrolab.experiments import random_relations
from qrolab.oracle import OracleConfig

GRID = [(1, 2), (1, 3), (2, 2), (2, 3)]


def _tensor(sim):
    return sim.backend.tensor


@pytest.mark.parametrize("n,m", GRID)
def test_ro_branches_match_replay(n, m):
    for f in properties.bundled_commits(n, m):
        for leaves in properties._prep_leaves(f):
            for _, sim, _ in leaves:
                before, log, labels = _tensor(sim).copy(), list(sim.log), sim.backend.labels
                for x in range(m):
                    native = sim.ro_branches(x)
                    replay = {h: (q, kid) for q, kid, h
                              in replayed(lambda s: s.ro_classical(x))(sim)}
                    assert sorted(h for _, _, h in native) == sorted(replay)
                    for q, kid, h in native:
                        q0, kid0 = replay[h]
                        assert abs(q - q0) <= 1e-15, (f.name, x, h, q, q0)
                        assert kid.log == kid0.log
                        assert kid.backend.labels == kid0.backend.labels
                        diff = np.abs(kid.backend.d_vector() - kid0.backend.d_vector()).max()
                        assert diff <= 1e-15, (f.name, x, h, diff)
                    tensors = [_tensor(sim)] + [_tensor(kid) for _, kid, _ in native]
                    assert not any(np.shares_memory(a, b) for i, a in enumerate(tensors)
                                   for b in tensors[i + 1:])
                assert np.array_equal(_tensor(sim), before)
                assert sim.log == log and sim.backend.labels == labels


def test_ro_branches_refuse_an_out_of_range_query():
    sim = properties._prep_leaves(properties.bundled_commits(1, 2)[0])[0][0][1]
    with pytest.raises(ValueError, match="out of domain"):
        sim.ro_branches(2)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 7])
def test_uniform_children_share_the_state(count):
    """A coin in a walk from a root state: every child is that state itself,
    shared, with probability 1 / count, as the replay walker gives."""
    state = object()
    leaves = enumerate_paths(lambda ch: (ch.state, ch.choose_uniform(count)), state)
    replay = branching_reference.enumerate_paths(lambda ch: ch.choose_uniform(count))
    assert [(p, i) for p, (_, i) in leaves] == replay
    assert all(abs(p - 1.0 / count) <= 1e-16 for p, _ in leaves)
    assert all(child is state for _, (child, _) in leaves)


@pytest.mark.parametrize("n,m", GRID)
def test_batched_2c_matches_reference(n, m):
    for f in properties.bundled_commits(n, m):
        new, old = properties.roe_almost_commutation(f), ref.roe_almost_commutation(f)
        assert abs(new - old) <= 1e-15, (f.name, new, old)


@pytest.mark.parametrize("n,m", GRID)
def test_2c_form_matches_reference_on_complex_states(n, m):
    """Seeded complex D vectors under random relations: the preparation
    states are real, so only complex ones catch a misplaced conjugate.
    Squared distances are compared, since sqrt magnifies rounding near 0;
    each overlap sums some 2,000 complex terms on both sides, in different
    orders, so they agree within 1e-14 (2.7e-15 seen at (2, 3))."""
    rng = np.random.default_rng([n, m, 2])
    config = OracleConfig(n, m)
    relations = random_relations(n, m, 4, rng)
    weights = properties._roe_weights(config, properties._xy_states(config), relations)
    d_vecs = rng.normal(size=(3, config.d_dim())) + 1j * rng.normal(size=(3, config.d_dim()))
    d_vecs /= np.linalg.norm(d_vecs, axis=1, keepdims=True)
    new = properties._roe_distances(config, weights, d_vecs)
    old = np.stack([ref.roe_distances(config, relations, d) for d in d_vecs])
    assert new.shape == old.shape == (3, 3, 4)
    assert np.abs(new**2 - old**2).max() <= 1e-14, np.abs(new**2 - old**2).max()


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_2c_form_rejects_zero_and_non_finite_states(bad):
    f = properties.bundled_commits(1, 2)[1]
    config = OracleConfig(1, 2)
    weights = properties._roe_weights(config, properties._xy_states(config),
                                      [f.relation_for(t) for t in f.t_values])
    d_vecs = np.zeros((2, config.d_dim()), dtype=complex)
    d_vecs[:, 0] = [1.0, bad]
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite non-zero"):
        properties._roe_distances(config, weights, d_vecs)


def test_2c_report_counts_its_preparation_leaves():
    for f in (properties.bundled_commits(1, 3)[1], properties.bundled_commits(2, 2)[0]):
        report = properties.property_2c_report(f)
        assert report.stats == {"prep_leaves": sum(map(len, properties._prep_leaves(f)))}
        assert report.params == dict(n=f.n, M=f.m, f=f.name, gamma=f.gamma)
