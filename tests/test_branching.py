"""Spiked draws: choose_spiked must make exactly the draw choose() makes on
the dense probability vector, and refuse mass that does not sum to 1."""

import numpy as np
import pytest

from qrolab.branching import RandomChooser, ReplayChooser, _check_mass, _clean_probs, \
    _spiked_mass, branch
from qrolab.config import ATOL


def dense(count, base, spikes):
    probs = np.full(count, base)
    for i, p in spikes.items():
        probs[i] = p
    return probs


def normalized(count, base, spikes):
    total = base * (count - len(spikes)) + sum(spikes.values())
    return base / total, {i: p / total for i, p in spikes.items()}


def random_case(rng):
    count = int(rng.integers(1, 50))
    idx = rng.choice(count, size=int(rng.integers(0, min(count, 6) + 1)), replace=False)
    spikes = {int(i): float(rng.random()) for i in idx}
    base = float(rng.random())
    return count, base, spikes


# (count, base, spikes) before normalization
EDGE_CASES = [
    (8, 0.0, {2: 0.5, 5: 0.5}),               # zero base
    (8, 1.0, {0: 3.0}),                         # spike at 0
    (8, 1.0, {7: 3.0}),                         # spike at count - 1
    (8, 1.0, {0: 0.0, 3: 0.0, 7: 0.0}),         # zero-mass spikes
    (8, 0.0, {0: 0.0, 4: 1.0, 7: 0.0}),         # one live outcome
    (1, 1.0, {}),
    (2**16, 1.0, {0: 2.0**10, 1: 0.0, 2**16 - 1: 5.0}),
]


def assert_same_draw(seed, count, base, spikes):
    base, spikes = normalized(count, base, spikes)
    fast, slow = RandomChooser(seed), RandomChooser(seed)
    outcome = fast.choose_spiked(count, base, spikes)
    assert outcome == slow.choose(dense(count, base, spikes))
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
    return outcome


@pytest.mark.parametrize("case", EDGE_CASES)
def test_edge_cases_draw_like_dense(case):
    seen = {assert_same_draw(seed, *case) for seed in range(300)}
    count, base, spikes = case
    live = {i for i in range(count) if spikes.get(i, base) > 0.0}
    assert seen <= live


def test_random_cases_draw_like_dense():
    rng = np.random.default_rng(7)
    for seed in range(2000):
        assert_same_draw(seed, *random_case(rng))


def test_spiked_sequence_keeps_generator_in_step():
    fast, slow = RandomChooser(3), RandomChooser(3)
    rng = np.random.default_rng(11)
    for _ in range(50):
        count, base, spikes = random_case(rng)
        base, spikes = normalized(count, base, spikes)
        assert fast.choose_spiked(count, base, spikes) == slow.choose(dense(count, base, spikes))
        assert fast.choose_uniform(count) == slow.choose_uniform(count)
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state


@pytest.mark.parametrize("chooser", [RandomChooser(0), ReplayChooser(())])
def test_mass_off_by_more_than_atol_raises(chooser):
    for base, spikes in [(0.1, {0: 0.2}), (0.0, {1: 1.0 + 10 * ATOL}),
                         (0.25, {0: 0.25 - 10 * ATOL})]:
        with pytest.raises(ValueError, match="mass"):
            chooser.choose_spiked(4, base, spikes)
    with pytest.raises(ValueError):
        chooser.choose_spiked(4, 0.5, {0: -0.5})
    with pytest.raises(ValueError):
        chooser.choose_spiked(4, 0.25, {4: 0.25})


def test_mass_within_atol_is_accepted():
    assert RandomChooser(0).choose_spiked(4, 0.25, {0: 0.25 + ATOL / 10}) in range(4)


def test_replay_spiked_records_dense_probs():
    ch = ReplayChooser((2,))
    assert ch.choose_spiked(4, 0.2, {2: 0.4}) == 2
    assert np.allclose(ch.branch_probs[0], [0.2, 0.2, 0.4, 0.2])
    # past the script: the first live outcome, and its siblings pushed with their q
    assert ch.choose_spiked(4, 0.2, {2: 0.4}) == 0
    assert abs(ch.path_prob - 0.2) <= ATOL
    assert [s for _, _, s in ch.pending] == [(2, 1), (2, 2), (2, 3)]
    assert np.allclose([p for p, _, _ in ch.pending], [0.2, 0.4, 0.2])


@pytest.mark.parametrize("chooser", [RandomChooser(0), ReplayChooser(())])
def test_dense_draw_refuses_mass_off_by_1e6(chooser):
    for off in (1e-6, -1e-6):
        with pytest.raises(ValueError, match="deviates from 1"):
            chooser.choose([0.5, 0.5 + off])
    assert chooser.choose([0.5, 0.5 + ATOL / 10]) in (0, 1)


def test_check_mass_rejects_nan():
    with pytest.raises(ValueError, match="outcome mass"):
        _check_mass(float("nan"))


def test_clean_probs_rejects_nan():
    with pytest.raises(ValueError, match="outcome mass"):
        _clean_probs([np.nan, 0.5])


def test_spiked_mass_rejects_nan():
    with pytest.raises(ValueError, match="NaN outcome probability"):
        _spiked_mass(4, float("nan"), {})
    with pytest.raises(ValueError, match="NaN outcome probability"):
        _spiked_mass(4, 0.25, {1: float("nan")})


def test_branch_rejects_a_nan_child():
    def split(state):
        return [(float("nan"), state, 0), (1.0, state, 1)]

    with pytest.raises(ValueError, match="children carry mass"):
        branch([(1.0, None, ())], split)
