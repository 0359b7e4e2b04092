import warnings

import numpy as np
import pytest

from oracles import reference_draws, splitmix64_draw, splitmix64_mix, splitmix64_unmix
from srlab import experiments
from srlab.distopt import Preset, PsoConfig, optimize_table
from srlab.streams import RandomStream, _draw_thresholds, _mix64, _mix_shift, _steps, draws_at, substream_phases


def test_reproducible_for_seed():
    a = RandomStream(1234).uniform(100)
    b = RandomStream(1234).uniform(100)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RandomStream(1).uniform(100)
    b = RandomStream(2).uniform(100)
    assert not np.array_equal(a, b)


def test_golden_values_frozen():
    # Locked reference draws; any change to the stream algorithm must show up here.
    got = RandomStream(0).uniform(3)
    expected = np.array([0.11703298039315357, 0.7306908801127456, 0.1535359223484286])
    assert np.array_equal(got, expected)


def test_scalar_matches_vector_sequence():
    s1 = RandomStream(42)
    s2 = RandomStream(42)
    seq = s1.uniform(5)
    singles = np.array([s2.uniform() for _ in range(5)])
    assert np.array_equal(seq, singles)


def test_counter_advances_and_continues():
    s = RandomStream(9)
    first = s.uniform(4)
    assert s.counter == 4
    rest = s.uniform(4)
    both = RandomStream(9).uniform(8)
    assert np.array_equal(np.concatenate([first, rest]), both)


def test_draws_at_random_access():
    s = RandomStream(7)
    seq = s.uniform(10)
    assert np.array_equal(draws_at(RandomStream(7).phase, np.arange(10)), seq)
    # out-of-order access
    assert draws_at(RandomStream(7).phase, [3])[0] == seq[3]


def test_draws_at_broadcasts_over_phases():
    phases = np.array([RandomStream(1).substream(j).phase for j in range(3)], dtype=np.uint64)
    block = draws_at(phases[:, None], np.arange(5)[None, :])
    assert block.shape == (3, 5)
    for j in range(3):
        assert np.array_equal(block[j], RandomStream(1).substream(j).uniform(5))


def test_substreams_independent_and_stable():
    root = RandomStream(5)
    a = root.substream(0).uniform(50)
    b = root.substream(1).uniform(50)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, RandomStream(5).substream(0).uniform(50))
    nested = root.substream(0).substream(0).uniform(50)
    assert not np.array_equal(nested, a)


def test_substream_phases_match_substreams():
    root = RandomStream(12)
    idx = np.array([0, 1, 16, 9999, 2**63, 2**64 - 1], dtype=np.uint64)
    expected = [root.substream(int(i)).phase for i in idx]
    assert substream_phases(root.phase, idx).tolist() == expected


def test_substream_order_matters():
    root = RandomStream(3)
    ab = root.substream(1).substream(2).uniform(10)
    ba = root.substream(2).substream(1).uniform(10)
    assert not np.array_equal(ab, ba)


def test_uniform_range_and_mean():
    u = RandomStream(11).uniform(200_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(np.var(u) - 1.0 / 12.0) < 0.001


def test_uniform_shapes():
    s = RandomStream(2)
    assert s.uniform((2, 3)).shape == (2, 3)
    assert np.isscalar(s.uniform())
    assert s.uniform(0).shape == (0,)


def test_negative_size_rejected_without_moving_the_counter():
    rng = RandomStream(0)
    for size in (-1, (2, -1), (-2, -3)):
        with pytest.raises(ValueError, match="negative"):
            rng.uniform(size)
    assert rng.counter == 0
    assert rng.uniform((2, 0)).shape == (2, 0) and rng.counter == 0


def test_seed_and_index_must_be_64_bit_integers():
    # one seed names one stream: no value is reduced to another's stream
    for bad in (1.5, True, False, -1, 2**64, 2**64 + 5, np.int64(-1), "5", None, np.float64(1.0)):
        with pytest.raises(ValueError, match="integer in"):
            RandomStream(bad)
        with pytest.raises(ValueError, match="integer in"):
            RandomStream(0).substream(bad)
    # every valid seed and index keeps its bits
    for good in (0, 2**63, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7), np.uint8(7)):
        assert RandomStream(good).seed == int(good)
        assert RandomStream(3).substream(good).phase == substream_phases(RandomStream(3).phase, int(good))[0]
    assert RandomStream(2**64 - 1).phase != RandomStream(0).phase


# phases whose counter states wrap modulo 2^64 within the first draws
NEAR_WRAP = np.array([2**64 - 1, 2**64 - 2, 2**64 - 0x9E3779B97F4A7C15, 0, 1, 2**63], dtype=np.uint64)


def test_mix64_in_place_matches_python_ints():
    expected = [splitmix64_mix(z) for z in NEAR_WRAP.tolist()]
    z = NEAR_WRAP.copy()
    assert _mix64(z) is z
    assert z.tolist() == expected
    z = NEAR_WRAP.copy()
    _mix64(z, np.empty_like(z))
    assert z.tolist() == expected


def test_draws_match_python_ints_across_the_wrap():
    counters = np.array([0, 1, 2, 1000, 2**32, 2**64 - 2, 2**64 - 1], dtype=np.uint64)
    got = draws_at(NEAR_WRAP[:, None], counters[None, :])
    assert got.tolist() == [[splitmix64_draw(p, c) for c in counters.tolist()] for p in NEAR_WRAP.tolist()]
    phases = substream_phases(RandomStream(3).phase, np.arange(64))
    big = draws_at(phases[:, None], np.arange(2**64 - 600, 2**64 - 1, dtype=np.uint64))
    assert np.array_equal(big.view(np.uint64), reference_draws(phases[:, None], np.arange(2**64 - 600, 2**64 - 1, dtype=np.uint64)).view(np.uint64))


def test_steps_and_mix_shift_match_python_ints_across_the_wrap():
    # the integer draws every consumer takes, (phase + _steps(j)) mixed and shifted in place
    counters = np.array([0, 1, 2, 1000, 2**32, 2**64 - 2, 2**64 - 1], dtype=np.uint64)
    steps = _steps(counters)
    assert steps.dtype == np.uint64
    assert steps.tolist() == [(int(c) + 1) * 0x9E3779B97F4A7C15 % 2**64 for c in counters]
    z = np.add(NEAR_WRAP[:, None], steps)
    assert _mix_shift(z, np.empty_like(z)) is z
    assert z.max() < 2**53
    expected = [[splitmix64_draw(p, c) * 2**53 for c in counters.tolist()] for p in NEAR_WRAP.tolist()]
    assert z.tolist() == expected


def test_uniforms_at_the_extreme_draws(monkeypatch):
    # states that mix to the least and greatest 53-bit draws, whatever the 11 dropped bits
    top = (2**53 - 1) << 11
    mixed = [0, 0x7FF, top, top | 0x7FF]
    expected = [0.0, 0.0, 1.0 - 2.0**-53, 1.0 - 2.0**-53]
    states = [splitmix64_unmix(z) for z in mixed]
    golden = 0x9E3779B97F4A7C15
    phases = np.array([(z - 3 * golden) % 2**64 for z in states], dtype=np.uint64)
    assert draws_at(phases, 2).tolist() == expected  # the state of draw 2 is phase + 3 * GOLDEN
    # the studies' integer compare at the same draws, which hit t = 1 - 2**-53 only at the top
    monkeypatch.setattr(experiments, "_rep_phases", lambda seed, n_reps: phases[:n_reps])
    t = np.array([0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0])
    hits = np.empty(4, dtype=bool)

    def record(rows, hit, scratch):
        hits[rows] = hit[:, 2]
        return 0.0

    experiments._repeat(0, 4, 3, t[:, None], record)
    assert hits.tolist() == [True, False, True, False]


def test_integer_thresholds_are_exact():
    # u = b * 2**-53 for a 53-bit integer draw b, so b >= T must agree with
    # u >= t at T and on both sides of it, for every kind of threshold
    ulp = 2.0 ** -53
    special = [0.0, ulp, 0.5, 1.0 - ulp, 1.0, 2.0]
    k = np.array([1, 2, 3, 2**20 + 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1])
    beside = np.concatenate([np.nextafter(k * ulp, -1.0), np.nextafter(k * ulp, 2.0)])
    t = np.concatenate([special, beside, np.random.default_rng(7).random(2000)])
    T = _draw_thresholds(t)
    assert T.dtype == np.uint64
    assert T[special.index(2.0)] == 2**54
    for d in (-1, 0, 1):
        b = np.clip(T.astype(np.int64) + d, 0, 2**53 - 1).astype(np.uint64)
        assert np.array_equal(b >= T, b.astype(np.float64) * ulp >= t)
    assert _draw_thresholds(np.array([np.nan])).tolist() == [2**54]  # no draw passes NaN


def test_no_overflow_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for counter in (7, 2**64 - 1):
            assert draws_at(2**64 - 1, counter) == splitmix64_draw(2**64 - 1, counter)
        draws_at(NEAR_WRAP, 5)
        experiments._repeat(0, 5, 3, 0.5, lambda rows, hit, scratch: hit.sum(axis=1))
        RandomStream(2**64 - 1).substream(2**64 - 1).uniform(10)
        optimize_table(Preset.D2, grid_size=11, pso=PsoConfig(iterations=5))
