import math

import pytest
from hypothesis import given, strategies as st

from hsi.rng import SplitMix64, derive_seed, _float_pow

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def test_same_seed_same_stream():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_frozen_regression_vector():
    # anchors the state transition: any change to the generator must be deliberate
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ]


def test_distinct_streams_decorrelate():
    s1 = derive_seed(99, 1)
    s2 = derive_seed(99, 2)
    assert s1 != s2
    assert derive_seed(99, 1) == s1
    a = SplitMix64(s1)
    b = SplitMix64(s2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_random_range_and_mean():
    rng = SplitMix64(7)
    xs = [rng.random() for _ in range(20000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(sum(xs) / len(xs) - 0.5) < 0.01


def test_randbelow_bounds_and_uniformity():
    rng = SplitMix64(11)
    counts = [0] * 7
    for _ in range(70000):
        counts[rng.randbelow(7)] += 1
    assert min(counts) > 9000 and max(counts) < 11000
    assert rng.randbelow(1) == 0
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_binomial_edges_and_mean():
    rng = SplitMix64(3)
    assert rng.binomial(10, 0.0) == 0
    assert rng.binomial(10, 1.0) == 10
    assert rng.binomial(0, 0.4) == 0
    n, p, trials = 50, 0.2, 20000
    draws = [rng.binomial(n, p) for _ in range(trials)]
    mean = sum(draws) / trials
    se = math.sqrt(n * p * (1 - p) / trials)
    assert abs(mean - n * p) < 3 * se
    assert all(0 <= x <= n for x in draws)


def test_binomial_underflow_split_path():
    # (1-p)^n underflows, forcing the exact half-split decomposition
    rng = SplitMix64(5)
    n, p = 2_000_000, 0.0005
    draws = [rng.binomial(n, p) for _ in range(50)]
    mean = sum(draws) / len(draws)
    se = math.sqrt(n * p * (1 - p) / len(draws))
    assert abs(mean - n * p) < 4 * se


def test_binomial_walk_stops_below_a_short_mass():
    # fl(1 - 1e-13) < 1 - 1e-13, so at n = 10^15 the float pmf sums to about
    # 0.97: seed 44's uniform lies above that.  Its walk stops where the pmf
    # underflows (c = 690), not on toward c = n, and walks again to u times
    # the mass.  It takes one draw, as every walk does.
    n, p = 10**15, 1e-13
    rng, ref = SplitMix64(44), SplitMix64(44)
    assert ref.random() >= 0.97
    assert 0 < rng.binomial(n, p) < 690
    assert rng.next_u64() == ref.next_u64()


def test_binomial_uniform_above_the_mass(monkeypatch):
    # the float pmf of Binomial(3, 0.3) sums to 1 - 2^-53: a uniform that high
    # walks to c = n and returns n.  At n = 1,000 the pmf underflows long
    # before n (0.3^1000 < 1e-500), and the walk stops within the mass, 8 sd
    # above the mean, not at n.
    monkeypatch.setattr(SplitMix64, "random", lambda self: 1.0 - 2.0**-53)
    assert SplitMix64(0).binomial(3, 0.3) == 3
    assert SplitMix64(0).binomial(1000, 0.3) == 422


def test_binomial_split_walks_return():
    # C(10^6, 3) * 1e-13 = 16,700 expected edges: the draw splits into 32
    # walks, and for nearly every seed one of them draws a uniform above its
    # float mass
    n, p = math.comb(10**6, 3), 1e-13
    draws = [SplitMix64(seed).binomial(n, p) for seed in range(1, 21)]
    assert all(abs(x - n * p) < 8 * math.sqrt(n * p) for x in draws)


def test_shuffle_is_permutation_and_deterministic():
    rng = SplitMix64(21)
    xs = list(range(10))
    rng.shuffle(xs)
    assert sorted(xs) == list(range(10))
    rng2 = SplitMix64(21)
    ys = list(range(10))
    rng2.shuffle(ys)
    assert xs == ys


def test_float_pow_matches_pow():
    for base in (0.3, 0.99, 1.0):
        for e in (0, 1, 2, 7, 63):
            assert _float_pow(base, e) == pytest.approx(base**e, rel=1e-15)


# states anywhere, and states that wrap past 2^64 within one block
_STATES = st.one_of(st.integers(0, _MASK64), st.integers(0, 600 * _GOLDEN).map(
    lambda back: (-back) & _MASK64))


@given(_STATES, st.integers(1, 512), st.integers(0, 64))
def test_block_matches_successive_draws(state, count, shift):
    block, scalar = SplitMix64(state), SplitMix64(state)
    assert block._next_block(count, shift) == \
        tuple(scalar.next_u64() >> shift for _ in range(count))
    assert block._state == scalar._state == (state + count * _GOLDEN) & _MASK64
    assert block.next_u64() == scalar.next_u64()
