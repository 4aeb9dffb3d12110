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
