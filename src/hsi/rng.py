"""Deterministic 64-bit PRNG and seed-stream derivation.

The generator is SplitMix64 (Steele/Lea/Flood): a 64-bit counter advanced by
the golden-ratio increment, pushed through an avalanche mixer.  The state
transition is pure integer arithmetic, so identical seeds give identical
streams on every platform.  Purpose-specific streams are derived by XOR-ing a
stream id into the seed and mixing once, which decorrelates related seeds.

Floating point is used only where the *consumer* is a float (uniform deviates,
binomial CDF walks); those paths stick to IEEE +,*,/ so results stay
platform-independent as well.
"""

from __future__ import annotations

import struct
from functools import lru_cache

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Stream ids for the library's own derived streams.
STREAM_EDGES = 0x45D6E5
STREAM_TRIALS = 0x7219A1
STREAM_ATTEMPTS = 0xA77E39
STREAM_SWAP = 0x53A40F


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Derive the seed of a sub-stream as mix(seed XOR stream-id)."""
    return _mix((seed ^ stream) & _MASK64)


def indexed_seed(seed: int, stream: int, index: int) -> int:
    """The index-th output of SplitMix64 seeded with derive_seed(seed, stream).

    Computed in O(1) from the counter form.  XOR-ing the index into the seed
    directly would make the *set* of derived seeds nearly independent of the
    master (a small XOR merely permutes an index window), so the master is
    mixed in before the counter advances.
    """
    base = derive_seed(seed, stream)
    return _mix((base + (index + 1) * _GOLDEN) & _MASK64)


class SplitMix64:
    """SplitMix64 generator over 64-bit unsigned integers."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def _next_block(self, count: int, shift: int) -> tuple[int, ...]:
        """The next `count` outputs of next_u64, each shifted right by `shift`.

        The state is a counter, so output j mixes state + (j+1)*GOLDEN.  All
        `count` counters sit in 128-bit lanes of one integer and go through the
        mixer together; each lane is masked to 64 bits before every multiply,
        so no carry crosses into the next lane.  The lanes are read back as
        little-endian words, so the outputs are the same on every platform.
        """
        ones, steps, low64, words = _lanes(count)
        z = (self._state * ones + steps) & low64
        self._state = (self._state + count * _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) & low64) * 0xBF58476D1CE4E5B9 & low64
        z = ((z ^ (z >> 27)) & low64) * 0x94D049BB133111EB & low64
        # shifting drops the next lane's bits into this lane's upper word only
        z = ((z ^ (z >> 31)) & low64) >> shift
        return words.unpack(z.to_bytes(16 * count, "little"))

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by top-bits rejection (unbiased)."""
        if bound <= 0:
            raise ValueError(f"randbelow bound must be positive, got {bound}")
        if bound == 1:
            return 0
        k = (bound - 1).bit_length()
        while True:
            r = self.next_u64() >> (64 - k)
            if r < bound:
                return r

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for j in range(len(items) - 1, 0, -1):
            i = self.randbelow(j + 1)
            items[i], items[j] = items[j], items[i]

    def binomial(self, n: int, p: float) -> int:
        """Binomial(n, p) draw by inverse-CDF walk from zero.

        The zero-probability (1-p)^n is computed by binary exponentiation
        (plain float multiplies, no libm), and the pmf recurrence uses only
        +,*,/.  When (1-p)^n underflows, the draw is split into two
        independent halves, which is an exact decomposition.

        Where 1 - p rounds down, the float pmf sums to (fl(1-p) + p)^n < 1,
        far below 1 once n is near 1/p^2.  A uniform above that mass is never
        reached.  If the walk gets to c = n, it returns n; if its pmf
        underflows to 0 past the mode first, it walks again to the uniform
        times the mass it found.  Either way it returns a count the float pmf
        gives mass to, from the same one draw.
        """
        if n < 0:
            raise ValueError("binomial n must be >= 0")
        if p <= 0.0:
            return 0
        if p >= 1.0:
            return n
        q = 1.0 - p
        pmf = _float_pow(q, n)
        if pmf == 0.0:
            half = n // 2
            return self.binomial(half, p) + self.binomial(n - half, p)
        u = self.random()
        ratio = p / q
        c, last, cdf = _cdf_walk(n, pmf, ratio, u)
        if c > n:  # pmf(n + 1) = 0: u lies above the whole mass, up to n
            return n
        if not last:  # u lies above the whole mass, cdf, and pmf underflowed
            c = _cdf_walk(n, pmf, ratio, u * cdf)[0]
        return c


def _cdf_walk(n: int, pmf: float, ratio: float, u: float) -> tuple[int, float, float]:
    """Walk the binomial cdf up from c = 0, whose pmf is `pmf`, stepping by
    pmf(c) = pmf(c-1) * (n-c+1)/c * ratio.  Returns (c, pmf(c), cdf(c)) at
    the first c with cdf(c) > u, or else at the first c with pmf(c) = 0."""
    c = 0
    cdf = pmf
    while u >= cdf and pmf:
        c += 1
        pmf *= (n - c + 1) / c * ratio
        cdf += pmf
    return c, pmf, cdf


@lru_cache(maxsize=16)
def _lanes(count: int) -> tuple[int, int, int, struct.Struct]:
    # per 128-bit lane j: 1, (j+1)*GOLDEN and the 64-bit mask, and a reader
    # of each lane's lower word
    ones = int.from_bytes((b"\x01" + b"\x00" * 15) * count, "little")
    steps = int.from_bytes(b"".join(((j + 1) * _GOLDEN).to_bytes(16, "little")
                                    for j in range(count)), "little")
    low64 = int.from_bytes((b"\xff" * 8 + b"\x00" * 8) * count, "little")
    return ones, steps, low64, struct.Struct("<" + "Q8x" * count)


def _float_pow(base: float, exp: int) -> float:
    acc = 1.0
    b = base
    e = exp
    while e:
        if e & 1:
            acc *= b
        e >>= 1
        if e:
            b *= b
    return acc
