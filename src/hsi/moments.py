"""Closed-form moments, correlation ratios, and probability bounds.

Everything here evaluates in log space, from the per-(n,d,k,p) quantities to
the report's float fields: powers reach exponents of 10^6, so products
accumulate as sums of logs, with log1p/log1mexp primitives wherever a quantity
is a small difference of near-equal terms.  With L = log1p(-p),

  log q0          = M L                          miss probability of one set
  log(1-q0)       = log1mexp(M L)                without cancellation
  log q00         = M_i L                        miss against both sets
  log(q0-q00)     = log q0 + log1mexp((M_i-M) L)
  log(q00-q0^2)   = log q00 + log1mexp((2M-M_i) L)
  log q11         = logaddexp(2 log(1-q0), log(q00-q0^2))
  lift            = log1p(e^{log(q00-q0^2) - 2 log(1-q0)}) = log q11 - 2 log(1-q0)

where q11 = 1 - 2 q0 + q00 is the probability that a vertex is dominated by
both of two overlapping sets; lift >= 0 is the log of the correlation
ratio's base q11/(1-q0)^2.  Sums of terms go through logsumexp, and `exp`
is taken only for the reported floats, so a reported per-term float may read
0.0 while the total it feeds is exact.

Note the first-moment product over vertices treats per-vertex undomination as
independent.  That is exact for d = 2 (the relevant edge sets are disjoint)
and an approximation for d >= 3; the enumeration oracles quantify the gap.
The pair quantities (second moments, correlation ratios) additionally treat
the two substitution classes as independent, which is approximate at every d
whenever the sets differ: an edge joining the classes feeds both events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .model import count_M, count_Mi

_NEG_INF = float("-inf")
_LOG2 = math.log(2.0)


def _lcomb(n: int, k: int) -> float:
    """log C(n,k) from the exact integer (better than an lgamma triplet)."""
    if k < 0 or k > n:
        return _NEG_INF
    c = math.comb(n, k)
    return 0.0 if c == 1 else math.log(c)


def _log1mexp(a: float) -> float:
    """log(1 - e^a) for a <= 0."""
    if a == 0.0:
        return _NEG_INF
    if a < -_LOG2:
        return math.log1p(-math.exp(a))
    return math.log(-math.expm1(a))


def _log1pexp(a: float) -> float:
    """log(1 + e^a), finite for every finite a."""
    return a + math.log1p(math.exp(-a)) if a > 0.0 else math.log1p(math.exp(a))


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return float("inf")


def _log_pow(log_base: float, exponent: int) -> float:
    # 0^0 = 1 under the product convention
    return 0.0 if exponent == 0 else log_base * exponent


def _logsumexp(logs) -> float:
    mx = max(logs)
    if mx == _NEG_INF:
        return _NEG_INF
    return mx + math.log(sum(math.exp(x - mx) for x in logs))


def _logaddexp(a: float, b: float) -> float:
    """log(e^a + e^b) to the last digit, which log q11 needs: it is raised to
    powers near n."""
    hi, lo = (a, b) if a >= b else (b, a)
    return hi if hi == _NEG_INF else hi + math.log1p(math.exp(lo - hi))


def _validate_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need 0 <= p <= 1, got {p}")


class _Miss:
    """Shared per-(n,d,k,p) logs for the moment formulas."""

    def __init__(self, n: int, d: int, k: int, p: float):
        self.n, self.d, self.k = n, d, k
        self.M = count_M(n, k, d)
        self.L = math.log1p(-p) if p < 1.0 else _NEG_INF
        self.logq0 = self.M * self.L if self.M else 0.0
        self.log_omq0 = _log1mexp(self.logq0)

    def overlap(self, i: int) -> "_Overlap":
        Mi = count_Mi(self.n, self.k, i, self.d)
        log_q00 = _log_pow(self.L, Mi)
        # q0 - q00 = q0 (1 - e^{(Mi-M)L}) and q00 - q0^2 = q00 (1 - e^{(2M-Mi)L}):
        # factoring out the larger term keeps log1mexp's argument <= 0
        log_excess = log_q00 + _log1mexp(_log_pow(self.L, 2 * self.M - Mi))
        two_log_omq0 = 2.0 * self.log_omq0
        return _Overlap(
            mi=self.n - 2 * self.k + i,
            log_q00=log_q00,
            log_dq=self.logq0 + _log1mexp(_log_pow(self.L, Mi - self.M)),
            lift=_log1pexp(log_excess - two_log_omq0),
            # q11 = (1-q0)^2 + (q00 - q0^2), both addends nonnegative
            log_q11=_logaddexp(two_log_omq0, log_excess),
        )


class _Overlap(NamedTuple):
    mi: int          # vertices outside both sets, n - 2k + i
    log_q00: float   # miss probability against both sets
    log_dq: float    # q0 - q00
    lift: float      # log(q11/(1-q0)^2) >= 0, the positive-association surplus
    log_q11: float   # both-dominated probability 1 - 2 q0 + q00


@dataclass(frozen=True)
class MomentReport:
    """First and second moment of the dominating-set count."""

    expected_count: float
    f_terms: tuple[float, ...]
    second_moment: float
    ratio_to_square: float
    q0: float


@dataclass(frozen=True)
class QuasiMomentReport:
    """Moments of the quasi-dominating-set count, with per-overlap terms."""

    expected_quasi: float
    phi_terms: tuple[int, ...]
    w_terms: tuple[float, ...]
    p1_terms: tuple[float, ...]
    p2_terms: tuple[float, ...]
    p3_terms: tuple[float, ...]
    p4_terms: tuple[float, ...]
    second_moment: float
    q0: float
    q00_terms: tuple[float, ...]
    q11_terms: tuple[float, ...]
    m_terms: tuple[int, ...]


@dataclass(frozen=True)
class CorrelationRatio:
    """Joint solution probability over the product of the marginals."""

    value: float
    log_value: float
    regime: str
    asymptotic_surrogate: Optional[float] = None


class QuasiExpected(NamedTuple):
    value: float
    ratio_to_expected: float


class SolvabilityBounds(NamedTuple):
    lower: float
    upper: float
    unique_lower: float


def expected_count(n: int, d: int, k: int, p: float) -> float:
    """E[X] = C(n,k) (1 - (1-p)^M)^(n-k)."""
    _validate_p(p)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == n:
        return 1.0
    miss = _Miss(n, d, k, p)
    return _exp(_lcomb(n, k) + (n - k) * miss.log_omq0)


def second_moment(n: int, d: int, k: int, p: float) -> MomentReport:
    """E[X^2] = sum of overlap contributions F(0..k).

    F(i) = C(n,k) C(k,i) C(n-k,k-i) (1-q0)^{2(k-i)} q11(i)^{n-2k+i} for
    0 < i <= k; the disjoint term carries the printed product form
    F(0) = C(n,k) C(n-k,k) (1-q0)^{2(n-k)}, which keeps
    F(0) = E[X]^2 C(n-k,k)/C(n,k) an exact identity.
    """
    _validate_p(p)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if n < 2 * k:
        raise ValueError(f"need n >= 2k for the overlap decomposition, got n={n}, k={k}")
    miss = _Miss(n, d, k, p)
    lcnk = _lcomb(n, k)
    log_e = lcnk + (n - k) * miss.log_omq0
    logs = [lcnk + _lcomb(n - k, k) + _log_pow(miss.log_omq0, 2 * (n - k))]
    for i in range(1, k + 1):
        ov = miss.overlap(i)
        logs.append(lcnk + _lcomb(k, i) + _lcomb(n - k, k - i)
                    + _log_pow(miss.log_omq0, 2 * (k - i))
                    + _log_pow(ov.log_q11, ov.mi))
    log_e2 = _logsumexp(logs)
    return MomentReport(
        expected_count=_exp(log_e),
        f_terms=tuple(_exp(x) for x in logs),
        second_moment=_exp(log_e2),
        ratio_to_square=_exp(log_e2 - 2.0 * log_e),
        q0=_exp(miss.logq0),
    )


def ds_correlation_ratio(n: int, d: int, k: int, i: int, p: float) -> CorrelationRatio:
    """Pr(both of two i-overlapping k-sets dominate) / product of marginals.

    The printed form [q11 / (1-q0)^2]^(n-2k+i), plus the asymptotic surrogate
    exp{(ln^2 n)^(2-i/k) / n^(1-i/k)} for comparison.  Like the second
    moment, this treats the two substitution classes as independent, which
    undercounts the association for i < k at finite n (the classes share
    edges, at every d); the enumeration oracles quantify that bias.
    """
    _validate_p(p)
    if not 0 <= i <= k:
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    if 2 * k - i > n:
        raise ValueError(f"union size 2k-i={2*k-i} exceeds n={n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    ov = _Miss(n, d, k, p).overlap(i)
    log_value = _log_pow(ov.lift, ov.mi)
    t = i / k
    log_ln = math.log(math.log(n) ** 2)
    surrogate = _exp(math.exp((2.0 - t) * log_ln - (1.0 - t) * math.log(n)))
    return CorrelationRatio(
        value=_exp(log_value),
        log_value=log_value,
        regime="dominating-set",
        asymptotic_surrogate=surrogate,
    )


def vc_correlation_ratio(n: int, k: int, i: int, p: float, d: int = 2) -> CorrelationRatio:
    """Vertex-cover pair correlation (1-p)^(-C(n-2k+i, d)); exact for all d.

    At i = k it is 1 / Pr(a fixed k-set is a vertex cover)."""
    _validate_p(p)
    if not 0 <= i <= k:
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    if 2 * k - i > n:
        raise ValueError(f"union size 2k-i={2*k-i} exceeds n={n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    shared = n - 2 * k + i
    free = math.comb(shared, d) if shared >= d else 0
    log_value = -_log_pow(math.log1p(-p), free)
    return CorrelationRatio(value=_exp(log_value), log_value=log_value, regime="vertex-cover")


def quasi_expected(n: int, d: int, k: int, p: float) -> QuasiExpected:
    """E[N] = C(n,k) (n-k) q0 (1-q0)^(n-k-1), with the ratio E[N]/E[X]."""
    _validate_p(p)
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    miss = _Miss(n, d, k, p)
    log_en = (_lcomb(n, k) + math.log(n - k) + miss.logq0
              + _log_pow(miss.log_omq0, n - k - 1))
    ratio = _exp(math.log(n - k) + miss.logq0 - miss.log_omq0)
    return QuasiExpected(value=_exp(log_en), ratio_to_expected=ratio)


def quasi_second_moment(n: int, d: int, k: int, p: float) -> QuasiMomentReport:
    """E[N^2] = sum_i Phi(i) W(i) over the overlap i of the two k-sets.

    W(i) = P1 + P2 + P3 + 2 P4 follows the location case analysis of the two
    missed vertices; the single-miss term P1 uses q11 for the doubly-dominated
    block, matching the case derivation (m_i < 2 leaves no vertex pair, so P2
    is zero there by convention).
    """
    _validate_p(p)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if n < 2 * k:
        raise ValueError(f"need n >= 2k for the overlap decomposition, got n={n}, k={k}")
    miss = _Miss(n, d, k, p)
    logq0, log_omq0 = miss.logq0, miss.log_omq0

    phi, ms, log_rows = [], [], []
    for i in range(k + 1):
        ov = miss.overlap(i)
        mi, ko, log_q11, log_dq = ov.mi, k - i, ov.log_q11, ov.log_dq
        # a case whose count factor is zero contributes log 0
        lp1 = _NEG_INF if mi == 0 else (
            math.log(mi) + ov.log_q00 + _log_pow(log_q11, mi - 1)
            + _log_pow(log_omq0, 2 * ko))
        lp2 = _NEG_INF if mi < 2 else (
            math.log(mi) + math.log(mi - 1) + 2.0 * log_dq
            + _log_pow(log_q11, mi - 2) + _log_pow(log_omq0, 2 * ko))
        lp3 = _NEG_INF if ko == 0 else (
            2.0 * math.log(ko) + 2.0 * logq0 + _log_pow(log_q11, mi)
            + _log_pow(log_omq0, 2 * ko - 2))
        lp4 = _NEG_INF if (ko == 0 or mi == 0) else (
            math.log(ko) + math.log(mi) + logq0 + log_dq
            + _log_pow(log_q11, mi - 1) + _log_pow(log_omq0, 2 * ko - 1))
        log_w = _logsumexp((lp1, lp2, lp3, _LOG2 + lp4))
        phi.append(math.comb(n, k) * math.comb(k, i) * math.comb(n - k, k - i))
        ms.append(mi)
        log_rows.append((log_w, lp1, lp2, lp3, lp4, ov.log_q00, log_q11))

    # log Phi(i) W(i): Phi(0) alone can exceed float range, W(i) fall below it
    log_e2 = _logsumexp([math.log(f) + row[0] for f, row in zip(phi, log_rows)])
    w, p1s, p2s, p3s, p4s, q00s, q11s = (tuple(map(_exp, col)) for col in zip(*log_rows))
    return QuasiMomentReport(
        expected_quasi=quasi_expected(n, d, k, p).value,
        phi_terms=tuple(phi),
        w_terms=w,
        p1_terms=p1s,
        p2_terms=p2s,
        p3_terms=p3s,
        p4_terms=p4s,
        second_moment=_exp(log_e2),
        q0=_exp(logq0),
        q00_terms=q00s,
        q11_terms=q11s,
        m_terms=tuple(ms),
    )


def solvability_bounds(delta: float) -> SolvabilityBounds:
    """Second-moment band delta/(1+delta) <= Pr(X>0) <= delta, plus the
    uniqueness lower bound delta(1-delta)/(1+delta)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"need 0 < delta < 1, got {delta}")
    return SolvabilityBounds(
        lower=delta / (1.0 + delta),
        upper=delta,
        unique_lower=delta * (1.0 - delta) / (1.0 + delta),
    )
