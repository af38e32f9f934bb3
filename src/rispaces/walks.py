"""Laws of symmetric Bernoulli walks and signed indicator sums.

``walk_distribution(k)`` is the decreasing rearrangement of |W_k|, W_k the sum
of k independent symmetric signs, as an exact ``Fraction`` step function for
k <= 64; ``walk_abs_layers(k)`` is the same law, for any k, as float layers
(values descending, log-tails).  ``signed_indicator_sum_tail(n, u, s)`` is the
upper tail P(|S_n| >= s) of the sum of n independent copies of (indicator of
measure u) * (independent sign).

A rational u with n <= 64 runs in exact ``fractions.Fraction`` arithmetic,
which is fast and bit-reproducible there; anything else runs in floats.  Float
routes run in log space: the deep tail atoms lie far below float underflow yet
still dominate weighted-rearrangement norms.  Walk rows come from one table of
log-factorials; the law of S_n comes, for every n, from one O(n) backward
three-term recurrence (``signed_indicator_sum_log_tails``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Optional, Tuple, Union

import numpy as np

from ._numeric import LN2, log_binom, log_factorial, logsumexp
from .stepfn import StepFunction

__all__ = [
    "EXACT_MAX_STEPS",
    "walk_distribution",
    "walk_abs_layers",
    "signed_indicator_sum_tail",
    "signed_indicator_sum_log_tails",
    "signed_indicator_sum_tail_leading",
    "signed_indicator_sum_expectation",
]

# Exact rational arithmetic on k-step walks costs ~k^2 big-int digits per
# cumulative tail; 64 steps stays below a millisecond, 2^14 steps costs ~10 s.
EXACT_MAX_STEPS = 64

Prob = Union[Fraction, float]


def walk_distribution(k: int) -> StepFunction:
    """Decreasing rearrangement of |W_k|, W_k the k-step symmetric walk, exactly.

    The value v = k, k - 2, ... holds on (P(|W_k| > v), P(|W_k| >= v)].  Past
    ``EXACT_MAX_STEPS`` steps the law lives in log space: ``walk_abs_layers``.
    """
    if k < 0:
        raise ValueError("step count must be nonnegative")
    tails = _abs_tail_fractions(k)
    values = range(k, -1, -2)
    return StepFunction([Fraction(0), *(tails[v] for v in values)], values)


@lru_cache(maxsize=256)
def _abs_tail_fractions(k: int) -> Tuple[Fraction, ...]:
    """(P(|W_k| >= s))_{s=0..k} as exact rationals.

    P(|W_k| >= s) = 2^(1-k) * sum_{j <= (k-s)//2} C(k,j) for s >= 1, by the
    symmetry of the two strict half-tails.
    """
    if k > EXACT_MAX_STEPS:
        raise ValueError(f"exact walk tails are capped at {EXACT_MAX_STEPS} steps")
    if k == 0:
        return (Fraction(1),)
    denom = 2 ** (k - 1)
    comb_prefix = [math.comb(k, 0)]
    for j in range(1, k + 1):
        comb_prefix.append(comb_prefix[-1] + math.comb(k, j))
    tails = [Fraction(1)]
    for s in range(1, k + 1):
        tails.append(Fraction(comb_prefix[(k - s) // 2], denom))
    return tuple(tails)


def _log_walk_row(k: int) -> np.ndarray:
    """log P(W_k = k - 2j) = log k! - log j! - log (k-j)! - k log 2 for j = 0..k."""
    lf = log_factorial(np.arange(k + 1, dtype=float))
    row = lf[k] - lf
    row -= lf[::-1]
    row -= k * LN2
    return row


def walk_abs_layers(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """(values, log_tails) of |W_k|: values descending, log P(|W_k| >= value).

    This is the layered form of the decreasing rearrangement used by the
    log-space norm routines; unlike ``walk_distribution`` it serves every k
    in O(k) memory and keeps the deep tail at full log precision.
    """
    if k < 0:
        raise ValueError("step count must be nonnegative")
    if k == 0:
        return np.asarray([0.0]), np.asarray([0.0])
    values = np.arange(k, -1 if k % 2 == 0 else 0, -2, dtype=float)
    H = np.logaddexp.accumulate(_log_walk_row(k))
    log_tails = np.empty(values.size)
    pos = values > 0
    log_tails[pos] = LN2 + H[((k - values[pos].astype(int)) // 2)]
    log_tails[~pos] = 0.0
    return values, np.minimum(log_tails, 0.0)


def _validate_nus(n: int, u, s: Optional[int] = None) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if not 0 < u <= 1:
        raise ValueError("indicator measure u must lie in (0, 1]")
    if s is not None and not 1 <= s <= n:
        raise ValueError("level s must satisfy 1 <= s <= n")


def signed_indicator_sum_tail(n: int, u, s: int) -> Prob:
    """P(|S_n| >= s) for the n-fold signed indicator sum with measure u.

    Exact for a rational u and n <= ``EXACT_MAX_STEPS``, a float otherwise.
    """
    _validate_nus(n, u, s)
    if isinstance(u, Rational) and n <= EXACT_MAX_STEPS:
        uf = Fraction(u)
        total = Fraction(0)
        for k in range(s, n + 1):
            binom = math.comb(n, k) * uf**k * (1 - uf) ** (n - k)
            total += binom * _abs_tail_fractions(k)[s]
        return total
    return float(np.exp(signed_indicator_sum_log_tails(n, float(u))[s - 1]))


def signed_indicator_sum_log_tails(n: int, u: float) -> np.ndarray:
    """log P(|S_n| >= s) for s = 1..n, in O(n) time and memory.

    P(S_n = m) is the coefficient c_m of (a + b z + b/z)^n, a = 1 - u, b = u/2,
    and (n-m+1) c_{m-1} = (n+m+1) c_{m+1} + (a/b) m c_m.  Run backward from
    c_{n+1} = 0, c_n = b^n, it adds only nonnegative terms, so nothing cancels.
    It runs on e_m = c_m ((a+b)/b)^m, whose coefficients alpha = a/(a+b) and
    beta = (b/(a+b))^2 lie in [0, 1] for every u (alpha = 0 at u = 1 decouples
    the odd and even chains); e is rescaled whenever it leaves [1e-200, 1e200].
    The tails 2 * sum_{m >= s} c_m are one reverse logaddexp accumulation.
    """
    _validate_nus(n, u)
    u = float(u)
    a_plus_b = 1.0 - 0.5 * u
    alpha = (1.0 - u) / a_plus_b
    beta = (0.5 * u / a_plus_b) ** 2
    e = [0.0] * (n + 1)
    log_scale = [0.0] * (n + 1)
    e[n] = 1.0  # e_n = (a+b)^n, restored by the n * log(a+b) shift below
    cur, nxt, scale = 1.0, 0.0, 0.0  # e_m and e_{m+1}, both divided by exp(scale)
    for m in range(n, 0, -1):
        prev = (alpha * m * cur + beta * (n + m + 1) * nxt) / (n - m + 1)
        if prev > 1e200 or 0.0 < prev < 1e-200:
            scale += math.log(prev)
            cur /= prev
            prev = 1.0
        nxt, cur = cur, prev
        e[m - 1] = prev
        log_scale[m - 1] = scale
    log_ab = math.log1p(-0.5 * u)
    log_rho = log_ab - (math.log(u) - LN2)
    with np.errstate(divide="ignore"):  # e_m = 0 off the parity of n when u = 1
        log_c = np.log(e) + log_scale + (n * log_ab - np.arange(n + 1) * log_rho)
    return np.minimum(LN2 + np.logaddexp.accumulate(log_c[:0:-1])[::-1], 0.0)


def signed_indicator_sum_tail_leading(n: int, u, s: int) -> Prob:
    """Small-u leading term 2^(1-s) C(n,s) u^s of the tail at level s.

    Exact for a rational u, a float otherwise.
    """
    _validate_nus(n, u, s)
    if isinstance(u, Rational):
        return Fraction(2 * math.comb(n, s), 2**s) * Fraction(u) ** s
    lead = (1 - s) * LN2 + float(log_binom(n, s)) + s * math.log(float(u))
    return float(np.exp(lead))


def signed_indicator_sum_expectation(n: int, u) -> Prob:
    """E|S_n| = sum_{s>=1} P(|S_n| >= s) (integer layer-cake).

    Exact for a rational u and n <= ``EXACT_MAX_STEPS``, a float otherwise.
    """
    _validate_nus(n, u)
    if isinstance(u, Rational) and n <= EXACT_MAX_STEPS:
        return sum(signed_indicator_sum_tail(n, u, s) for s in range(1, n + 1))
    lt = signed_indicator_sum_log_tails(n, float(u))
    return float(np.exp(logsumexp(lt)))
