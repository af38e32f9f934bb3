"""Laws of symmetric Bernoulli walks and signed indicator sums.

``walk_distribution(k)`` is the decreasing rearrangement of |W_k|, W_k the sum
of k independent symmetric signs, as an exact ``Fraction`` step function for
k <= 64; ``walk_abs_layers(k)`` is the same law, for any k, as float layers
(values descending, log-tails).  ``signed_indicator_sum_tail(n, u, s)`` is the
upper tail P(|S_n| >= s) of the sum of n independent copies of (indicator of
measure u) * (independent sign).

The law of S_n comes from one O(n) backward three-term recurrence, run on exact
integers for a rational u and n <= 64 (``_exact_tails``, fast and bit-reproducible
there; the exact walk law is its u = 1 case) and in floats for anything else
(``signed_indicator_sum_log_tails``).  Float routes run in log space: the deep tail
atoms lie far below float underflow yet still dominate weighted-rearrangement norms.
Float walk layers come from the half of the symmetric binomial row that the tails
read, in fixed-size chunks that are bit for bit slices of the whole
(``_walk_abs_chunks`` says why), so a norm that reads them once never holds it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from ._numeric import CHUNK, LN2, integer, log_binom, logsumexp, positive_int
from .stepfn import StepFunction

__all__ = [
    "EXACT_MAX_STEPS",
    "walk_distribution",
    "walk_abs_layers",
    "signed_indicator_sum_tail",
    "signed_indicator_sum_log_tails",
    "signed_indicator_sum_expectation",
]

# The exact recurrence's n tails cost ~n^2 big-int digits: n = 64 takes 0.2-0.3 ms,
# the walk at 2^14 steps ~8 s (Xeon, Python 3.11).
EXACT_MAX_STEPS = 64

Prob = Union[Fraction, float]


def walk_distribution(k: int) -> StepFunction:
    """Decreasing rearrangement of |W_k|, W_k the k-step symmetric walk, exactly.

    The value v = k, k - 2, ... holds on (P(|W_k| > v), P(|W_k| >= v)].  Past
    ``EXACT_MAX_STEPS`` steps the law lives in log space: ``walk_abs_layers``.
    """
    k = integer(k, 0, "step count must be nonnegative")
    if k > EXACT_MAX_STEPS:
        raise ValueError(f"exact walk tails are capped at {EXACT_MAX_STEPS} steps")
    tails = _exact_tails(k, Fraction(1))  # W_k is S_k at u = 1
    return StepFunction([Fraction(0), *tails[k::-2]], range(k, -1, -2))


def _exact_tails(n: int, u: Fraction) -> Tuple[Fraction, ...]:
    """(P(|S_n| >= s))_{s=0..n} as exact rationals, for n <= ``EXACT_MAX_STEPS``.

    The recurrence of ``signed_indicator_sum_log_tails`` on C_m = (2q)^n P(S_n = m),
    u = p/q, the integer coefficients of (2(q-p) + p z + p/z)^n, so every division in
    p (n-m+1) C_{m-1} = p (n+m+1) C_{m+1} + 2 (q-p) m C_m is exact.
    """
    p, q = u.numerator, u.denominator
    denom = (2 * q) ** n
    cur, nxt, upper = p**n, 0, 0  # C_n, C_{n+1} and, as m falls, sum_{i >= m} C_i
    tails = [Fraction(1)] * (n + 1)
    for m in range(n, 0, -1):
        upper += cur
        tails[m] = Fraction(2 * upper, denom)
        cur, nxt = (p * (n + m + 1) * nxt + 2 * (q - p) * m * cur) // (p * (n - m + 1)), cur
    return tuple(tails)


def _walk_abs_chunks(k: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The layers of ``walk_abs_layers(k)`` as consecutive chunks of ``CHUNK``.

    The value v = k - 2j > 0 has log P(|W_k| >= v) = log 2 + log sum_{i <= j}
    P(W_k = k - 2i), by the symmetry of the row, so only j = 0..k//2 of the
    k + 1 row entries log C(k, j) - k log 2 (``log_binom``) are built, a chunk
    at a time.  Each chunk is accumulated with one sequential ``logaddexp``
    whose first entry takes in the last unshifted sum of the chunk before, and
    then shifted in place.  Each entry takes the same operations on the same
    log-factorials (elementwise, so the chunk a j falls in cannot change them)
    as in the full row, and a sequential accumulation's prefix does not depend
    on what follows it or on where it is cut, so every chunk is bit for bit
    its slice of the full row's layers.
    """
    size = k // 2 + 1  # the values k, k - 2, ..., down to 1 or 0
    carry = -math.inf  # log sum_{i < start} P(W_k = k - 2i)
    for start in range(0, size, CHUNK):
        stop = min(start + CHUNK, size)
        j = np.arange(start, stop, dtype=float)
        row = log_binom(k, j)
        row -= k * LN2
        row[0] = np.logaddexp(carry, row[0])
        np.logaddexp.accumulate(row, out=row)
        carry = row[-1]
        row += LN2
        if stop == size and k % 2 == 0:
            row[-1] = 0.0  # the value 0 has the whole measure
        values = np.arange(k - 2 * start, k - 2 * stop, -2, dtype=float)
        yield values, np.minimum(row, 0.0, out=row)


def walk_abs_layers(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """(values, log_tails) of |W_k|: values descending, log P(|W_k| >= value).

    This is the layered form of the decreasing rearrangement used by the
    log-space norm routines; unlike ``walk_distribution`` it serves every k
    in O(k) memory and keeps the deep tail at full log precision.  The layers
    are the chunks of ``_walk_abs_chunks`` (which says why they are exact)
    laid end to end.
    """
    k = integer(k, 0, "step count must be nonnegative")
    values, log_tails = np.empty(k // 2 + 1), np.empty(k // 2 + 1)
    start = 0
    for v, lt in _walk_abs_chunks(k):
        values[start : start + v.size], log_tails[start : start + v.size] = v, lt
        start += v.size
    return values, log_tails


def _validate_nus(n: int, u, s: Optional[int] = None) -> int:
    n = positive_int(n)
    if not 0 < u <= 1:
        raise ValueError("indicator measure u must lie in (0, 1]")
    if s is not None and integer(s, 1, "level s must satisfy 1 <= s <= n") > n:
        raise ValueError("level s must satisfy 1 <= s <= n")
    return n


def signed_indicator_sum_tail(n: int, u, s: int) -> Prob:
    """P(|S_n| >= s) for the n-fold signed indicator sum with measure u.

    Exact for a rational u and n <= ``EXACT_MAX_STEPS``, a float otherwise.
    """
    n = _validate_nus(n, u, s)
    if isinstance(u, Rational) and n <= EXACT_MAX_STEPS:
        return _exact_tails(n, Fraction(u))[s]
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
    n = _validate_nus(n, u)
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


def signed_indicator_sum_expectation(n: int, u) -> Prob:
    """E|S_n| = sum_{s>=1} P(|S_n| >= s) (integer layer-cake).

    Exact for a rational u and n <= ``EXACT_MAX_STEPS``, a float otherwise.
    """
    n = _validate_nus(n, u)
    if isinstance(u, Rational) and n <= EXACT_MAX_STEPS:
        return sum(_exact_tails(n, Fraction(u))[1:])
    lt = signed_indicator_sum_log_tails(n, float(u))
    return float(np.exp(logsumexp(lt)))
