"""Laws of symmetric Bernoulli walks and signed indicator sums.

``walk_distribution(k)`` is the law of a sum of k independent symmetric signs.
``signed_indicator_sum_tail(n, u, s)`` is the upper tail P(|S_n| >= s) of the
sum of n independent copies of (indicator of measure u) * (independent sign).

Exact ``fractions.Fraction`` arithmetic is the default up to n <= 64, where it
is fast and bit-reproducible.  Float routes run in log space: the deep tail
atoms lie far below float underflow yet still dominate weighted-rearrangement
norms.  Walk rows come from one table of log-factorials; the law of S_n comes,
for every n, from one O(n) backward three-term recurrence
(``signed_indicator_sum_log_tails``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ._numeric import LN2, log_binom, log_factorial, logsumexp
from .stepfn import StepFunction

__all__ = [
    "EXACT_MAX_STEPS",
    "IntegerDistribution",
    "walk_distribution",
    "walk_abs_tail",
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


class IntegerDistribution:
    """Probability law on a finite set of integers.

    Atom weights are either all ``Fraction`` (exact mode: mass must equal 1)
    or all floats (mass within 1e-12 of 1).  Zero-probability atoms are
    dropped on construction.
    """

    __slots__ = ("_atoms", "_exact")

    def __init__(self, atoms: Dict[int, Prob]):
        cleaned = {int(v): p for v, p in atoms.items() if p != 0}
        if not cleaned:
            raise ValueError("distribution needs at least one atom")
        exact = all(isinstance(p, Rational) for p in cleaned.values())
        if exact:
            cleaned = {v: Fraction(p) for v, p in cleaned.items()}
            if any(p < 0 for p in cleaned.values()):
                raise ValueError("negative probability")
            if sum(cleaned.values()) != 1:
                raise ValueError("probabilities must sum to 1")
        else:
            cleaned = {v: float(p) for v, p in cleaned.items()}
            if any(p < 0 for p in cleaned.values()):
                raise ValueError("negative probability")
            if abs(math.fsum(cleaned.values()) - 1.0) > 1e-12:
                raise ValueError("probabilities must sum to 1 within 1e-12")
        self._atoms = dict(sorted(cleaned.items()))
        self._exact = exact

    @property
    def is_exact(self) -> bool:
        return self._exact

    def support(self) -> Tuple[int, ...]:
        return tuple(self._atoms)

    def prob(self, v: int) -> Prob:
        zero = Fraction(0) if self._exact else 0.0
        return self._atoms.get(int(v), zero)

    def abs_law(self) -> Dict[int, Prob]:
        """Law of |X| as a value -> probability dict."""
        out: Dict[int, Prob] = {}
        for v, p in self._atoms.items():
            a = abs(v)
            out[a] = out.get(a, Fraction(0) if self._exact else 0.0) + p
        return dict(sorted(out.items()))

    def tail_abs(self, s: int) -> Prob:
        """P(|X| >= s)."""
        vals = [p for v, p in self._atoms.items() if abs(v) >= s]
        if not vals:
            return Fraction(0) if self._exact else 0.0
        return sum(vals) if self._exact else math.fsum(vals)

    def expectation_abs(self) -> Prob:
        vals = [abs(v) * p for v, p in self._atoms.items()]
        return sum(vals) if self._exact else math.fsum(vals)

    def to_step_function(self) -> StepFunction:
        """Decreasing rearrangement of |X| as a step function on (0, 1]."""
        law = sorted(self.abs_law().items(), key=lambda kv: -kv[0])
        values = [kv[0] for kv in law]
        probs = [kv[1] for kv in law]
        if self._exact:
            bps = [Fraction(0)]
            for p in probs:
                bps.append(bps[-1] + p)
            return StepFunction(bps, [Fraction(v) for v in values])
        bps = np.concatenate(([0.0], np.cumsum(np.asarray(probs, dtype=float))))
        bps[-1] = 1.0
        return StepFunction(bps, np.asarray(values, dtype=float))

    def to_json_dict(self) -> dict:
        atoms = [
            [v, f"{p.numerator}/{p.denominator}" if self._exact else p]
            for v, p in self._atoms.items()
        ]
        return {"atoms": atoms}

    @classmethod
    def from_json_dict(cls, d: dict) -> "IntegerDistribution":
        atoms: Dict[int, Prob] = {}
        for v, p in d["atoms"]:
            atoms[int(v)] = Fraction(p) if isinstance(p, str) else float(p)
        return cls(atoms)

    def __eq__(self, other):
        if not isinstance(other, IntegerDistribution):
            return NotImplemented
        return self._exact == other._exact and self._atoms == other._atoms

    __hash__ = None

    def __repr__(self):
        kind = "exact" if self._exact else "float"
        return f"IntegerDistribution({len(self._atoms)} atoms, {kind})"


def walk_distribution(k: int, exact: Optional[bool] = None) -> IntegerDistribution:
    """Law of the k-step symmetric walk: P(W_k = k - 2j) = C(k,j) / 2^k."""
    if k < 0:
        raise ValueError("step count must be nonnegative")
    if exact is None:
        exact = k <= EXACT_MAX_STEPS
    if exact:
        if k > EXACT_MAX_STEPS:
            raise ValueError(f"exact mode is capped at k <= {EXACT_MAX_STEPS}")
        denom = 2**k
        atoms: Dict[int, Prob] = {
            k - 2 * j: Fraction(math.comb(k, j), denom) for j in range(k + 1)
        }
    else:
        lp = _log_walk_row(k)
        atoms = {k - 2 * j: float(np.exp(lp[j])) for j in range(k + 1)}
        # exp() truncates the far tail; renormalize the visible part.
        total = math.fsum(atoms.values())
        atoms = {v: p / total for v, p in atoms.items() if p > 0}
    return IntegerDistribution(atoms)


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


def walk_abs_tail(k: int, s: int, exact: Optional[bool] = None) -> Prob:
    """P(|W_k| >= s)."""
    if k < 0 or s < 0:
        raise ValueError("k and s must be nonnegative")
    if exact is None:
        exact = k <= EXACT_MAX_STEPS
    if s > k:
        return Fraction(0) if exact else 0.0
    if exact:
        return _abs_tail_fractions(k)[s]
    if s == 0:
        return 1.0
    H = np.logaddexp.accumulate(_log_walk_row(k))
    return float(np.exp(LN2 + H[(k - s) // 2]))


def walk_abs_layers(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """(values, log_tails) of |W_k|: values descending, log P(|W_k| >= value).

    This is the layered form of the decreasing rearrangement used by the
    log-space norm routines; unlike ``walk_distribution`` it stays O(k) in
    memory and keeps the deep tail at full log precision.
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


def signed_indicator_sum_tail(
    n: int, u, s: int, exact: Optional[bool] = None
) -> Prob:
    """P(|S_n| >= s) for the n-fold signed indicator sum with measure u."""
    _validate_nus(n, u, s)
    if exact is None:
        exact = isinstance(u, Rational) and n <= EXACT_MAX_STEPS
    if exact:
        if not isinstance(u, Rational):
            raise ValueError("exact mode needs a rational u")
        if n > EXACT_MAX_STEPS:
            raise ValueError(f"exact mode is capped at n <= {EXACT_MAX_STEPS}")
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


def signed_indicator_sum_tail_leading(
    n: int, u, s: int, exact: Optional[bool] = None
) -> Prob:
    """Small-u leading term 2^(1-s) C(n,s) u^s of the tail at level s."""
    _validate_nus(n, u, s)
    if exact is None:
        exact = isinstance(u, Rational)
    if exact:
        return Fraction(2 * math.comb(n, s), 2**s) * Fraction(u) ** s
    lead = (1 - s) * LN2 + float(log_binom(n, s)) + s * math.log(float(u))
    return float(np.exp(lead))


def signed_indicator_sum_expectation(
    n: int, u, exact: Optional[bool] = None
) -> Prob:
    """E|S_n| = sum_{s>=1} P(|S_n| >= s) (integer layer-cake)."""
    _validate_nus(n, u)
    if exact is None:
        exact = isinstance(u, Rational) and n <= EXACT_MAX_STEPS
    if exact:
        return sum(
            signed_indicator_sum_tail(n, u, s, exact=True) for s in range(1, n + 1)
        )
    lt = signed_indicator_sum_log_tails(n, float(u))
    return float(np.exp(logsumexp(lt)))
