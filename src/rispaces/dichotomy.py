"""Growth dichotomy of averaged signed-indicator operators, and a series criterion.

The central object is the normalized indicator ratio

    g(n, u) = (1 / (n psi(u))) * sum_{s=1}^n psi(P(|S_n| >= s)),

whose supremum over u equals ||A_n|| / n on the psi-weighted space: extreme
points of the unit ball are normalized indicators, so indicators carry the
operator norm.  The classifier measures two limit conditions (dilation ratios
staying below k, power ratios staying below 1) and lands on one of two
branches: the norm equals n for every n, or it is bounded by C * n^q with
q in [1/2, 1).

``kruglov_check`` estimates sup_t (1/phi(t)) * sum_n phi(t^n / n!), the series
criterion for closure under compound-Poisson sums; partial sums run in log
space so t can probe down to 1e-300.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._numeric import CHUNK, LN2, integer, log_factorial, positive_int
from ._search import golden_max
from .generators import (
    _J_MAX,
    ConcaveGenerator,
    LimitEstimate,
    limsup_dilation_ratio,
    limsup_power_ratio,
    limsup_tail_sum_ratio,
)
from .walks import signed_indicator_sum_log_tails

__all__ = [
    "indicator_ratio",
    "sup_indicator_ratio",
    "lorentz_operator_norm",
    "DichotomyReport",
    "classify",
    "KruglovVerdict",
    "kruglov_check",
    "DEFAULT_KRUGLOV_T_GRID",
]

def indicator_ratio(psi: ConcaveGenerator, n: int, u) -> float:
    """g(n, u): the n-normalized psi-weighted layer sum of the |S_n| tails.

    In (0, 1] up to rounding: one ulp above 1 at n = 1, up to 1.1e-13 above for
    a linear psi (n = 3, u = 2^-740); ``sup_indicator_ratio`` clamps at 1.
    """
    u = float(u)
    logs = psi.log_eval(signed_indicator_sum_log_tails(n, u))
    log_psi_u = psi.log_eval(math.log(u))
    # g does not change when psi is scaled: where psi(u) is subnormal (below 2^-1022) or n psi
    # can pass 2^1023, psi(u) is divided out in log space; elsewhere x - 0.0 is x, bit for bit
    big = math.log(n) + max(float(np.max(logs)), log_psi_u) > 1023 * LN2
    shift = log_psi_u if big or math.exp(log_psi_u) < 2.0**-1022 else 0.0
    terms = np.exp(np.subtract(logs, shift, out=logs), out=logs)
    # fsum is correctly rounded; a list of Python floats spares it boxing each NumPy scalar
    return float(math.fsum(terms.tolist()) / (n * math.exp(log_psi_u - shift)))


def sup_indicator_ratio(psi: ConcaveGenerator, n: int, j_max: int = 40) -> float:
    """sup over u in (0, 1] of g(n, u), grid + golden refinement + u->0 limit.

    The true sup lies in (0, 1]; the result is clamped there so grid noise at
    the 1e-16 level cannot leak past the boundary.
    """
    n = positive_int(n)
    j_max = integer(j_max, 0, "j_max must be nonnegative")
    if j_max > 1022:  # g is read through psi(u), whose ratio loses bits once u is subnormal
        raise ValueError("j_max must be <= 1022: u = 2^-j is subnormal beyond it")
    lus = -np.arange(0, j_max + 1, dtype=float) * LN2

    def g(lu: float) -> float:
        return indicator_ratio(psi, n, math.exp(float(lu)))

    vals = np.asarray([g(lu) for lu in lus])
    i = int(np.argmax(vals))
    lo = lus[min(lus.size - 1, i + 1)]  # lus decreasing: one grid step deeper
    hi = lus[max(0, i - 1)]
    refined = golden_max(g, lo, hi)
    best = max(float(np.max(vals)), float(refined))
    limit = limsup_tail_sum_ratio(psi, n, max(_J_MAX, j_max)).value / n
    return min(1.0, max(best, limit))


def lorentz_operator_norm(psi: ConcaveGenerator, n: int) -> float:
    """||A_n|| on the psi-weighted space: n times the indicator-ratio supremum."""
    return positive_int(n) * sup_indicator_ratio(psi, n)


# ------------------------------------------------------------------ classifier


class DichotomyReport(NamedTuple):
    """Measured verdict: branch, the limit estimates behind it, and constants.

    branch "PowerBound" carries (witness_n0, q, C) with
    C = (sqrt(2)+1) * n0^q * max_{s <= n0} ||A_s||, so that ||A_n|| <= C n^q;
    branch "NormEqualsN" records which limit condition failed to be strict.
    ``inconclusive`` is set whenever any underlying limit estimate has not
    converged on its grid.
    """

    branch: str
    margin: float
    a_estimates: Dict[int, LimitEstimate]
    c_estimates: Dict[int, LimitEstimate]
    opnorms: Dict[int, float]
    witness_n0: Optional[int] = None
    q: Optional[float] = None
    C: Optional[float] = None
    failing_condition: Optional[str] = None
    inconclusive: bool = False


# The decision rule: a ratio is strict when it reads more than _MARGIN below k (below 1)
_K_PROBES, _L_PROBES, _MARGIN = (2, 3, 4), (2, 3), 1e-3


def classify(
    psi: ConcaveGenerator,
    n_list: Sequence[int] = (2, 4, 8, 16, 32, 64),
    j_max: int = 2000,
) -> DichotomyReport:
    """Decide the operator-norm dichotomy from measured limit conditions.

    PowerBound requires both strict conditions: some dilation ratio a(k), k in
    _K_PROBES, below k - _MARGIN AND some power ratio c(l), l in _L_PROBES, below
    1 - _MARGIN.  Then the smallest witness n0 in n_list with measured
    ||A_{n0}|| < n0 fixes q = max(1/2, log ||A_{n0}|| / log n0) and the constant C.

    Each limit is read on the grid u = 2^-j, j <= j_max.  Slowly-varying generators
    need thousands of octaves before their dilation ratios settle to within 1e-3;
    the deep grid is cheap because every built-in evaluates in log-u coordinates.
    """
    n_list = [positive_int(n) for n in n_list]  # all checked before any limit is read
    if not n_list:
        raise ValueError("n_list must be nonempty")
    a_est = {k: limsup_dilation_ratio(psi, k, j_max) for k in _K_PROBES}
    c_est = {l: limsup_power_ratio(psi, l, j_max) for l in _L_PROBES}
    inconclusive = not all(e.converged for e in (*a_est.values(), *c_est.values()))
    cond1 = any(e.value < k - _MARGIN for k, e in a_est.items())
    cond2 = any(e.value < 1.0 - _MARGIN for e in c_est.values())

    opnorms: Dict[int, float] = {}
    witness = q = C = failing = None
    if not (cond1 and cond2):
        failing = "both" if not (cond1 or cond2) else ("first" if not cond1 else "second")
    else:
        for n in sorted(n_list):
            opnorms[n] = lorentz_operator_norm(psi, n)
            # the sup search carries ~1e-15 noise; require a real gap so a
            # measurement of n - epsilon never certifies a witness
            if opnorms[n] < n * (1.0 - 1e-9):
                witness = n
                break
        else:
            # Conditions hold but no probed n measured below n: the probe list
            # is too short to certify the constants.
            failing, inconclusive = "norm-measurement", True
    if witness is not None:
        for s in range(1, witness + 1):
            if s not in opnorms:
                opnorms[s] = lorentz_operator_norm(psi, s)
        q = max(0.5, math.log(opnorms[witness]) / math.log(witness))
        C = (math.sqrt(2.0) + 1.0) * witness**q * max(opnorms[s] for s in range(1, witness + 1))
    return DichotomyReport(
        branch="NormEqualsN" if witness is None else "PowerBound",
        margin=_MARGIN,
        a_estimates=a_est,
        c_estimates=c_est,
        opnorms=opnorms,
        witness_n0=witness,
        q=q,
        C=C,
        failing_condition=failing,
        inconclusive=inconclusive,
    )


# -------------------------------------------------------------- series criterion

DEFAULT_KRUGLOV_T_GRID: Tuple[float, ...] = (
    1.0,
    0.5,
    0.25,
    0.1,
    1e-2,
    1e-4,
    1e-8,
    1e-16,
    1e-32,
    1e-64,
    1e-128,
    1e-250,
    1e-300,
)


class KruglovVerdict(NamedTuple):
    """Outcome of the compound-Poisson series probe.

    finite: every probed t stabilized (partial sums at N/4 and N agree within
    the relative tolerance) with sup below the divergence threshold.
    Divergent verdicts carry the witnessing t and the crossing index.
    ``inconclusive`` flags a probe that neither stabilized nor crossed.
    """

    finite: bool
    sup_value: float
    N_used: int
    t_argmax: float
    inconclusive: bool = False


# Relative gap between the N/4 and N partial sums below which a t has stabilized.
_KRUGLOV_RTOL = 1e-6


def kruglov_check(
    phi: ConcaveGenerator,
    t_grid: Sequence[float] = DEFAULT_KRUGLOV_T_GRID,
    num_terms: int = 1_048_576,
    threshold: float = 1e3,
) -> KruglovVerdict:
    """Probe the series criterion on a t-grid.

    Divergent as soon as some t's partial sum crosses the threshold (the
    crossing index is reported); finite when every t stabilizes, i.e. the
    partial sums at N/4 and N agree within ``_KRUGLOV_RTOL``.  The whole
    t-grid is validated before any term is summed.

    The t's are walked one after another in grid order, so the verdict is
    that of the first t that crosses.  Each t walks n = 1..N in chunks of
    ``CHUNK`` terms, so memory does not grow with N.  A chunk evaluates
    log(t^n / n!) elementwise, which gives the terms one N-term array would
    hold, and the running sum enters the chunk's cumsum through its first
    term, so every partial sum is the sequential sum of the whole series, bit
    for bit.

    The walk of a t stops after a chunk whose last term is an exact 0.0, and
    the N/4 and N sums are then the running sum (the N/4 sum, if it came
    earlier, as taken).  The stop is exact.  For t <= 1, t^n / n! decreases in
    n and phi increases, so each later term is at most the one that underflowed.
    Float rounding may break that order, but only by the rounding of a
    log-space value, far less than the gap of some 700 between exp underflow
    and 2^-54: a later term is 0 or subnormal.  The first term is
    phi(t)/phi(t) = 1, so the running sum is at least 1 and absorbs any term
    below 2^-54 unchanged.
    """
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ValueError("t_grid must be nonempty")
    num_terms = integer(num_terms, 4, "num_terms must allow an N/4 checkpoint")
    # the n = 1 term phi(t)/phi(t) is 1, so a threshold <= 1 is crossed at once
    if not (math.isfinite(threshold) and threshold > 1):
        raise ValueError(f"threshold must be finite and > 1, got {threshold!r}")
    if not all(0.0 < t <= 1.0 for t in ts):
        raise ValueError("t_grid values must lie in (0, 1]")
    quarter_n = num_terms // 4
    best = -math.inf
    best_t = ts[0]
    any_unsettled = False
    for t in ts:
        log_t = math.log(t)
        log_phi_t = phi.log_eval(log_t)
        quarter, full = None, 0.0  # the N/4 sum and the running sum
        for start in range(1, num_terms + 1, CHUNK):
            n = np.arange(start, min(start + CHUNK, num_terms + 1), dtype=float)
            largs = n * log_t
            largs -= log_factorial(n)  # log(t^n / n!)
            terms = phi.log_eval(largs)
            terms -= log_phi_t
            np.exp(terms, out=terms)
            underflowed = terms[-1] == 0.0
            terms[0] += full
            csum = np.cumsum(terms, out=terms)
            crossed = np.flatnonzero(csum >= threshold)
            if crossed.size:
                return KruglovVerdict(finite=False, sup_value=math.inf,
                                      N_used=start + int(crossed[0]), t_argmax=t)
            if start <= quarter_n < start + csum.size:
                quarter = float(csum[quarter_n - start])
            full = float(csum[-1])
            if underflowed:
                break
        if quarter is not None and abs(full - quarter) > _KRUGLOV_RTOL * max(1.0, abs(full)):
            any_unsettled = True
        if full > best:
            best, best_t = full, t
    return KruglovVerdict(
        finite=not any_unsettled,
        sup_value=best,
        N_used=num_terms,
        t_argmax=best_t,
        inconclusive=any_unsettled,
    )
