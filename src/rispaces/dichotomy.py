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
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ._numeric import LN2, log_factorial
from ._search import golden_max
from .generators import (
    DEFAULT_GRID,
    ConcaveGenerator,
    GridConfig,
    LimitEstimate,
    limsup_dilation_ratio,
    limsup_power_ratio,
    limsup_tail_sum_ratio,
)
from .walks import signed_indicator_sum_log_tails

__all__ = [
    "indicator_ratio",
    "indicator_ratio_small_u_limit",
    "sup_indicator_ratio",
    "lorentz_operator_norm",
    "DichotomyReport",
    "classify",
    "CLASSIFY_GRID",
    "KruglovVerdict",
    "kruglov_series",
    "kruglov_check",
    "DEFAULT_KRUGLOV_T_GRID",
]

# Slowly-varying generators need thousands of octaves before their dilation
# ratios settle to within 1e-3; the deep grid is cheap because every built-in
# evaluates in log-u coordinates.
CLASSIFY_GRID = GridConfig(j_min=1, j_max=2000, window=10, tol=1e-3)


def indicator_ratio(psi: ConcaveGenerator, n: int, u) -> float:
    """g(n, u): the n-normalized psi-weighted layer sum of the |S_n| tails.

    Always in (0, 1]; equals 1 exactly at n = 1.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    u = float(u)
    if not 0.0 < u <= 1.0:
        raise ValueError("indicator measure u must lie in (0, 1]")
    log_tails = signed_indicator_sum_log_tails(n, u)
    terms = np.exp(np.asarray(psi.log_eval(log_tails)))
    return float(math.fsum(terms) / (n * math.exp(float(psi.log_eval(math.log(u))))))


def indicator_ratio_small_u_limit(
    psi: ConcaveGenerator, n: int, grid: GridConfig = DEFAULT_GRID
) -> LimitEstimate:
    """Estimate of limsup_{u->0} g(n, u), via the leading tail terms.

    As u -> 0 each tail collapses to its leading term 2^(1-s) C(n,s) u^s, so
    the limit is the tail-sum ratio estimate divided by n.  The convergence
    flag is inherited.
    """
    est = limsup_tail_sum_ratio(psi, n, grid)
    return replace(est, value=est.value / n)


def sup_indicator_ratio(psi: ConcaveGenerator, n: int, j_max: int = 40) -> float:
    """sup over u in (0, 1] of g(n, u), grid + golden refinement + u->0 limit.

    The true sup lies in (0, 1]; the result is clamped there so grid noise at
    the 1e-16 level cannot leak past the boundary.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    if j_max > 1074:  # 2^-1074 is the smallest positive double
        raise ValueError("j_max must be <= 1074: u = 2^-j underflows to 0 beyond it")
    lus = -np.arange(0, j_max + 1, dtype=float) * LN2

    def g(lu: float) -> float:
        return indicator_ratio(psi, n, math.exp(float(lu)))

    vals = np.asarray([g(lu) for lu in lus])
    i = int(np.argmax(vals))
    lo = lus[min(lus.size - 1, i + 1)]  # lus decreasing: one grid step deeper
    hi = lus[max(0, i - 1)]
    _, refined = golden_max(g, lo, hi, iters=60)
    best = max(float(np.max(vals)), float(refined))
    limit = indicator_ratio_small_u_limit(psi, n, GridConfig(j_max=max(60, j_max)))
    return min(1.0, max(best, limit.value))


def lorentz_operator_norm(psi: ConcaveGenerator, n: int, j_max: int = 40) -> float:
    """||A_n|| on the psi-weighted space: n times the indicator-ratio supremum."""
    return n * sup_indicator_ratio(psi, n, j_max=j_max)


# ------------------------------------------------------------------ classifier

_SQRT2P1 = math.sqrt(2.0) + 1.0


@dataclass(frozen=True)
class DichotomyReport:
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
    kruglov: Optional["KruglovVerdict"] = None


def classify(
    psi: ConcaveGenerator,
    k_list: Sequence[int] = (2, 3, 4),
    l_list: Sequence[int] = (2, 3),
    n_list: Sequence[int] = (2, 4, 8, 16, 32, 64),
    margin: float = 1e-3,
    grid: GridConfig = CLASSIFY_GRID,
    with_kruglov: bool = False,
) -> DichotomyReport:
    """Decide the operator-norm dichotomy from measured limit conditions.

    PowerBound requires both strict conditions: some dilation ratio a(k)
    below k - margin AND some power ratio c(l) below 1 - margin.  Then the
    smallest witness n0 with measured ||A_{n0}|| < n0 fixes
    q = max(1/2, log ||A_{n0}|| / log n0) and the constant C.
    """
    if not (k_list and l_list and n_list):
        raise ValueError("probe lists must be nonempty")
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must lie in [0, 1), got {margin!r}")
    a_est = {int(k): limsup_dilation_ratio(psi, int(k), grid) for k in k_list}
    c_est = {int(l): limsup_power_ratio(psi, int(l), grid) for l in l_list}
    inconclusive = any(not e.converged for e in a_est.values()) or any(
        not e.converged for e in c_est.values()
    )
    cond1 = any(e.value < k - margin for k, e in a_est.items())
    cond2 = any(e.value < 1.0 - margin for l, e in c_est.items())
    kruglov = kruglov_check(psi) if with_kruglov else None

    opnorms: Dict[int, float] = {}
    if cond1 and cond2:
        witness = None
        for n in sorted(int(n) for n in n_list):
            opnorms[n] = lorentz_operator_norm(psi, n)
            # the sup search carries ~1e-15 noise; require a real gap so a
            # measurement of n - epsilon never certifies a witness
            if opnorms[n] < n * (1.0 - 1e-9):
                witness = n
                break
        if witness is None:
            # Conditions hold but no probed n measured below n: the probe list
            # is too short to certify the constants.
            return DichotomyReport(
                branch="NormEqualsN",
                margin=margin,
                a_estimates=a_est,
                c_estimates=c_est,
                opnorms=opnorms,
                failing_condition="norm-measurement",
                inconclusive=True,
                kruglov=kruglov,
            )
        for s in range(1, witness + 1):
            if s not in opnorms:
                opnorms[s] = lorentz_operator_norm(psi, s)
        q = max(0.5, math.log(opnorms[witness]) / math.log(witness))
        C = _SQRT2P1 * witness**q * max(opnorms[s] for s in range(1, witness + 1))
        return DichotomyReport(
            branch="PowerBound",
            margin=margin,
            a_estimates=a_est,
            c_estimates=c_est,
            opnorms=opnorms,
            witness_n0=witness,
            q=q,
            C=C,
            inconclusive=inconclusive,
            kruglov=kruglov,
        )
    failing = "both" if not (cond1 or cond2) else ("first" if not cond1 else "second")
    return DichotomyReport(
        branch="NormEqualsN",
        margin=margin,
        a_estimates=a_est,
        c_estimates=c_est,
        opnorms=opnorms,
        failing_condition=failing,
        inconclusive=inconclusive,
        kruglov=kruglov,
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


@dataclass(frozen=True)
class KruglovVerdict:
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


def _log_factorials(num_terms: int) -> np.ndarray:
    """log n! for n = 1..N, shared by every t of a probe."""
    return log_factorial(np.arange(1, num_terms + 1, dtype=float))


def _kruglov_partial_terms(
    phi: ConcaveGenerator, t: float, log_n_fact: np.ndarray
) -> np.ndarray:
    largs = np.arange(1, log_n_fact.size + 1, dtype=float)
    largs *= math.log(t)
    largs -= log_n_fact  # log(t^n / n!)
    return np.exp(
        np.asarray(phi.log_eval(largs)) - float(phi.log_eval(math.log(t)))
    )


def kruglov_series(phi: ConcaveGenerator, t, num_terms: int) -> float:
    """Partial sum (1/phi(t)) * sum_{n=1}^N phi(t^n / n!), in log space."""
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise ValueError("t must lie in (0, 1]")
    if not isinstance(num_terms, int) or num_terms < 1:
        raise ValueError("num_terms must be a positive integer")
    terms = _kruglov_partial_terms(phi, t, _log_factorials(num_terms))
    return float(np.sum(terms))


def kruglov_check(
    phi: ConcaveGenerator,
    t_grid: Sequence[float] = DEFAULT_KRUGLOV_T_GRID,
    num_terms: int = 1_048_576,
    threshold: float = 1e3,
    stabilization_rtol: float = 1e-6,
) -> KruglovVerdict:
    """Probe the series criterion on a t-grid.

    Divergent as soon as some t's partial sum crosses the threshold (the
    crossing index is reported); finite when every t stabilizes, i.e. the
    partial sums at N/4 and N agree within the relative tolerance.
    """
    if not t_grid:
        raise ValueError("t_grid must be nonempty")
    if num_terms < 4:
        raise ValueError("num_terms must allow an N/4 checkpoint")
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and positive, got {threshold!r}")
    best = -math.inf
    best_t = float(t_grid[0])
    any_unsettled = False
    log_n_fact = _log_factorials(num_terms)
    for t in t_grid:
        t = float(t)
        if not 0.0 < t <= 1.0:
            raise ValueError("t_grid values must lie in (0, 1]")
        terms = _kruglov_partial_terms(phi, t, log_n_fact)
        csum = np.cumsum(terms)
        crossed = np.nonzero(csum >= threshold)[0]
        if crossed.size:
            return KruglovVerdict(
                finite=False,
                sup_value=math.inf,
                N_used=int(crossed[0]) + 1,
                t_argmax=t,
            )
        full = float(csum[-1])
        quarter = float(csum[num_terms // 4 - 1])
        if abs(full - quarter) > stabilization_rtol * max(1.0, abs(full)):
            any_unsettled = True
        if full > best:
            best, best_t = full, t
    if any_unsettled:
        return KruglovVerdict(
            finite=False,
            sup_value=best,
            N_used=num_terms,
            t_argmax=best_t,
            inconclusive=True,
        )
    return KruglovVerdict(
        finite=True, sup_value=best, N_used=num_terms, t_argmax=best_t
    )
