"""Concave generators on (0, 1] and their tail-limit estimators.

A generator is an increasing concave function psi with psi(0+) = 0; it
parameterizes the weighted-rearrangement norm (integral of the decreasing
rearrangement against d psi) and the maximal-average norm.  Each built-in
carries a ``log_eval`` companion returning log psi(t) from log t, so deep-tail
probes never materialize t itself: ratios like psi(u^l)/psi(u) stay computable
long after u^l leaves float range.

The limit estimators implement one fixed protocol: probe on the geometric grid
u = 2^-j for j up to ``j_max``, report the maximum over the last ``_WINDOW`` grid
points, and flag convergence iff the last two window maxima agree within the
relative ``_TOL``.  They never extrapolate.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._numeric import (LN2, csv_rows, elementwise, finite_float, integer, log_binom, parse_token,
                       positive_int)
from .gaussian import _SQRT_PI, erfc_inverse, erfc_inverse_log

__all__ = [
    "ConcaveGenerator",
    "power",
    "logpow",
    "inv_sqrt_log",
    "gauss",
    "table",
    "table_from_csv",
    "parse_generator",
    "LimitEstimate",
    "limsup_dilation_ratio",
    "limsup_power_ratio",
    "limsup_tail_sum_ratio",
]


class ConcaveGenerator:
    """Increasing concave psi on (0, 1] with psi(0+) = 0.

    ``fn`` evaluates psi and ``log_fn`` evaluates log psi(e^lt) from lt = log t, each on a
    1-d float array of at most ``CHUNK`` entries; ``__call__`` and ``log_eval`` flatten
    through ``_numeric.elementwise``, so they act elementwise on a float or any array.
    """

    __slots__ = ("_fn", "_log_fn", "label")

    def __init__(self, fn: Callable, *, log_fn: Callable, label: str = "psi"):
        self._fn = fn
        self._log_fn = log_fn
        self.label = label

    def __call__(self, t):
        return elementwise(self._fn, t)

    def log_eval(self, lt):
        """log psi(e^lt)."""
        return elementwise(self._log_fn, lt)

    def __repr__(self):
        return f"ConcaveGenerator({self.label})"


# ------------------------------------------------------------------ built-ins


def power(alpha) -> ConcaveGenerator:
    """psi(t) = t^alpha for 0 < alpha <= 1."""
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise ValueError("power exponent must lie in (0, 1]")
    return ConcaveGenerator(lambda t: t**a, log_fn=lambda lt: a * lt, label=f"power:{a:g}")


def logpow(p) -> ConcaveGenerator:
    """psi(t) = t * log(e/t)^(1/p), p >= 1 (the exp-L_p companion generator)."""
    p = float(p)
    if not p >= 1.0:
        raise ValueError("logpow parameter must be >= 1")
    ip = 1.0 / p

    def fn(t):
        with np.errstate(over="ignore"):
            log_e_t = np.log(np.e / t)
        # e / t overflows for t below e / DBL_MAX; there log(e/t) is 1 - log t
        over = np.isinf(log_e_t)
        log_e_t[over] = 1.0 - np.log(t[over])
        return t * log_e_t ** ip

    def log_fn(lt):
        return lt + ip * np.log1p(-lt)

    return ConcaveGenerator(fn, log_fn=log_fn, label=f"logpow:{p:g}")


# Slowly-varying generator: inverse square root of log(1/t), capped linearly so
# the function reaches 0 at 0 while staying concave.  The cap starts where the
# curved part stops being concave, t0 = e^(-3/2), and matches the left slope.
_ISL_T0 = math.exp(-1.5)
_ISL_PSI0 = 1.5**-0.5
_ISL_SLOPE = 0.5 * (1.5**-1.5) * math.exp(1.5)


def inv_sqrt_log() -> ConcaveGenerator:
    """psi(t) = log(1/t)^(-1/2) for t <= e^(-3/2), linear with matched slope above."""

    def fn(t):
        curved = t <= _ISL_T0
        out = np.empty_like(t)
        with np.errstate(divide="ignore"):
            out[curved] = (-np.log(t[curved])) ** -0.5
        out[~curved] = _ISL_PSI0 + _ISL_SLOPE * (t[~curved] - _ISL_T0)
        return out

    def log_fn(lt):
        out = np.empty_like(lt)
        curved = lt <= -1.5
        out[curved] = -0.5 * np.log(-lt[curved])
        out[~curved] = np.log(_ISL_PSI0 + _ISL_SLOPE * (np.exp(lt[~curved]) - _ISL_T0))
        return out

    return ConcaveGenerator(fn, log_fn=log_fn, label="invsqrtlog")


def gauss() -> ConcaveGenerator:
    """psi(t) = integral_0^t G, with G the inverse of the two-sided Gaussian tail.

    Closed form psi(t) = exp(-G(t)^2) / sqrt(pi); the derivative is G itself,
    so the step function psi' carries exactly the |N(0, 1/2)| quantiles.
    """

    def fn(t):
        return np.exp(-np.square(erfc_inverse(t))) / _SQRT_PI

    def log_fn(lt):
        g = erfc_inverse_log(lt)
        return -np.square(g) - 0.5 * math.log(math.pi)

    return ConcaveGenerator(fn, log_fn=log_fn, label="gauss")


def table(points: Sequence, label: str = "table") -> ConcaveGenerator:
    """Piecewise-linear generator through (t, psi) nodes, validated monotone-concave.

    Below the first node the function continues linearly to (0, 0); above the
    last node it continues with the final slope up to t = 1.
    """
    pts = sorted((float(t), float(y)) for t, y in points)
    if not pts:
        raise ValueError("table needs at least one node")
    ts = np.asarray([p[0] for p in pts])
    ys = np.asarray([p[1] for p in pts])
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(ys))):
        raise ValueError("table nodes must be finite")
    if ts[0] <= 0.0 or ts[-1] > 1.0:
        raise ValueError("table nodes must lie in (0, 1]")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("table nodes must have distinct t")
    if np.any(ys <= 0) or np.any(np.diff(ys) <= 0):
        raise ValueError("table values must be positive and strictly increasing")
    ts_ext = np.concatenate(([0.0], ts))
    ys_ext = np.concatenate(([0.0], ys))
    with np.errstate(over="ignore"):  # a slope or value past the largest float is refused below
        if ts[-1] < 1.0:
            last_slope = (ys_ext[-1] - ys_ext[-2]) / (ts_ext[-1] - ts_ext[-2])
            ts_ext = np.concatenate((ts_ext, [1.0]))
            ys_ext = np.concatenate((ys_ext, [ys[-1] + last_slope * (1.0 - ts[-1])]))
        slopes = np.diff(ys_ext) / np.diff(ts_ext)
    if not np.all(np.isfinite(slopes)):  # an infinite value at t = 1 makes its slope infinite
        raise ValueError("table slope or continuation to t = 1 passes the largest float")
    if np.any(np.diff(slopes) > 1e-12 * slopes[:-1]):
        raise ValueError("table is not concave: slopes must be nonincreasing")
    lslope0 = math.log(ys_ext[1]) - math.log(ts_ext[1])
    lt0 = math.log(ts_ext[1])

    def fn(t):
        return np.interp(t, ts_ext, ys_ext)

    def log_fn(lt):
        out = np.empty_like(lt)
        low = lt < lt0
        out[low] = lslope0 + lt[low]
        out[~low] = np.log(np.interp(np.exp(lt[~low]), ts_ext, ys_ext))
        return out

    return ConcaveGenerator(fn, log_fn=log_fn, label=label)


def table_from_csv(path: str) -> ConcaveGenerator:
    """A table generator through the t,psi rows of a CSV file (README "Input files")."""
    return table(csv_rows(path, 2), label=f"table:{path}")


def parse_generator(token: str) -> ConcaveGenerator:
    """Mini-DSL: power:A | logpow:P | example7 | invsqrtlog | gauss | table:PATH."""
    return parse_token("generator", token, {
        "power": lambda rest: power(finite_float(rest)),
        "logpow": lambda rest: logpow(finite_float(rest)),
        "example7": lambda rest: inv_sqrt_log(),
        "invsqrtlog": lambda rest: inv_sqrt_log(),
        "gauss": lambda rest: gauss(),
        "table": table_from_csv,
    }, paths=("table",))


# ------------------------------------------------------------ limit estimation


_J_MAX = 60  # the default depth; sup_indicator_ratio reads its u -> 0 limit no shallower
_WINDOW = 10
_TOL = 1e-3


class LimitEstimate(NamedTuple):
    """Tail-window estimate of a u -> 0 limsuperior: the largest ratio in the last
    ``_WINDOW`` grid points, converged when the window before agrees within ``_TOL``."""

    value: float
    converged: bool


def _limit(ratio: Callable, j_lo: int, j_max: int) -> LimitEstimate:
    """Window estimate of ``ratio`` (an array of log u to an array of ratios)
    on the grid u = 2^-j, j_lo <= j <= j_max, given in log u, so a depth at which
    2^-j_max underflows to 0.0 reads like any other."""
    j_max = integer(j_max, 1, f"need j_max >= 1, got {j_max}")
    lus = -np.arange(j_lo, j_max + 1, dtype=float) * LN2
    if lus.size < 2 * _WINDOW:
        raise ValueError(f"j_max = {j_max} leaves {lus.size} grid points; "
                         f"a limit estimate needs {2 * _WINDOW}")
    ratios = ratio(lus)
    last = float(np.max(ratios[-_WINDOW:]))
    prev = float(np.max(ratios[-2 * _WINDOW : -_WINDOW]))
    converged = abs(last - prev) <= _TOL * max(1.0, abs(last))
    return LimitEstimate(value=last, converged=converged)


def limsup_dilation_ratio(psi: ConcaveGenerator, k: int, j_max: int = _J_MAX) -> LimitEstimate:
    """Estimate limsup_{u->0} psi(k u) / psi(u) for integer k >= 2.

    Concavity forces the true limit into (0, k]; the probe stays at or below
    k + O(eps) on every grid point.  The grid starts where k u <= 1.
    """
    k = integer(k, 2, "dilation factor k must be an integer >= 2")

    def ratio(lu):
        return np.exp(psi.log_eval(lu + math.log(k)) - psi.log_eval(lu))

    return _limit(ratio, math.ceil(math.log2(k)), j_max)


def limsup_power_ratio(psi: ConcaveGenerator, l: int, j_max: int = _J_MAX) -> LimitEstimate:
    """Estimate limsup_{u->0} psi(u^l) / psi(u) for integer l >= 2.

    Runs entirely in log-u coordinates: u^l is never formed, so deep grids do
    not underflow.
    """
    l = integer(l, 2, "power l must be an integer >= 2")
    return _limit(lambda lu: np.exp(psi.log_eval(lu * l) - psi.log_eval(lu)), 1, j_max)


def limsup_tail_sum_ratio(psi: ConcaveGenerator, n: int, j_max: int = _J_MAX) -> LimitEstimate:
    """Estimate limsup_{u->0} (1/psi(u)) * sum_{s=1}^n psi(2^(1-s) C(n,s) u^s).

    The summand arguments are assembled in log space (log-binomials from
    log-factorials), so the s-large terms survive far past float underflow.  The true
    limit lies in (0, n]; finite-u probes exceed n by O(u).  One u at a time,
    so memory stays O(n) whatever the grid depth.
    """
    n = positive_int(n)
    s = np.arange(1, n + 1, dtype=float)
    lcomb = (1.0 - s) * LN2 + log_binom(n, s)

    def ratio(lus):
        return np.array(
            [np.sum(np.exp(psi.log_eval(lcomb + s * lu) - psi.log_eval(lu))) for lu in lus]
        )

    return _limit(ratio, max(1, math.ceil(math.log2(n))), j_max)
