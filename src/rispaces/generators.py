"""Concave generators on (0, 1] and their tail-limit estimators.

A generator is an increasing concave function psi with psi(0+) = 0; it
parameterizes the weighted-rearrangement norm (integral of the decreasing
rearrangement against d psi) and the maximal-average norm.  Each built-in
carries a ``log_eval`` companion returning log psi(t) from log t, so deep-tail
probes never materialize t itself: ratios like psi(u^l)/psi(u) stay computable
long after u^l leaves float range.

The limit estimators implement one fixed protocol: probe on the geometric grid
u = 2^-j, report the maximum over the last ``window`` grid points, and flag
convergence iff the last two window maxima agree within the configured
tolerance.  They never extrapolate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._numeric import LN2, finite_float, log_binom
from .gaussian import erfc_inverse, erfc_inverse_log

__all__ = [
    "ConcaveGenerator",
    "power",
    "logpow",
    "inv_sqrt_log",
    "gauss",
    "table",
    "table_from_csv",
    "parse_generator",
    "GridConfig",
    "LimitEstimate",
    "limsup_dilation_ratio",
    "limsup_power_ratio",
    "limsup_tail_sum_ratio",
    "chained_power_ratio_bound",
]

_SQRT_PI = math.sqrt(math.pi)


def _ufunc(f):
    """Coerce scalars to 1-d float arrays and back, so evals accept both."""

    def wrapped(t):
        tt = np.asarray(t, dtype=float)
        out = np.asarray(f(np.atleast_1d(tt)))
        return out.reshape(tt.shape) if tt.ndim else float(out[0])

    return wrapped


class ConcaveGenerator:
    """Increasing concave psi on (0, 1] with psi(0+) = 0.

    ``fn`` evaluates psi and ``log_fn`` evaluates log psi(e^lt) from lt = log t.
    Both accept floats or float arrays.
    """

    __slots__ = ("_fn", "_log_fn", "label")

    def __init__(self, fn: Callable, *, log_fn: Callable, label: str = "psi"):
        self._fn = fn
        self._log_fn = log_fn
        self.label = label

    def __call__(self, t):
        return self._fn(t)

    def log_eval(self, lt):
        """log psi(e^lt)."""
        return self._log_fn(lt)

    def __repr__(self):
        return f"ConcaveGenerator({self.label})"

    def validate(self, j_max: int = 60, tol: float = 1e-12) -> None:
        """Grid checks of the three structural invariants; raises ValueError."""
        js = np.arange(0, j_max + 1)
        u = np.exp2(-js.astype(float))
        vals = np.asarray(self(u), dtype=float)
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            raise ValueError(f"{self.label}: values must be finite and positive on (0, 1]")
        if not np.all(np.diff(vals) < 0):
            raise ValueError(f"{self.label}: not increasing on the geometric grid")
        # Vanishing at 0+, probed far below float range through log_eval.
        deep = float(np.asarray(self.log_eval(-1.0e9)))
        if not deep < math.log(vals[0]) - 2.0:
            raise ValueError(f"{self.label}: does not vanish at 0+")
        # Midpoint concavity between adjacent grid points.
        mid = (u[:-1] + u[1:]) / 2.0
        lhs = np.asarray(self(mid), dtype=float)
        rhs = (vals[:-1] + vals[1:]) / 2.0
        if np.any(lhs < rhs - tol * np.maximum(1.0, np.abs(rhs))):
            raise ValueError(f"{self.label}: midpoint concavity fails on the grid")
        # Sublinearity psi(u/m) >= psi(u)/m.
        for m in (2, 3, 10, 1000):
            shrunk = np.asarray(self(u / m), dtype=float)
            if np.any(m * shrunk < vals * (1.0 - 1e-12)):
                raise ValueError(f"{self.label}: sublinearity fails for m={m}")


# ------------------------------------------------------------------ built-ins


def power(alpha) -> ConcaveGenerator:
    """psi(t) = t^alpha for 0 < alpha <= 1."""
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise ValueError("power exponent must lie in (0, 1]")
    return ConcaveGenerator(
        _ufunc(lambda t: t**a),
        log_fn=lambda lt: a * np.asarray(lt, dtype=float)
        if np.ndim(lt)
        else a * float(lt),
        label=f"power:{a:g}",
    )


def logpow(p) -> ConcaveGenerator:
    """psi(t) = t * log(e/t)^(1/p), p >= 1 (the exp-L_p companion generator)."""
    p = float(p)
    if p < 1.0:
        raise ValueError("logpow parameter must be >= 1")
    ip = 1.0 / p

    def fn(t):
        return t * np.log(np.e / t) ** ip

    def log_fn(lt):
        ltt = np.asarray(lt, dtype=float)
        out = ltt + ip * np.log1p(-ltt)
        return out if ltt.ndim else float(out)

    return ConcaveGenerator(_ufunc(fn), log_fn=log_fn, label=f"logpow:{p:g}")


# Slowly-varying generator: inverse square root of log(1/t), capped linearly so
# the function reaches 0 at 0 while staying concave.  The cap starts where the
# curved part stops being concave, t0 = e^(-3/2), and matches the left slope.
_ISL_T0 = math.exp(-1.5)
_ISL_PSI0 = 1.5**-0.5
_ISL_SLOPE = 0.5 * (1.5**-1.5) * math.exp(1.5)


def inv_sqrt_log() -> ConcaveGenerator:
    """psi(t) = log(1/t)^(-1/2) for t <= e^(-3/2), linear with matched slope above."""

    def fn(t):
        t = np.asarray(t, dtype=float)
        curved = t <= _ISL_T0
        out = np.empty_like(t)
        with np.errstate(divide="ignore"):
            out[curved] = (-np.log(t[curved])) ** -0.5
        out[~curved] = _ISL_PSI0 + _ISL_SLOPE * (t[~curved] - _ISL_T0)
        return out

    def log_fn(lt):
        lt = np.asarray(lt, dtype=float)
        out = np.empty_like(lt)
        curved = lt <= -1.5
        out[curved] = -0.5 * np.log(-lt[curved])
        out[~curved] = np.log(_ISL_PSI0 + _ISL_SLOPE * (np.exp(lt[~curved]) - _ISL_T0))
        return out

    return ConcaveGenerator(_ufunc(fn), log_fn=_ufunc(log_fn), label="invsqrtlog")


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

    return ConcaveGenerator(_ufunc(fn), log_fn=_ufunc(log_fn), label="gauss")


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
    if ts[0] <= 0.0 or ts[-1] > 1.0:
        raise ValueError("table nodes must lie in (0, 1]")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("table nodes must have distinct t")
    if np.any(ys <= 0) or np.any(np.diff(ys) <= 0):
        raise ValueError("table values must be positive and strictly increasing")
    ts_ext = np.concatenate(([0.0], ts))
    ys_ext = np.concatenate(([0.0], ys))
    if ts[-1] < 1.0:
        last_slope = (
            (ys_ext[-1] - ys_ext[-2]) / (ts_ext[-1] - ts_ext[-2])
            if len(ts_ext) > 1
            else ys[-1] / ts[-1]
        )
        ts_ext = np.concatenate((ts_ext, [1.0]))
        ys_ext = np.concatenate((ys_ext, [ys[-1] + last_slope * (1.0 - ts[-1])]))
    slopes = np.diff(ys_ext) / np.diff(ts_ext)
    if np.any(np.diff(slopes) > 1e-12 * slopes[:-1]):
        raise ValueError("table is not concave: slopes must be nonincreasing")
    lslope0 = math.log(ys_ext[1]) - math.log(ts_ext[1])
    lt0 = math.log(ts_ext[1])

    def fn(t):
        return np.interp(t, ts_ext, ys_ext)

    def log_fn(lt):
        lt = np.asarray(lt, dtype=float)
        out = np.empty_like(lt)
        low = lt < lt0
        out[low] = lslope0 + lt[low]
        out[~low] = np.log(np.interp(np.exp(lt[~low]), ts_ext, ys_ext))
        return out

    return ConcaveGenerator(_ufunc(fn), log_fn=_ufunc(log_fn), label=label)


def table_from_csv(path: str) -> ConcaveGenerator:
    """Read t,psi rows (optional header) into a table generator."""
    pts = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip():
                continue
            try:
                pts.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                if pts:
                    raise ValueError(f"bad table row {row!r} in {path}")
                # header row
    return table(pts, label=f"table:{path}")


def parse_generator(token: str) -> ConcaveGenerator:
    """Mini-DSL: power:A | logpow:P | example7 | invsqrtlog | gauss | table:PATH."""
    head, _, rest = token.partition(":")
    head = head.strip().lower()
    try:
        if head == "power":
            return power(finite_float(rest))
        if head == "logpow":
            return logpow(finite_float(rest))
        if head in ("example7", "invsqrtlog"):
            return inv_sqrt_log()
        if head == "gauss":
            return gauss()
        if head == "table":
            if not rest:
                raise ValueError("table token needs a path")
            return table_from_csv(rest)
    except ValueError as exc:
        raise ValueError(f"bad generator token {token!r}: {exc}") from None
    raise ValueError(f"unknown generator token {token!r}")


# ------------------------------------------------------------ limit estimation


@dataclass(frozen=True)
class GridConfig:
    """Geometric probing grid u = 2^-j for j in [j_min, j_max]."""

    j_min: int = 1
    j_max: int = 60
    window: int = 10
    tol: float = 1e-3

    def __post_init__(self):
        if self.j_min < 0 or self.j_max < self.j_min:
            raise ValueError("need 0 <= j_min <= j_max")
        if self.window < 1:
            raise ValueError("window must be positive")


DEFAULT_GRID = GridConfig()


@dataclass(frozen=True)
class LimitEstimate:
    """Tail-window estimate of a u -> 0 limsuperior."""

    value: float
    grid_min: float
    window: int
    converged: bool
    j_max: int


def _window_estimate(ratios: np.ndarray, grid: GridConfig, j_max: int) -> LimitEstimate:
    w = grid.window
    if ratios.size < 2 * w:
        raise ValueError(
            f"grid too short for window {w}: only {ratios.size} usable points"
        )
    last = float(np.max(ratios[-w:]))
    prev = float(np.max(ratios[-2 * w : -w]))
    converged = abs(last - prev) <= grid.tol * max(1.0, abs(last))
    grid_min = 2.0**-j_max  # underflows to 0.0 on very deep grids, by design
    return LimitEstimate(
        value=last, grid_min=grid_min, window=w, converged=converged, j_max=j_max
    )


def limsup_dilation_ratio(
    psi: ConcaveGenerator, k: int, grid: GridConfig = DEFAULT_GRID
) -> LimitEstimate:
    """Estimate limsup_{u->0} psi(k u) / psi(u) for integer k >= 2.

    Concavity forces the true limit into (0, k]; the probe stays at or below
    k + O(eps) on every grid point.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError("dilation factor k must be an integer >= 2")
    j_lo = max(grid.j_min, math.ceil(math.log2(k)))
    js = np.arange(j_lo, grid.j_max + 1, dtype=float)
    lu = -js * LN2
    ratios = np.exp(
        np.asarray(psi.log_eval(lu + math.log(k))) - np.asarray(psi.log_eval(lu))
    )
    return _window_estimate(ratios, grid, grid.j_max)


def limsup_power_ratio(
    psi: ConcaveGenerator, l: int, grid: GridConfig = DEFAULT_GRID
) -> LimitEstimate:
    """Estimate limsup_{u->0} psi(u^l) / psi(u) for integer l >= 2.

    Runs entirely in log-u coordinates: u^l is never formed, so deep grids do
    not underflow.
    """
    if not isinstance(l, int) or l < 2:
        raise ValueError("power l must be an integer >= 2")
    js = np.arange(max(grid.j_min, 1), grid.j_max + 1, dtype=float)
    lu = -js * LN2
    ratios = np.exp(np.asarray(psi.log_eval(lu * l)) - np.asarray(psi.log_eval(lu)))
    return _window_estimate(ratios, grid, grid.j_max)


def limsup_tail_sum_ratio(
    psi: ConcaveGenerator, n: int, grid: GridConfig = DEFAULT_GRID
) -> LimitEstimate:
    """Estimate limsup_{u->0} (1/psi(u)) * sum_{s=1}^n psi(2^(1-s) C(n,s) u^s).

    The summand arguments are assembled in log space (log-binomials from
    log-factorials), so the s-large terms survive far past float underflow.  The true
    limit lies in (0, n]; finite-u probes exceed n by O(u).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    j_lo = max(grid.j_min, math.ceil(math.log2(n)) if n > 1 else grid.j_min)
    js = np.arange(j_lo, grid.j_max + 1)
    s = np.arange(1, n + 1, dtype=float)
    lcomb = (1.0 - s) * LN2 + log_binom(n, s)
    ratios = np.empty(js.size)
    for i, j in enumerate(js):
        lu = -float(j) * LN2
        largs = lcomb + s * lu
        terms = np.exp(np.asarray(psi.log_eval(largs)) - float(psi.log_eval(lu)))
        ratios[i] = float(np.sum(terms))
    return _window_estimate(ratios, grid, grid.j_max)


def chained_power_ratio_bound(c: float, m: int, l: int) -> float:
    """Upper bound c^(log m / log l - 1) for the m-th power ratio given the l-th.

    Valid for 0 < c < 1 and integers m >= l >= 2: chaining r steps of the
    l-ratio bounds the m-ratio by c^r with l^r <= m, and r >= log m / log l - 1.
    """
    if not 0.0 < c < 1.0:
        raise ValueError("ratio bound c must lie in (0, 1)")
    if not (isinstance(m, int) and isinstance(l, int) and m >= l >= 2):
        raise ValueError("need integers m >= l >= 2")
    return c ** (math.log(m) / math.log(l) - 1.0)
