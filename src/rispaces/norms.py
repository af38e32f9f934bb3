"""Norms of rearrangement-invariant spaces on (0, 1].

Four families behind one dispatch: weighted-rearrangement (``Lorentz``),
maximal-average (``Marcinkiewicz``), Luxemburg (``Orlicz``), and the
two-parameter interpolation scale (``Lpq``).  Every norm depends only on the
decreasing rearrangement, so each routine canonicalizes first and then works on
the layered form (values descending, log of cumulative measure): cumulative
measures of deep tails live far below float underflow, and keeping them as
logs is what makes the large-n experiments honest.

``space_norm_from_layers`` exposes the layered entry point directly for laws
that are generated as (value, log-tail) pairs without ever materializing a
float step function.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from ._numeric import LN2, finite_float, logsumexp
from ._search import golden_max, golden_max_vec
from .generators import ConcaveGenerator, parse_generator
from .stepfn import StepFunction

__all__ = [
    "Lorentz",
    "Marcinkiewicz",
    "Orlicz",
    "Lpq",
    "SpaceSpec",
    "OrliczFunction",
    "exp_lp",
    "lpq_norm",
    "space_norm",
    "space_norm_from_layers",
    "dilation_norm_lorentz",
    "parse_space",
    "space_label",
]


class OrliczFunction:
    """Convex Young function M with M(0) = 0, M increasing on [0, inf).

    Carries stable companions: ``log_fn(u) = log M(u)``, ``inverse_log(ly)``
    solving M(x) = e^ly, both usable far outside the float range of M itself,
    and ``elasticity(u) = u M'(u) / M(u)``, the slope of log M in log u.
    """

    __slots__ = ("fn", "inverse", "log_fn", "inverse_log", "elasticity", "label")

    def __init__(
        self,
        fn: Callable,
        inverse: Callable,
        log_fn: Callable,
        inverse_log: Callable,
        elasticity: Callable,
        label: str,
    ):
        self.fn = fn
        self.inverse = inverse
        self.log_fn = log_fn
        self.inverse_log = inverse_log
        self.elasticity = elasticity
        self.label = label

    def __call__(self, u):
        return self.fn(u)

    def __repr__(self):
        return f"OrliczFunction({self.label})"

    def __eq__(self, other):
        if not isinstance(other, OrliczFunction):
            return NotImplemented
        return self.label == other.label

    def __hash__(self):
        return hash(self.label)


def exp_lp(p) -> OrliczFunction:
    """M(u) = e^(u^p) - 1, the Orlicz function of exponential integrability order p."""
    p = float(p)
    if p < 1.0:
        raise ValueError("exponential-Orlicz order must be >= 1")

    def fn(u):
        return np.expm1(np.asarray(u, dtype=float) ** p)

    def log_fn(u):
        with np.errstate(over="ignore"):
            up = np.asarray(u, dtype=float) ** p  # inf past the float range: M = inf
        out = np.empty(np.shape(up))
        # log(e^x - 1): x + log1p(-e^-x) for large x, log(expm1 x) below.
        big = up > 30.0
        x = up[big]
        out[big] = x + np.log1p(-np.exp(-np.minimum(x, 745.0)))
        with np.errstate(divide="ignore"):
            out[~big] = np.log(np.expm1(up[~big]))
        return out

    def elasticity(u):
        # u M'(u) / M(u) = p x / (1 - e^-x) with x = u^p; it tends to p as x -> 0.
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.asarray(u, dtype=float) ** p
            return np.where(x > 0.0, p * x / -np.expm1(-x), p)

    def inverse(y):
        return np.log1p(np.asarray(y, dtype=float)) ** (1.0 / p)

    def inverse_log(ly):
        # solve e^(x^p) - 1 = e^ly: x = log(1 + e^ly)^(1/p), stably in ly.
        return np.logaddexp(0.0, np.asarray(ly, dtype=float)) ** (1.0 / p)

    return OrliczFunction(fn, inverse, log_fn, inverse_log, elasticity, f"Np:{p:g}")


# ------------------------------------------------------------ space descriptors


@dataclass(frozen=True)
class Lorentz:
    psi: ConcaveGenerator


@dataclass(frozen=True)
class Marcinkiewicz:
    phi: ConcaveGenerator


@dataclass(frozen=True)
class Orlicz:
    M: OrliczFunction


@dataclass(frozen=True)
class Lpq:
    p: float
    q: float

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError("Lpq needs p > 1")
        if not self.q >= 1.0:
            raise ValueError("Lpq needs q >= 1")


SpaceSpec = Union[Lorentz, Marcinkiewicz, Orlicz, Lpq]


def space_label(space: SpaceSpec) -> str:
    if isinstance(space, Lorentz):
        return f"lorentz:{space.psi.label}"
    if isinstance(space, Marcinkiewicz):
        return f"marcinkiewicz:{space.phi.label}"
    if isinstance(space, Orlicz):
        return f"orlicz:{space.M.label}"
    if isinstance(space, Lpq):
        return f"lpq:{space.p:g}:{space.q:g}"
    raise TypeError(f"not a space spec: {space!r}")


def parse_space(token: str) -> SpaceSpec:
    """Mini-DSL: lorentz:GEN | marcinkiewicz:GEN | orlicz:Np:P | lpq:P:Q."""
    head, _, rest = token.partition(":")
    head = head.strip().lower()
    try:
        if head == "lorentz":
            return Lorentz(parse_generator(rest))
        if head == "marcinkiewicz":
            return Marcinkiewicz(parse_generator(rest))
        if head == "orlicz":
            kind, _, param = rest.partition(":")
            if kind.strip().lower() != "np":
                raise ValueError(f"unknown Orlicz family {kind!r}")
            return Orlicz(exp_lp(finite_float(param)))
        if head == "lpq":
            p, _, q = rest.partition(":")
            return Lpq(finite_float(p), finite_float(q))
    except ValueError as exc:
        raise ValueError(f"bad space token {token!r}: {exc}") from None
    raise ValueError(f"unknown space token {token!r}")


# ------------------------------------------------------------- layered internals


def _log_fraction(fr) -> float:
    # log of a positive rational whose float conversion may over/underflow.
    return math.log(fr.numerator) - math.log(fr.denominator)


def _layers_from_step(f: StepFunction) -> Tuple[np.ndarray, np.ndarray]:
    """(values descending, log cumulative measure at each piece end) of f*."""
    x = f.rearrange()
    if x.is_exact:
        values = np.asarray([float(v) for v in x.values])
        lT = np.asarray([_log_fraction(b) for b in x.breakpoints[1:]])
    else:
        values = np.asarray(x.values, dtype=float)
        lT = np.log(np.asarray(x.breakpoints[1:], dtype=float))
    return values, lT


def _check_layers(values: np.ndarray, log_tails: np.ndarray) -> None:
    if values.size == 0 or values.size != log_tails.size:
        raise ValueError("layers need matching nonempty value/log-tail arrays")
    if np.any(values < 0) or np.any(np.diff(values) > 0):
        raise ValueError("layer values must be nonnegative and nonincreasing")
    if np.any(log_tails > 0) or np.any(np.diff(log_tails) <= 0):
        raise ValueError("log tails must be strictly increasing and <= 0")


def _log_lengths(lT: np.ndarray) -> np.ndarray:
    out = np.empty_like(lT)
    out[0] = lT[0]
    if lT.size > 1:
        with np.errstate(divide="ignore"):
            out[1:] = lT[1:] + np.log1p(-np.exp(lT[:-1] - lT[1:]))
    return out


def _lorentz_core(values: np.ndarray, lT: np.ndarray, psi: ConcaveGenerator) -> float:
    if values[0] <= 0:
        return 0.0
    psis = np.exp(np.asarray(psi.log_eval(lT)))
    drops = values - np.concatenate((values[1:], [0.0]))
    # Abel form of the Stieltjes sum: every term is nonnegative, no cancellation.
    return float(math.fsum(drops * psis))


def _marcinkiewicz_core(
    values: np.ndarray, lT: np.ndarray, phi: ConcaveGenerator, refine: bool = True
) -> float:
    if values[0] <= 0:
        return 0.0
    log_len = _log_lengths(lT)
    with np.errstate(divide="ignore"):
        logv = np.log(values)
    logI = np.logaddexp.accumulate(logv + log_len)
    cand = logI - np.asarray(phi.log_eval(lT))
    best = float(np.exp(np.max(cand)))
    # For concave phi the per-piece objective is minimized in the interior, so
    # the breakpoint candidates already carry the sup; the golden pass guards
    # the nearly-linear pieces of table generators at negligible cost.
    if refine and values.size > 1:
        T = np.exp(lT)
        I = np.exp(logI)
        Tprev = np.concatenate(([0.0], T[:-1]))
        Iprev = np.concatenate(([0.0], I[:-1]))
        order = np.argsort(cand)[::-1][:32]
        sel = order[
            (T[order] > 1e-300) & (T[order] > Tprev[order]) & (values[order] > 0)
        ]
        if sel.size:
            lo = Tprev[sel] + (T[sel] - Tprev[sel]) * 1e-9
            base_I, slope, base_T = Iprev[sel], values[sel], Tprev[sel]

            def obj(taus):
                return (base_I + slope * (taus - base_T)) / np.asarray(phi(taus))

            _, ref = golden_max_vec(obj, lo, T[sel])
            best = max(best, float(np.max(ref)))
    return best


def _orlicz_core(values: np.ndarray, lT: np.ndarray, M: OrliczFunction) -> float:
    if values[0] <= 0:
        return 0.0
    keep = values > 0
    v = values[keep]
    ll = _log_lengths(lT)[keep]
    # The modular is at least T_k M(v_k / lam) for every layer k, so each layer
    # bounds the root from below; for a single layer the bound is the root.
    with np.errstate(over="ignore"):
        lam = float(np.max(v / M.inverse_log(-lT[keep])))
    if lam == math.inf:  # a lower bound past the largest float
        raise ValueError("Orlicz norm exceeds the float range")
    lo, hi, L_hi = 0.0, math.inf, math.nan
    last = before = math.inf  # |change of log lam| over the last two steps
    pruned = False
    # Safeguarded Newton on L(s) = log modular(e^s), convex and decreasing in
    # s = log lam: from below the root (L > 0) its steps rise to the root.
    for _ in range(200):
        terms = ll + M.log_fn(v / lam)
        L = float(logsumexp(terms))
        if math.isnan(L):
            raise RuntimeError("Orlicz modular evaluated to NaN: degenerate M")
        if abs(L) <= 1e-13:
            return lam
        if L > 0.0:
            if lam == sys.float_info.max:  # the root lies past the largest float
                raise ValueError("Orlicz norm exceeds the float range")
            lo = lam
        else:
            hi, L_hi = lam, L
        if lo > 0.0 and hi <= math.nextafter(lo, math.inf):
            # The bracket is at float resolution; accept the feasible end if
            # the modular is continuous there, otherwise M jumps across 1.
            if abs(L_hi) <= 1e-9:
                return hi
            raise RuntimeError(
                "Orlicz root search stalled with modular away from 1: degenerate M"
            )
        # L'(s) = -sum_i w_i E(u_i): softmax weights of the terms times the
        # elasticity of M; NaN once a term is infinite, which fails the test below.
        with np.errstate(all="ignore"):
            slope = -float(np.dot(np.exp(terms - L), M.elasticity(v / lam)))
            step = float(lam * np.exp(-L / slope))
        if step == lam:  # a step below float resolution still moves one ulp
            step = float(np.nextafter(lam, math.inf if L > 0.0 else 0.0))
        if L > 0.0 and not pruned:
            # Every later lam is at least this one and the terms fall as lam
            # grows, so the layers dropped here hold below e^-60 of the modular
            # for the rest of the search.
            big = terms >= -60.0 - math.log(terms.size)
            v, ll, pruned = v[big], ll[big], True
        # Newton's step must land inside the bracket and, once the bracket is
        # finite, move less than half as far as the step before the last one
        # (as in rtsafe), so an inexact elasticity cannot make it oscillate;
        # otherwise halve or double lam, or bisect in log lam.
        if lo < step < hi and (
            hi == math.inf or abs(math.log(step / lam)) <= 0.5 * before
        ):
            move, nxt = abs(math.log(step / lam)), step
        elif lo == 0.0:
            move, nxt = LN2, hi / 2.0
        elif hi == math.inf:
            move, nxt = LN2, lo * 2.0
        else:
            nxt = math.exp(0.5 * (math.log(lo) + math.log(hi)))
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            move = abs(math.log(nxt / lam))
        before, last, lam = last, move, nxt
    raise RuntimeError("Orlicz root search failed after 200 iterations: degenerate M")


def _lpq_core(values: np.ndarray, lT: np.ndarray, p: float, q: float) -> float:
    if values[0] <= 0:
        return 0.0
    k = int(np.nonzero(values > 0)[0][-1]) + 1
    v, lt = values[:k], lT[:k]
    ltprev = np.concatenate(([-np.inf], lt[:-1]))
    r = q / p
    with np.errstate(divide="ignore"):
        ldiff = r * lt + np.log1p(-np.exp(r * (ltprev - lt)))
        terms = q * np.log(v) + ldiff
    return float(np.exp(logsumexp(terms) / q))


# --------------------------------------------------------------- public norms


def _price(values: np.ndarray, lT: np.ndarray, space: SpaceSpec) -> float:
    if isinstance(space, Lorentz):
        return _lorentz_core(values, lT, space.psi)
    if isinstance(space, Marcinkiewicz):
        return _marcinkiewicz_core(values, lT, space.phi)
    if isinstance(space, Orlicz):
        return _orlicz_core(values, lT, space.M)
    if isinstance(space, Lpq):
        return _lpq_core(values, lT, space.p, space.q)
    raise TypeError(f"not a space spec: {space!r}")


def space_norm(f: StepFunction, space: SpaceSpec) -> float:
    """Norm of f in the space, priced on the layers of the rearrangement f*.

    - ``Lorentz(psi)``: the integral of f* against d psi (a Stieltjes sum).
    - ``Marcinkiewicz(phi)``: sup over tau of (integral of f* up to tau) / phi(tau).
    - ``Orlicz(M)``: the Luxemburg norm, the lambda at which the modular of
      f/lambda equals 1, by safeguarded Newton in log lambda from a lower bound
      that costs no evaluation.  There the modular is within 1e-12 of 1 for
      continuous strictly increasing M (within 1e-9 when the modular is so
      steep that float lambda granularity is the binding constraint).
    - ``Lpq(p, q)``: the prefactor-inside convention, ||chi_(0,u]|| = u^(1/p).
    """
    return _price(*_layers_from_step(f), space)


def lpq_norm(f: StepFunction, p: float, q: float) -> float:
    """``space_norm(f, Lpq(p, q))``."""
    return _price(*_layers_from_step(f), Lpq(p, q))


def space_norm_from_layers(values, log_tails, space: SpaceSpec) -> float:
    """Norm from layered data: values descending, log P(|X| >= value) increasing.

    Accepts tails below float underflow; this is the only route that prices
    the extreme layers of large-n laws correctly.
    """
    values = np.asarray(values, dtype=float)
    log_tails = np.asarray(log_tails, dtype=float)
    _check_layers(values, log_tails)
    return _price(values, log_tails, space)


def dilation_norm_lorentz(tau, psi: ConcaveGenerator) -> float:
    """Norm of the dilation-by-tau operator on the psi-weighted space.

    Realized on indicators: sup over u in (0,1] of psi(min(1, tau*u)) / psi(u),
    probed on a geometric grid with golden refinement around the argmax.
    """
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError("dilation factor must be positive")
    if tau == 1.0:
        return 1.0
    ltau = math.log(tau)

    def obj(lu):
        lu = np.asarray(lu, dtype=float)
        return np.exp(
            np.asarray(psi.log_eval(np.minimum(0.0, ltau + lu)))
            - np.asarray(psi.log_eval(lu))
        )

    lus = -np.arange(0, 61, dtype=float) * LN2
    if tau > 1.0:
        lus = np.concatenate((lus, [-ltau]))  # kink where tau*u reaches 1
    lus = np.sort(lus)
    vals = obj(lus)
    i = int(np.argmax(vals))
    lo = lus[max(0, i - 1)]
    hi = lus[min(lus.size - 1, i + 1)]
    _, refined = golden_max(lambda lu: float(obj(lu)), lo, hi)
    return max(float(np.max(vals)), float(refined))
