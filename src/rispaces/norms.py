"""Norms of rearrangement-invariant spaces on (0, 1].

Four families behind one dispatch: weighted-rearrangement (``Lorentz``),
maximal-average (``Marcinkiewicz``), Luxemburg on the exponential scale
exp(L_p) (``Orlicz(exp_lp(p))``), and the two-parameter interpolation scale
(``Lpq``).  Every norm depends only on the decreasing rearrangement, so each
routine canonicalizes first and then works on the layered form (values
descending, log of cumulative measure): cumulative measures of deep tails live
far below float underflow, and keeping them as logs is what makes the large-n
experiments honest.

``space_norm_from_layers`` exposes the layered entry point directly for laws
that are generated as (value, log-tail) pairs without ever materializing a
float step function.  Every route prices through one dispatch, which takes the
layers as a stream of consecutive chunks: the Lorentz and Lpq norms read the
stream once, with the same bits wherever it is cut (the comment on the cores
says why), and the Marcinkiewicz and Orlicz norms take a stream of one chunk.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Tuple, Union

import numpy as np

from ._numeric import CHUNK, LN2, elementwise, finite_float, logsumexp, parse_token
from ._search import golden_max_vec
from .generators import ConcaveGenerator, parse_generator
from .stepfn import StepFunction

__all__ = [
    "Lorentz",
    "Marcinkiewicz",
    "Orlicz",
    "Lpq",
    "SpaceSpec",
    "exp_lp",
    "lpq_norm",
    "space_norm",
    "space_norm_from_layers",
    "parse_space",
    "space_label",
]


class exp_lp(NamedTuple("exp_lp", [("p", float)])):
    """The Young function M(u) = e^(u^p) - 1 of exp(L_p), p >= 1; equal p, equal M.

    The Orlicz norm reads M only through companions usable far outside the
    float range of M itself: ``log_fn(u) = log M(u)``, ``inverse_log(ly)``
    solving M(x) = e^ly, and ``elasticity(u) = u M'(u) / M(u)``, the slope of
    log M in log u.
    """

    __slots__ = ()

    def __new__(cls, p):
        p = float(p)
        if not p >= 1.0:
            raise ValueError("exponential-Orlicz order must be >= 1")
        return super().__new__(cls, p)

    @property
    def label(self) -> str:
        return f"Np:{self.p:g}"

    def log_fn(self, u):
        def log_m(u):
            with np.errstate(over="ignore"):  # inf past the float range: M = inf
                x = u**self.p
            # log(e^x - 1): x + log1p(-e^-x) for large x, log(expm1 x) below.
            big = x > 30.0
            # Past x = 34, |log1p(-e^-x)| < ulp(x) / 2, so x + log1p(-e^-x) rounds
            # to x whatever the clamp; clamping at 40, not near the float range,
            # keeps e^-x and its log1p out of slow subnormal arithmetic.
            y = np.minimum(x, 40.0, out=np.empty_like(x), where=big)
            for f in (np.negative, np.exp, np.negative, np.log1p):
                f(y, out=y, where=big)
            np.add(x, y, out=y, where=big)
            small = ~big
            np.expm1(x, out=x, where=small)
            with np.errstate(divide="ignore"):
                np.log(x, out=y, where=small)
            return y

        return elementwise(log_m, u)

    def inverse_log(self, ly):
        # solve e^(x^p) - 1 = e^ly: x = log(1 + e^ly)^(1/p), stably in ly.
        return np.logaddexp(0.0, np.asarray(ly, dtype=float)) ** (1.0 / self.p)

    def elasticity(self, u):
        # u M'(u) / M(u) = p x / (1 - e^-x) with x = u^p; it tends to p as x -> 0.
        p = self.p
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.asarray(np.asarray(u, dtype=float) ** p)
            positive = x > 0.0
            denom = np.negative(x, out=np.empty_like(x))
            np.expm1(denom, out=denom)
            np.negative(denom, out=denom)
            x *= p
            x /= denom
        x[~positive] = p
        return x


# ------------------------------------------------------------ space descriptors


class Lorentz(NamedTuple):
    psi: ConcaveGenerator


class Marcinkiewicz(NamedTuple):
    phi: ConcaveGenerator


# a dataclass, not a NamedTuple: perfbench/tracer.py rebuilds it with dataclasses.replace
@dataclass(frozen=True)
class Orlicz:
    M: exp_lp


class Lpq(NamedTuple("Lpq", [("p", float), ("q", float)])):
    __slots__ = ()

    def __new__(cls, p, q):
        if not p > 1.0:
            raise ValueError("Lpq needs p > 1")
        # with q <= 1e300 each term q log v + (q / p) log T stays in the float range
        if not 1.0 <= q <= 1e300:
            raise ValueError("Lpq needs 1 <= q <= 1e300")
        return super().__new__(cls, p, q)


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


def _orlicz_token(rest: str) -> Orlicz:
    kind, _, param = rest.partition(":")
    if kind.strip().lower() != "np":
        raise ValueError(f"unknown Orlicz family {kind!r}")
    return Orlicz(exp_lp(finite_float(param)))


def parse_space(token: str) -> SpaceSpec:
    """Mini-DSL: lorentz:GEN | marcinkiewicz:GEN | orlicz:Np:P | lpq:P:Q."""
    return parse_token("space", token, {
        "lorentz": lambda rest: Lorentz(parse_generator(rest)),
        "marcinkiewicz": lambda rest: Marcinkiewicz(parse_generator(rest)),
        "orlicz": _orlicz_token,
        "lpq": lambda rest: Lpq(*map(finite_float, rest.partition(":")[::2])),
    })


# ------------------------------------------------------------- layered internals

Layers = Tuple[np.ndarray, np.ndarray]  # (values descending, log-tails increasing)


def _log_fraction(fr) -> float:
    # log of a positive rational whose float conversion may over/underflow.
    return math.log(fr.numerator) - math.log(fr.denominator)


def _layers_from_step(f: StepFunction) -> Layers:
    """(values descending, log cumulative measure at each piece end) of f*."""
    x = f.rearrange()
    ends = x.breakpoints[1:]
    lT = np.array([_log_fraction(b) for b in ends]) if x.is_exact else np.log(ends)
    return _advancing(x.values.astype(float, copy=False), lT)


def _advancing(values: np.ndarray, log_tails: np.ndarray) -> Layers:
    """The layers whose log-tail, clamped at 0 in place, passes every one before it.

    A layer that does not pass has no measure at the log's resolution (two ends
    may even round backward), so it is dropped and the log-tails stay increasing.
    """
    np.minimum(log_tails, 0.0, out=log_tails)
    keep = np.greater(log_tails[1:], np.maximum.accumulate(log_tails[:-1]))
    if not keep.all():
        keep = np.r_[True, keep]
        values, log_tails = values[keep], log_tails[keep]
    return values, log_tails


def _checked_layers(values: np.ndarray, log_tails: np.ndarray) -> Layers:
    """The layers of a law from outside the package, refused unless the cores can price them."""
    if values.ndim != 1 or values.size == 0 or values.shape != log_tails.shape:
        raise ValueError("layers need matching nonempty 1-D value/log-tail arrays")
    # written so that a NaN fails: the cores take the positive values as a prefix
    if not np.all(values >= 0) or np.any(np.diff(values) > 0):
        raise ValueError("layer values must be nonnegative and nonincreasing")
    if not np.all(log_tails <= 0) or np.any(np.diff(log_tails) <= 0):
        raise ValueError("log tails must be strictly increasing and <= 0")
    if not log_tails[0] > -math.inf:  # the least one, so every one is finite
        raise ValueError("log tails must be finite: a layer needs positive measure")
    return values, log_tails


# The cores below keep the operation order of the plain array expressions and
# run them in place (``out=``, reused buffers), so their results are the same
# bits with a few layer-sized temporaries instead of a dozen; the Orlicz core
# holds three, the log lengths, the terms and one work buffer.  One formula,
# ``_log_lengths``, gives the layer lengths to the Marcinkiewicz, Orlicz and Lpq
# cores.  The Lorentz and Lpq cores take one pass over the layers, so they take
# them as a stream of consecutive (values, log-tails) chunks; an array enters as
# a single chunk.  Their results do not depend on where the stream is cut: each
# term is an elementwise expression of its own layer and the one before it,
# which is carried across the cut, and the terms are summed once, after the
# stream, in ``math.fsum`` (correctly rounded, so in any grouping) or in one buffer.


# A law whose largest value is below 2^-_ORLICZ_TINY is priced scaled up by
# 2^_ORLICZ_TINY, and its root scaled back: among subnormals the float spacing
# is too coarse to hold the root to full relative precision.  The scale is a
# power of two, so exact, and the norm is homogeneous; a law with a larger
# value takes no scale and keeps its bits.
_ORLICZ_TINY = 960


def _log_lengths(lT: np.ndarray, r=1.0, before=-math.inf, out=None) -> np.ndarray:
    """log(T_i^r - T_(i-1)^r) for lT = log T and log T_(-1) = ``before``; r = 1 measures layers."""
    out = np.empty_like(lT) if out is None else out
    out[0] = before
    out[1:] = lT[:-1]
    out -= lT
    out *= r
    with np.errstate(divide="ignore"):
        np.log1p(np.negative(np.exp(out, out=out), out=out), out=out)
    # r lT is lT at r = 1: the whole-array cores take no layer-sized temporary
    out += lT if r == 1.0 else np.multiply(lT, r)
    return out


def _lorentz_core(chunks: Iterable[Layers], psi: ConcaveGenerator) -> float:
    def products():
        last = None  # value and psi of the last layer of the chunk before
        for values, lT in chunks:
            if values[0] <= 0:
                continue  # zero from here on: the drop into it is the final term
            psis = psi.log_eval(lT)  # a new array, never lT itself
            np.exp(psis, out=psis)
            if last is not None:
                yield ((last[0] - values[0]) * last[1],)
            drops = np.subtract(values[:-1], values[1:])
            drops *= psis[:-1]
            for k in range(0, drops.size, CHUNK):
                part = drops[k : k + CHUNK]
                # fsum is exact, so the zeros where psi underflowed add nothing;
                # a list of Python floats spares it boxing each NumPy scalar
                yield part[part != 0.0].tolist()
            last = values[-1], psis[-1]
        if last is not None:
            yield (last[0] * last[1],)  # the last positive layer drops to 0

    # Abel form of the Stieltjes sum: every term is nonnegative, no cancellation.
    return float(math.fsum(itertools.chain.from_iterable(products())))


def _marcinkiewicz_core(values: np.ndarray, lT: np.ndarray, phi: ConcaveGenerator) -> float:
    logI = _log_lengths(lT)
    with np.errstate(divide="ignore"):
        logI += np.log(values)
    np.logaddexp.accumulate(logI, out=logI)
    cand = phi.log_eval(lT)
    np.subtract(logI, cand, out=cand)
    best = float(np.exp(np.max(cand)))
    # For concave phi the per-piece objective is minimized in the interior, so
    # the breakpoint candidates already carry the sup; the golden pass guards
    # the nearly-linear pieces of table generators at negligible cost.
    if values.size > 1:
        order = np.argsort(cand)[::-1][:32]
        # T and I at the candidates and at the pieces before them (0 before the first)
        first = order == 0
        T, Tprev, Iprev = np.exp(lT[order]), np.exp(lT[order - 1]), np.exp(logI[order - 1])
        Tprev[first] = Iprev[first] = 0.0
        slope = values[order]
        lo = Tprev + (T - Tprev) * 1e-9
        # The search takes the integral in linear scale, where below the normal
        # range it keeps too few bits for a small phi to divide; the breakpoint
        # candidates price those pieces.
        keep = (T > 1e-300) & (T > Tprev) & (slope > 0)
        keep &= Iprev + slope * (lo - Tprev) >= sys.float_info.min
        if keep.any():
            T, base_T, base_I = T[keep], Tprev[keep], Iprev[keep]
            slope, lo = slope[keep], lo[keep]

            def obj(taus):
                return (base_I + slope * (taus - base_T)) / phi(taus)

            ref = golden_max_vec(obj, lo, T)
            best = max(best, float(np.max(ref)))
    return best


def _orlicz_core(values: np.ndarray, lT: np.ndarray, M: exp_lp) -> float:
    if values[0] <= 0:
        return 0.0
    if values[0] < 2.0**-_ORLICZ_TINY:
        return math.ldexp(_orlicz_core(np.ldexp(values, _ORLICZ_TINY), lT, M), -_ORLICZ_TINY)
    k = np.count_nonzero(values)  # the positive values, a prefix since values descend
    v, lt = values[:k], lT[:k]
    ll = _log_lengths(lT)[:k]
    # The modular is at least T_k M(v_k / lam) for every layer k, so each layer
    # bounds the root from below; for a single layer the bound is the root.
    with np.errstate(over="ignore"):
        lam = float(np.max([np.max(v[i : i + CHUNK] / M.inverse_log(-lt[i : i + CHUNK]))
                            for i in range(0, k, CHUNK)]))
    if lam == math.inf:  # a lower bound past the largest float: _price refuses it
        return math.inf
    lo, hi = 0.0, math.inf
    last = before = math.inf  # |change of log lam| over the last two steps
    pruned = False
    # Safeguarded Newton on L(s) = log modular(e^s), convex and decreasing in
    # s = log lam: from below the root (L > 0) its steps rise to the root.
    work = np.empty(k)  # u = v / lam, then the shifted terms, then the elasticities
    for _ in range(200):
        u = np.divide(v, lam, out=work[: v.size])
        terms = M.log_fn(u)
        terms += ll
        L = float(logsumexp(terms, out=u))
        if math.isnan(L):
            raise RuntimeError("Orlicz modular evaluated to NaN: degenerate M")
        if abs(L) <= 1e-13:
            return lam
        if L > 0.0:
            if lam == sys.float_info.max:  # the root lies past the largest float
                return math.inf
            lo = lam
        else:
            hi = lam
        if lo > 0.0 and hi <= math.nextafter(lo, math.inf):
            # The bracket is at float resolution: hi is the least float whose
            # modular is at most 1, the Luxemburg norm rounded up.
            return hi
        prune = L > 0.0 and not pruned
        if prune:
            # Every later lam is at least this one and the terms fall as lam
            # grows, so the layers dropped here hold below e^-60 of the modular
            # for the rest of the search.  The slope below still takes them all.
            big = terms >= -60.0 - math.log(terms.size)
            ll, pruned = ll[big], True
        # L'(s) = -sum_i w_i E(u_i): softmax weights of the terms times the
        # elasticity of M; NaN once a term is infinite, which fails the test below.
        with np.errstate(all="ignore"):
            weights = np.exp(np.subtract(terms, L, out=terms), out=terms)
            for i in range(0, v.size, CHUNK):
                u[i : i + CHUNK] = M.elasticity(v[i : i + CHUNK] / lam)
            slope = -float(np.dot(weights, u))
            step = float(lam * np.exp(-L / slope))
        if step == lam:  # a step below float resolution still moves one ulp
            step = float(np.nextafter(lam, math.inf if L > 0.0 else 0.0))
        if prune:
            v = v[big]
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


def _lpq_core(chunks: Iterable[Layers], size: int, p: float, q: float) -> float:
    """The Lpq norm of at most ``size`` layers, its terms summed in one buffer."""
    # terms = log(T_i^(q/p) - T_(i-1)^(q/p)) + q log v_i, T_(-1) = 0 first
    buf = np.empty(size)
    k, lt_prev = 0, -math.inf
    for values, lT in chunks:
        if values[0] <= 0:
            continue
        m = np.count_nonzero(values)
        terms = _log_lengths(lT[:m], q / p, lt_prev, out=buf[k : k + m])
        qlogv = np.log(values[:m])
        qlogv *= q
        terms += qlogv
        del qlogv  # gone before the next chunk's temporaries
        k, lt_prev = k + m, lT[m - 1]
    if k == 0:
        return 0.0
    terms = buf[:k]
    return float(np.exp(logsumexp(terms, out=terms) / q))


# --------------------------------------------------------------- public norms


def _price(chunks: Iterable[Layers], size: int, space: SpaceSpec) -> float:
    """The norm of at most ``size`` layers that come as consecutive chunks.

    The Lorentz and Lpq cores read the stream once; the Marcinkiewicz and
    Orlicz cores revisit layers, so they take a stream of one chunk only.  A
    core returns a norm past the float range as inf, and only this refuses it.
    """
    try:
        with np.errstate(over="ignore"):  # an overflow is refused below, not warned of
            norm = _dispatch(chunks, size, space)
    except OverflowError:  # math.fsum's partial sums passed the largest float
        norm = math.inf
    if not math.isfinite(norm):
        raise ValueError(f"{type(space).__name__} norm exceeds the float range")
    return norm


def _dispatch(chunks: Iterable[Layers], size: int, space: SpaceSpec) -> float:
    if isinstance(space, Lorentz):
        return _lorentz_core(chunks, space.psi)
    if isinstance(space, Lpq):
        return _lpq_core(chunks, size, space.p, space.q)
    [(values, lT)] = chunks
    if isinstance(space, Marcinkiewicz):
        return _marcinkiewicz_core(values, lT, space.phi)
    if isinstance(space, Orlicz):
        return _orlicz_core(values, lT, space.M)
    raise TypeError(f"not a space spec: {space!r}")


def space_norm(f: StepFunction, space: SpaceSpec) -> float:
    """Norm of f in the space, priced on the layers of the rearrangement f*.

    - ``Lorentz(psi)``: the integral of f* against d psi (a Stieltjes sum).
    - ``Marcinkiewicz(phi)``: sup over tau of (integral of f* up to tau) / phi(tau).
    - ``Orlicz(exp_lp(p))``: the Luxemburg norm for M(u) = e^(u^p) - 1, the
      lambda at which the modular of f/lambda equals 1, by safeguarded Newton
      in log lambda from a lower bound that costs no evaluation.  There the
      modular, summed in floats, is within 1e-12 of 1, or lambda is the upper
      end of a one-float bracket: the least float at which it is at most 1.
    - ``Lpq(p, q)``: the prefactor-inside convention, ||chi_(0,u]|| = u^(1/p).
    """
    layers = _layers_from_step(f)
    return _price([layers], layers[0].size, space)


def lpq_norm(f: StepFunction, p: float, q: float) -> float:
    """``space_norm(f, Lpq(p, q))``."""
    return space_norm(f, Lpq(p, q))


def space_norm_from_layers(values, log_tails, space: SpaceSpec) -> float:
    """Norm from layered data: values descending, log P(|X| >= value) increasing.

    Accepts tails below float underflow, as large-n laws need.  The one entry
    for layers from outside the package, it is the one place that checks them.
    """
    layers = _checked_layers(np.asarray(values, dtype=float), np.asarray(log_tails, dtype=float))
    return _price([layers], layers[0].size, space)

