"""Growth experiments: exact walk norms, Monte Carlo sums, and exponent fits.

The growth question is always the same: how does the norm of a sum of n
independent symmetric variables scale with n?  Exact routes go through the
walk law (small n as rationals, large n as log-space layers); the Monte Carlo
route draws the sums, compresses them to an equal-measure quantile step
function, and prices that.  ``fit_growth`` turns either table into (C, q) with
||sum_n|| ~ C * n^q, and the reciprocal 1/q is the summability endpoint.

Reproducibility contract: every sampler carries its own seed, and the draw for
size n uses an independent child stream keyed by n, so results are identical
across runs, call orders, and batch sizes.  The sign laws (Rademacher and
signed indicators) are decoded from raw PCG64 words into exactly the draws
NumPy's ``integers`` and ``random`` would make; the Gaussian and custom laws
use NumPy's samplers.  Sums are formed a chunk of at most ``_MC_CHUNK``
generator words at a time, which bounds memory and never changes a result.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .gaussian import erfc_inverse, upper_tail
from .generators import gauss
from .norms import Marcinkiewicz, SpaceSpec, space_norm, space_norm_from_layers
from .stepfn import StepFunction, quantile_from_samples
from .walks import EXACT_MAX_STEPS, walk_abs_layers, walk_distribution

__all__ = [
    "SamplerSpec",
    "rademacher",
    "signed_indicator",
    "gaussian_law",
    "custom_sampler",
    "parse_sampler",
    "rademacher_sum_norm",
    "mc_iid_sum_norm",
    "gaussian_selfsimilarity_check",
    "GrowthFit",
    "fit_growth",
    "growth_table",
    "gamma_iid_endpoint",
    "disjoint_sum_norm",
    "kruglov_sampler",
]

MAX_EXACT_N = 2**20
# Generator words per Monte Carlo chunk (2 MB of them): one word per draw, or
# two Rademacher draws per word.  It sets memory only, never a result.
_MC_CHUNK = 2**18


# ------------------------------------------------------------------- samplers


@dataclass(frozen=True)
class SamplerSpec:
    """A symmetric i.i.d. law plus the master seed of its draw streams.

    kinds: "rademacher" (fair signs), "signed_indicator" (+-1 with mass u/2
    each, else 0), "gaussian" (standard normal), "custom" (equally likely
    atoms from an antisymmetric quantile table).
    """

    kind: str
    u: Optional[float] = None
    quantiles: Optional[Tuple[float, ...]] = None
    seed: int = 0

    def label(self) -> str:
        if self.kind == "signed_indicator":
            return f"signed:{self.u:g}"
        if self.kind == "custom":
            return f"custom[{len(self.quantiles)}]"
        return self.kind


def rademacher(seed: int = 0) -> SamplerSpec:
    return SamplerSpec(kind="rademacher", seed=seed)


def signed_indicator(u, seed: int = 0) -> SamplerSpec:
    u = float(u)
    if not 0.0 < u <= 1.0:
        raise ValueError("indicator measure u must lie in (0, 1]")
    return SamplerSpec(kind="signed_indicator", u=u, seed=seed)


def gaussian_law(seed: int = 0) -> SamplerSpec:
    return SamplerSpec(kind="gaussian", seed=seed)


def custom_sampler(quantiles: Sequence[float], seed: int = 0) -> SamplerSpec:
    q = np.sort(np.asarray(list(quantiles), dtype=float))
    if q.size == 0:
        raise ValueError("custom sampler needs at least one quantile")
    if not np.all(np.isfinite(q)):
        raise ValueError("custom quantiles must be finite")
    scale = max(1.0, float(np.max(np.abs(q))))
    if np.any(np.abs(q + q[::-1]) > 1e-12 * scale):
        raise ValueError("custom law must be symmetric: quantiles q and -q must match")
    return SamplerSpec(kind="custom", quantiles=tuple(float(x) for x in q), seed=seed)


def parse_sampler(token: str, seed: int = 0) -> SamplerSpec:
    """Mini-DSL: rademacher | signed:U | gauss | custom:CSVPATH."""
    head, _, rest = token.partition(":")
    head = head.strip().lower()
    try:
        if head == "rademacher":
            return rademacher(seed)
        if head == "signed":
            return signed_indicator(float(rest), seed)
        if head in ("gauss", "gaussian"):
            return gaussian_law(seed)
        if head == "custom":
            if not rest:
                raise ValueError("custom token needs a path")
            with open(rest, newline="") as fh:
                vals = [float(row[0]) for row in csv.reader(fh) if row and row[0].strip()]
            return custom_sampler(vals, seed)
    except ValueError as exc:
        raise ValueError(f"bad sampler token {token!r}: {exc}") from None
    raise ValueError(f"unknown sampler token {token!r}")


def _rng_for(spec: SamplerSpec, stream: int) -> np.random.Generator:
    # Counter-keyed child stream: independent of call order and batching.
    return np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(stream,)))


def _signed_thresholds(u: float) -> Tuple[np.uint64, np.uint64]:
    """Raw-word form of ``random() < u/2`` and ``random() > 1 - u/2``.

    ``random()`` is (w >> 11) * 2^-53 exactly, so the first test is
    w < ceil(u/2 * 2^53) * 2^11 and the second, with 1 - u/2 rounded to a float
    first, is (w >> 11) > floor((1 - u/2) * 2^53).
    """
    half = u / 2.0
    below = math.ceil(half * 2.0**53) << 11
    above = (math.floor((1.0 - half) * 2.0**53) << 11) | 0x7FF
    return np.uint64(below), np.uint64(min(above, 2**64 - 1))


def _sign_draws(spec: SamplerSpec, rng: np.random.Generator, count: int):
    """Masks of the +1 and of the -1 values among the next count draws of a sign law.

    ``integers(0, 2)`` is bit 31 of a 32-bit output, and PCG64 hands out the
    low half of each 64-bit word before the high half, which it keeps for the
    next call; ``random_raw`` bypasses that buffer.  So an odd count is only
    the same as NumPy's draw when nothing is drawn after it.
    """
    if spec.kind == "rademacher":
        words = rng.bit_generator.random_raw((count + 1) // 2)
        plus = words.astype("<u8", copy=False).view("<i4")[:count] < 0  # bit 31 set
        return plus, ~plus
    below, above = _signed_thresholds(spec.u)
    words = rng.bit_generator.random_raw(count)
    return words < below, words > above


_SIGN_KINDS = ("rademacher", "signed_indicator")


def _draw_block(spec: SamplerSpec, rng: np.random.Generator, shape) -> np.ndarray:
    if spec.kind in _SIGN_KINDS:
        plus, minus = _sign_draws(spec, rng, math.prod(shape))
        return (plus.astype(np.float64) - minus).reshape(shape)
    if spec.kind == "gaussian":
        return rng.standard_normal(size=shape)
    if spec.kind == "custom":
        atoms = np.asarray(spec.quantiles)
        return atoms[rng.integers(0, atoms.size, size=shape)]
    raise ValueError(f"unknown sampler kind {spec.kind!r}")


def _draw_sums(spec: SamplerSpec, n: int, trials: int) -> np.ndarray:
    rng = _rng_for(spec, n)
    out = np.empty(trials)
    # An even row count keeps every chunk but the last on a whole number of
    # Rademacher words, so no half-word is left over between chunks.
    rows_per_chunk = 2 * max(1, _MC_CHUNK // (2 * n))
    done = 0
    while done < trials:
        c = min(rows_per_chunk, trials - done)
        if spec.kind in _SIGN_KINDS:
            plus, minus = _sign_draws(spec, rng, c * n)
            out[done : done + c] = np.count_nonzero(
                plus.reshape(c, n), axis=1
            ) - np.count_nonzero(minus.reshape(c, n), axis=1)
        else:
            out[done : done + c] = _draw_block(spec, rng, (c, n)).sum(axis=1)
        done += c
    return out


# ------------------------------------------------------------ exact walk norms


def rademacher_sum_norm(n: int, space: SpaceSpec) -> float:
    """Exact norm of the n-step walk law, routed by size.

    Small n builds the rational step function; beyond the exact cap the law is
    priced through its log-space layers, which keeps the extreme tail (mass
    2^(1-n)) in play — truncating it to zero would visibly bias the fitted
    exponents for the exponential-Orlicz scale.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if n > MAX_EXACT_N:
        raise ValueError(f"exact path supports n <= {MAX_EXACT_N}")
    if n <= EXACT_MAX_STEPS:
        return space_norm(walk_distribution(n), space)
    values, log_tails = walk_abs_layers(n)
    return space_norm_from_layers(values, log_tails, space)


# ------------------------------------------------------------------ Monte Carlo


def mc_iid_sum_norm(
    sampler: SamplerSpec,
    n: int,
    space: SpaceSpec,
    trials: int = 100_000,
    m: int = 4096,
) -> float:
    """Monte Carlo norm of an n-fold i.i.d. sum, deterministic given the seed.

    Draws the sums, compresses |sums| to an m-piece equal-measure quantile
    step function, and evaluates the space norm on it.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if trials < 1000:
        raise ValueError("need trials >= 1000")
    if m < 256:
        raise ValueError("need m >= 256 quantile pieces")
    sums = _draw_sums(sampler, n, trials)
    return space_norm(quantile_from_samples(np.abs(sums), m), space)


# ------------------------------------------------- Gaussian self-similarity


def fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two 1-D arrays through a real FFT."""
    size = a.size + b.size - 1
    nfft = 1 << (size - 1).bit_length()  # power of two: a fast length
    fa = np.fft.rfft(a, nfft)
    fb = fa if b is a else np.fft.rfft(b, nfft)
    return np.fft.irfft(fa * fb, nfft)[:size]


def gaussian_selfsimilarity_check(n: int, grid_size: int = 2**16) -> float:
    """Ratio ||sum of n Gaussians|| / ||one Gaussian|| in the matched space.

    The single-variable law (symmetric, |.|-tail erfc) is discretized to a
    uniform value lattice with edge-lumped tails, raised to its n-th
    convolution power by binary powering (square the running power, multiply
    it into the result on each set bit of n), and priced in the maximal-average
    space whose generator integrates the Gaussian quantile.  After every FFT
    product, mass below 1e-13 of the peak is clipped and the law renormalized.
    The exact operator identity makes the ratio sqrt(n); the return value
    measures how well the discrete pipeline reproduces it.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if grid_size < 2**10:
        raise ValueError(
            f"grid_size {grid_size} cannot resolve the tails; need >= {2**10}"
        )
    if n == 1:
        return 1.0
    space = Marcinkiewicz(gauss())
    L = float(erfc_inverse(1.0 / grid_size))
    edges = np.linspace(-L, L, grid_size + 1)
    cdf = 0.5 * upper_tail(-edges)
    pmf = np.diff(cdf)
    # lump the two out-of-lattice tails into the edge cells
    tail_mass = 0.5 * float(upper_tail(L))
    pmf[0] += tail_mass
    pmf[-1] += tail_mass
    pmf /= pmf.sum()

    def product(a, b):
        conv = fftconvolve(a, b)
        # FFT noise (~1e-16 absolute) fabricates extreme-tail mass that the
        # maximal-average norm prices heavily; clip it, then renormalize.
        conv[conv < conv.max() * 1e-13] = 0.0
        return conv / conv.sum()

    base_norm = _lattice_norm(pmf, edges, space)
    conv, power, k = None, pmf, n
    while True:
        if k & 1:
            conv = power if conv is None else product(conv, power)
        k >>= 1
        if not k:
            break
        power = product(power, power)
    sum_norm = _lattice_norm(conv, edges, space)
    return sum_norm / base_norm


def _lattice_norm(pmf: np.ndarray, base_edges: np.ndarray, space: SpaceSpec) -> float:
    """Norm of a symmetric law on a uniform value lattice, via layers."""
    h = base_edges[1] - base_edges[0]
    size = pmf.size
    centers = (np.arange(size) - (size - 1) / 2.0) * h
    # fold the symmetric lattice onto |values|, descending
    half = size // 2
    if size % 2:
        probs = pmf[half + 1 :] + pmf[half - 1 :: -1]
        vals = centers[half + 1 :]
    else:
        probs = pmf[half:] + pmf[half - 1 :: -1]
        vals = centers[half:]
    probs = probs[::-1].copy()
    vals = vals[::-1].copy()
    keep = probs > 0
    probs, vals = probs[keep], vals[keep]
    tails = np.cumsum(probs)
    ok = np.empty(tails.size, dtype=bool)
    ok[0] = tails[0] > 0
    ok[1:] = np.diff(tails) > 0  # drop sub-ulp layers that stall the cumsum
    with np.errstate(divide="ignore"):
        log_tails = np.minimum(np.log(tails[ok]), 0.0)
    return space_norm_from_layers(vals[ok], log_tails, space)


# ------------------------------------------------------------------ growth fits


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit value ~ C * n^q on log-log pairs.

    ``residual`` is the max relative deviation of the fit over the fitted
    (post burn-in) range; ``degenerate`` flags value sequences that drop more
    than 25% between consecutive n, where a power fit is meaningless.
    """

    pairs: Tuple[Tuple[int, float], ...]
    q: float
    C: float
    residual: float
    burn_in: int
    degenerate: bool

def fit_growth(pairs: Iterable[Tuple[int, float]], burn_in: int = 2) -> GrowthFit:
    """Fit (q, C) by least squares on (log n, log value), dropping a burn-in."""
    pairs = tuple((int(n), float(v)) for n, v in pairs)
    if any(b <= a for (a, _), (b, _) in zip(pairs, pairs[1:])):
        raise ValueError("pairs must be strictly increasing in n")
    if any(v <= 0 for _, v in pairs):
        raise ValueError("values must be positive")
    if burn_in < 0 or len(pairs) - burn_in < 2:
        raise ValueError("need at least two pairs after burn-in")
    fitted = pairs[burn_in:]
    ln = np.log([n for n, _ in fitted])
    lv = np.log([v for _, v in fitted])
    q, logC = np.polyfit(ln, lv, 1)
    C = math.exp(logC)
    residual = float(np.max(np.abs(np.exp(q * ln + logC - lv) - 1.0)))
    vals = [v for _, v in fitted]
    degenerate = any(b < 0.75 * a for a, b in zip(vals, vals[1:]))
    return GrowthFit(
        pairs=pairs,
        q=float(q),
        C=C,
        residual=residual,
        burn_in=burn_in,
        degenerate=degenerate,
    )


def growth_table(
    space: SpaceSpec,
    ns: Sequence[int],
    mode: str = "exact",
    sampler: Optional[SamplerSpec] = None,
    trials: int = 100_000,
    m: int = 4096,
    burn_in: int = 2,
) -> GrowthFit:
    """Norm-vs-n table and its power fit.

    mode "exact" prices the walk law itself (the sampler is not used); mode
    "mc" draws i.i.d. sums of the given sampler.
    """
    ns = sorted(int(n) for n in ns)
    if len(ns) != len(set(ns)):
        raise ValueError("ns must be distinct")
    if len(ns) < 4:
        raise ValueError("need at least 4 sizes")
    if ns[0] < 1:
        raise ValueError("sizes must be positive")
    if ns[-1] < 4 * ns[0]:
        raise ValueError("sizes must span at least two octaves")
    if mode == "exact":
        values = [rademacher_sum_norm(n, space) for n in ns]
    elif mode == "mc":
        if sampler is None:
            raise ValueError("mc mode needs a sampler")
        values = [mc_iid_sum_norm(sampler, n, space, trials, m) for n in ns]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return fit_growth(zip(ns, values), burn_in=burn_in)


def gamma_iid_endpoint(fit: GrowthFit) -> float:
    """Summability endpoint 1/q implied by a growth fit."""
    if not 0.0 < fit.q <= 1.0:
        raise ValueError(f"fitted exponent q={fit.q:.4f} outside (0, 1]")
    return 1.0 / fit.q


# ------------------------------------------------------------------ disjoint sums


def disjoint_sum_norm(blocks: Sequence[StepFunction], space: SpaceSpec) -> float:
    """Exact norm of a sum of step functions with pairwise disjoint supports."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    intervals: List[Tuple[float, float, int]] = []
    for i, b in enumerate(blocks):
        for a, t in b.support_intervals():
            intervals.append((float(a), float(t), i))
    intervals.sort()
    for (a1, b1, i1), (a2, b2, i2) in zip(intervals, intervals[1:]):
        if i1 != i2 and a2 < b1 - 1e-12:
            raise ValueError(
                f"blocks {i1} and {i2} overlap on ({a2:.6g}, {min(b1, b2):.6g})"
            )
    return space_norm(reduce(lambda f, g: f + g, blocks), space)


# ---------------------------------------------------------- compound Poisson


def kruglov_sampler(law: SamplerSpec, trials: int) -> np.ndarray:
    """Samples of a Poisson(1)-compound sum of the law, deterministic per seed."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = _rng_for(law, 0)
    counts = rng.poisson(1.0, size=trials)
    total = int(counts.sum())
    draws = _draw_block(law, rng, (total,)) if total else np.empty(0)
    csum = np.concatenate(([0.0], np.cumsum(draws)))
    ends = np.cumsum(counts)
    return csum[ends] - csum[ends - counts]
