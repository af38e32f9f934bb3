"""Growth experiments: exact walk norms, Monte Carlo sums, and exponent fits.

The growth question is always the same: how does the norm of a sum of n
independent symmetric variables scale with n?  Exact routes go through the
walk law (small n as rationals, large n as log-space layers); the Monte Carlo
route draws the sums, compresses them to an equal-measure quantile step
function, and prices that.  ``fit_growth`` turns either table into (C, q) with
||sum_n|| ~ C * n^q, and the reciprocal 1/q is the summability endpoint.

Reproducibility contract: every sampler carries its own seed, and the draw for
size n uses an independent child stream keyed by n, so results are identical
across runs, call orders, and batch sizes.  Only the Rademacher law is
decoded from raw PCG64 words, into exactly the draws NumPy's ``integers(0, 2)``
would make; the signed indicators compare ``Generator.random()`` values with
u/2 and 1 - u/2, and the Gaussian and custom laws use NumPy's samplers.
Sums are formed a chunk of at most ``_MC_CHUNK`` generator words at a time,
which bounds memory and never changes a result.
"""

from __future__ import annotations

import math
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ._numeric import Inconclusive, csv_rows, integer, parse_token, positive_int
from .gaussian import erfc_inverse, upper_tail
from .generators import gauss
from .norms import (
    Lorentz,
    Lpq,
    Marcinkiewicz,
    SpaceSpec,
    _advancing,
    _price,
    space_norm,
    space_norm_from_layers,
)
from .stepfn import quantile_from_samples
from .walks import EXACT_MAX_STEPS, _walk_abs_chunks, walk_abs_layers, walk_distribution

__all__ = [
    "SamplerSpec",
    "parse_sampler",
    "rademacher_sum_norm",
    "mc_iid_sum_norm",
    "gaussian_selfsimilarity_check",
    "GrowthFit",
    "fit_growth",
    "growth_table",
    "gamma_iid_endpoint",
]

MAX_EXACT_N = 2**20
# Generator words per Monte Carlo chunk (2 MB of them): one word per draw, or
# two Rademacher draws per word.  It sets memory only, never a result.
_MC_CHUNK = 2**18
# Stated once: the seed, Monte Carlo trials and pieces defaults; the fit's constant burn-in.
_SEED, _TRIALS, _PIECES, _BURN_IN = 0, 100_000, 4096, 2


# ------------------------------------------------------------------- samplers


class SamplerSpec(NamedTuple("SamplerSpec", [
        ("kind", str), ("u", Optional[float]), ("quantiles", Optional[Tuple[float, ...]]),
        ("seed", int)])):
    """A symmetric i.i.d. law plus the master seed of its draw streams.

    kinds: "rademacher" (fair signs), "signed_indicator" (+-1 with mass u/2
    each, else 0), "gaussian" (standard normal), "custom" (equally likely
    atoms from an antisymmetric quantile table).  It is the one constructor of
    a sampler and checks its law; ``parse_sampler`` is its token form.
    """

    __slots__ = ()

    def __new__(cls, kind, u=None, quantiles=None, seed=_SEED):
        seed = integer(seed, 0, f"seed must be a non-negative integer, got {seed!r}")
        if kind not in ("rademacher", "signed_indicator", "gaussian", "custom"):
            raise ValueError(f"unknown sampler kind {kind!r}")
        if u is not None and kind != "signed_indicator":
            raise ValueError(f"a {kind} sampler takes no u: only signed_indicator reads it")
        if quantiles is not None and kind != "custom":
            raise ValueError(f"a {kind} sampler takes no quantiles: only custom reads it")
        if kind == "signed_indicator":
            if np.ndim(u):
                raise ValueError(f"indicator measure u must be one number, got shape {np.shape(u)}")
            u = math.nan if u is None else float(u)
            if not 0.0 < u <= 1.0:
                raise ValueError("indicator measure u must lie in (0, 1]")
        if kind == "custom":
            q = np.asarray(() if quantiles is None else quantiles, dtype=float)
            if q.ndim != 1:
                raise ValueError(f"custom quantiles must be one list of numbers, got shape {q.shape}")
            q = np.sort(q)
            if q.size == 0:
                raise ValueError("custom sampler needs at least one quantile")
            if not np.all(np.isfinite(q)):
                raise ValueError("custom quantiles must be finite")
            scale = max(1.0, float(np.max(np.abs(q))))
            if np.any(np.abs(q + q[::-1]) > 1e-12 * scale):
                raise ValueError("custom law must be symmetric: quantiles q and -q must match")
            quantiles = tuple(float(x) for x in q)
        return super().__new__(cls, kind, u, quantiles, seed)


def parse_sampler(token: str, seed: int = _SEED) -> SamplerSpec:
    """Mini-DSL: rademacher | signed:U | gauss | custom:CSVPATH."""
    return parse_token("sampler", token, {
        "rademacher": lambda rest: SamplerSpec("rademacher", seed=seed),
        "signed": lambda rest: SamplerSpec("signed_indicator", u=float(rest), seed=seed),
        "gauss": lambda rest: SamplerSpec("gaussian", seed=seed),
        "gaussian": lambda rest: SamplerSpec("gaussian", seed=seed),
        "custom": lambda rest: SamplerSpec(
            "custom", quantiles=[row[0] for row in csv_rows(rest, 1)], seed=seed),
    }, paths=("custom",))


def _rng_for(spec: SamplerSpec, stream: int) -> np.random.Generator:
    # Counter-keyed child stream: independent of call order and batching.
    return np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(stream,)))


def _row_sums(spec: SamplerSpec, rng: np.random.Generator, c: int, n: int) -> np.ndarray:
    """Sums of c rows of n draws each, from the next c * n draws of the law."""
    if spec.kind == "rademacher":
        # The draw of ``integers(0, 2)``, decoded from raw words: it is bit 31
        # of a 32-bit output, and PCG64 hands out the low half of each 64-bit
        # word before the high half, which it keeps for the next call;
        # ``random_raw`` bypasses that buffer, so an odd count is NumPy's draw
        # only when nothing is drawn after it.  ``integers(0, 2)`` gives the
        # same signs but took 0.61 s (uint32) or 0.62 s (int64) against 0.28 s
        # for this decoding at n = 1024 and 10^5 trials (best of 3, 2 vCPU Xeon).
        words = rng.bit_generator.random_raw((c * n + 1) // 2)
        plus = words.astype("<u8", copy=False).view("<i4")[: c * n] < 0  # bit 31 set
        return 2 * np.count_nonzero(plus.reshape(c, n), axis=1) - n
    if spec.kind == "signed_indicator":
        roll, half = rng.random((c, n)), spec.u / 2.0
        return np.count_nonzero(roll < half, axis=1) - np.count_nonzero(roll > 1.0 - half, axis=1)
    if spec.kind == "gaussian":
        return rng.standard_normal(size=(c, n)).sum(axis=1)
    atoms = np.asarray(spec.quantiles)
    return atoms[rng.integers(0, atoms.size, size=(c, n))].sum(axis=1)


def _draw_sums(spec: SamplerSpec, n: int, trials: int) -> np.ndarray:
    rng = _rng_for(spec, n)
    out = np.empty(trials)
    # An even row count keeps every chunk but the last on a whole number of
    # Rademacher words, so no half-word is left over between chunks.
    rows_per_chunk = 2 * max(1, _MC_CHUNK // (2 * n))
    for done in range(0, trials, rows_per_chunk):
        c = min(rows_per_chunk, trials - done)
        out[done : done + c] = _row_sums(spec, rng, c, n)
    return out


# ------------------------------------------------------------ exact walk norms


def rademacher_sum_norm(n: int, space: SpaceSpec) -> float:
    """Exact norm of the n-step walk law, routed by size.

    Small n builds the rational step function; beyond the exact cap the law is
    priced through its log-space layers, which keeps the extreme tail (mass
    2^(1-n)) in play — truncating it to zero would visibly bias the fitted
    exponents for the exponential-Orlicz scale.  The Lorentz and Lpq norms
    take one pass over the n // 2 + 1 layers, so they price each chunk of the
    law as it is built and never hold the whole of it.
    """
    n = positive_int(n)
    if n > MAX_EXACT_N:
        raise ValueError(f"exact path supports n <= {MAX_EXACT_N}")
    if n <= EXACT_MAX_STEPS:
        return space_norm(walk_distribution(n), space)
    if isinstance(space, (Lorentz, Lpq)):
        return _price(_walk_abs_chunks(n), n // 2 + 1, space)
    values, log_tails = walk_abs_layers(n)
    return space_norm_from_layers(values, log_tails, space)


# ------------------------------------------------------------------ Monte Carlo


def mc_iid_sum_norm(
    sampler: SamplerSpec,
    n: int,
    space: SpaceSpec,
    trials: int = _TRIALS,
    m: int = _PIECES,
) -> float:
    """Monte Carlo norm of an n-fold i.i.d. sum, deterministic given the seed.

    Draws the sums, compresses |sums| to an m-piece equal-measure quantile
    step function, and evaluates the space norm on it.  Raises ValueError
    before any draw if a custom law's n-fold sum can pass the float range, and
    Inconclusive if every sum is 0 though the law is not.
    """
    n = positive_int(n)
    trials = integer(trials, 1000, "need trials >= 1000")
    m = integer(m, 256, "need m >= 256 quantile pieces")
    if sampler.kind == "custom":
        top = max(map(abs, sampler.quantiles))
        if not math.isfinite(n * top):
            raise ValueError(f"a sum of n = {n} draws of atom {top!r} can pass the float range")
    sums = _draw_sums(sampler, n, trials)
    if not sums.any() and (sampler.kind != "custom" or any(sampler.quantiles)):
        raise Inconclusive(f"every one of {trials} trials drew a sum of 0 at n = {n}; "
                           "the law is not 0, so more trials are needed")
    return space_norm(quantile_from_samples(sums, m), space)


# ------------------------------------------------- Gaussian self-similarity


def fftconvolve(
    a: Union[np.ndarray, List[np.ndarray]], b: Optional[np.ndarray] = None
) -> np.ndarray:
    """Full linear convolution of two 1-D arrays through a real FFT.

    ``b=None`` squares ``a``.  ``a`` may come as a one-element list, which this
    empties: a caller that hands its last reference over this way has the array
    freed once its spectrum is taken, not after the inverse transform, which is
    where the memory peaks.
    """
    if isinstance(a, list):
        a = a.pop()
    size = a.size + (a.size if b is None else b.size) - 1
    nfft = 1 << (size - 1).bit_length()  # power of two: a fast length
    fa = np.fft.rfft(a, nfft)
    del a
    fa *= fa if b is None else np.fft.rfft(b, nfft)
    return np.fft.irfft(fa, nfft)[:size]


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
    n = positive_int(n)
    grid_size = integer(grid_size, 2**10,
                        f"grid_size {grid_size} cannot resolve the tails; need >= {2**10}")
    space = Marcinkiewicz(gauss())

    def product(a, b=None):
        conv = fftconvolve(a, b)
        # FFT noise (~1e-16 absolute) fabricates extreme-tail mass that the
        # maximal-average norm prices heavily; clip it, then renormalize.
        conv[conv < conv.max() * 1e-13] = 0.0
        conv /= conv.sum()
        return conv

    # The running power lives in a one-element list that each squaring hands
    # to fftconvolve, which empties it: no reference to the operand is left
    # while the inverse transform runs, where the memory peaks.  The n-fold law
    # is priced first and the one-variable lattice rebuilt after it, so the
    # last transform shares the heap with nothing else.
    h, pmf = _gauss_lattice(grid_size)
    conv, power, k = None, [pmf], n
    del pmf
    while True:
        if k & 1:
            conv = power[0] if conv is None else product(conv, power[0])
        k >>= 1
        if not k:
            break
        power = [product(power)]
    sum_norm = _lattice_norm(conv, h, space)
    h, pmf = _gauss_lattice(grid_size)
    return sum_norm / _lattice_norm(pmf, h, space)


def _gauss_lattice(grid_size: int) -> Tuple[float, np.ndarray]:
    """(cell width, pmf) of the one-variable law on its uniform value lattice.

    The grid_size cells span [-L, L] with erfc(L) = 1 / grid_size; the two
    out-of-lattice tails are lumped into the edge cells.  The edges and the CDF
    are freed on return.
    """
    L = float(erfc_inverse(1.0 / grid_size))
    edges = np.linspace(-L, L, grid_size + 1)
    pmf = np.diff(0.5 * upper_tail(-edges))
    tail_mass = 0.5 * float(upper_tail(L))
    pmf[0] += tail_mass
    pmf[-1] += tail_mass
    pmf /= pmf.sum()
    return edges[1] - edges[0], pmf


def _lattice_norm(pmf: np.ndarray, h: float, space: SpaceSpec) -> float:
    """Norm of a symmetric law on a uniform value lattice of cell width h, via layers."""
    size = pmf.size
    # Fold the symmetric lattice onto |values|, descending: cell size - 1 - m
    # and its mirror m, for the size // 2 cells above the centre (an odd
    # lattice's centre cell, the value 0, is left out).
    half = size // 2
    tails = pmf[: size - half - 1 : -1] + pmf[:half]
    vals = (np.arange(size - 1, size - half - 1, -1) - (size - 1) / 2.0) * h
    keep = tails > 0
    tails, vals = tails[keep], vals[keep]
    log_tails = np.log(np.cumsum(tails, out=tails), out=tails)
    return space_norm_from_layers(*_advancing(vals, log_tails), space)


# ------------------------------------------------------------------ growth fits


class GrowthFit(NamedTuple):
    """Least-squares fit value ~ C * n^q on log-log pairs.

    ``residual`` is the max relative deviation of the fit over the fitted
    (post burn-in) range; ``degenerate`` flags value sequences that drop more
    than 25% between consecutive n, where a power fit is meaningless.
    """

    pairs: Tuple[Tuple[int, float], ...]
    q: float
    C: float
    residual: float
    degenerate: bool


def fit_growth(pairs: Iterable[Tuple[int, float]]) -> GrowthFit:
    """Fit (q, C) by least squares on (log n, log value), dropping the first ``_BURN_IN`` pairs."""
    pairs = tuple((positive_int(n), float(v)) for n, v in pairs)
    if any(b <= a for (a, _), (b, _) in zip(pairs, pairs[1:])):
        raise ValueError("pairs must be strictly increasing in n")
    for n, v in pairs:
        if not math.isfinite(v):
            raise ValueError(f"values must be finite, got {v!r} at n = {n}")
        if v <= 0:
            raise ValueError(f"values must be positive, got {v!r} at n = {n}")
    integer(len(pairs) - _BURN_IN, 2, "need at least two pairs after burn-in")
    fitted = pairs[_BURN_IN:]
    ln = np.log([n for n, _ in fitted])
    lv = np.log([v for _, v in fitted])
    q, logC = np.polyfit(ln, lv, 1)
    if logC > math.log(np.finfo(float).max):
        raise Inconclusive(f"the fitted constant C = exp({logC:.6g}) is past the float range")
    C = math.exp(logC)
    residual = float(np.max(np.abs(np.exp(q * ln + logC - lv) - 1.0)))
    vals = [v for _, v in fitted]
    degenerate = any(b < 0.75 * a for a, b in zip(vals, vals[1:]))
    return GrowthFit(
        pairs=pairs,
        q=float(q),
        C=C,
        residual=residual,
        degenerate=degenerate,
    )


def growth_table(
    space: SpaceSpec,
    ns: Sequence[int],
    mode: str = "exact",
    sampler: Optional[SamplerSpec] = None,
    trials: int = _TRIALS,
    m: int = _PIECES,
) -> GrowthFit:
    """Norm-vs-n table and its power fit; four sizes leave fit_growth two pairs past its burn-in.

    mode "exact" prices the walk law itself (the sampler is not used); mode
    "mc" draws i.i.d. sums of the given sampler.
    """
    ns = list(ns)
    if len(ns) != len(set(ns)):
        raise ValueError("ns must be distinct")
    integer(len(ns), 4, "need at least 4 sizes")
    ns = sorted(integer(n, 1, "sizes must be positive") for n in ns)
    if ns[-1] < 4 * ns[0]:
        raise ValueError("sizes must span at least two octaves")
    if mode == "exact":
        values = [rademacher_sum_norm(n, space) for n in ns]
    elif mode == "mc":
        if sampler is None:
            raise ValueError("mc mode needs a sampler")
        if sampler.kind == "custom" and not any(sampler.quantiles):
            raise ValueError("every atom of the custom law is 0, so every norm is 0 "
                             "and there is no power fit")
        # largest n first, so a custom law that overflows there fails before
        # any draw; each n has its own stream, so the order sets no value
        values = [mc_iid_sum_norm(sampler, n, space, trials, m) for n in reversed(ns)][::-1]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return fit_growth(zip(ns, values))


def gamma_iid_endpoint(fit: GrowthFit) -> float:
    """Summability endpoint 1/q implied by a growth fit."""
    if not 0.0 < fit.q <= 1.0:
        raise ValueError(f"fitted exponent q={fit.q:.4f} outside (0, 1]")
    return 1.0 / fit.q
