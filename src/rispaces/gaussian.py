"""Inverse complementary error function, polished and extended to log-scale arguments.

``upper_tail(x) = (2/sqrt(pi)) * integral_x^inf exp(-z^2) dz`` is the two-sided
Gaussian tail in the normalization where the symmetric law with this |.|-tail is
N(0, 1/2).  ``erfc_inverse`` inverts it with one Newton polish so the residual
upper_tail(G(z)) - z sits at machine precision; ``erfc_inverse_log`` solves
log(upper_tail(x)) = lz for arguments far below float underflow via the
asymptotic expansion erfc(x) ~ exp(-x^2) / (x sqrt(pi)) * (1 - 1/(2x^2) + ...).

``scipy.special`` is imported inside the functions, on first call, so only the
Gaussian law loads SciPy; the rest of the package runs on NumPy alone.
"""

from __future__ import annotations

import math

import numpy as np

from ._numeric import CHUNK

__all__ = ["upper_tail", "erfc_inverse", "erfc_inverse_log"]

_SQRT_PI = math.sqrt(math.pi)


def upper_tail(x):
    """erfc(x), the measure of {|N(0, 1/2)| > x}."""
    from scipy import special

    return special.erfc(x)


def erfc_inverse(z):
    """Inverse of ``upper_tail`` on (0, 2), Newton-polished."""
    from scipy import special

    zz = np.asarray(z, dtype=float)
    if np.any((zz <= 0) | (zz >= 2)):
        raise ValueError("argument must lie in (0, 2)")
    flat = zz.reshape(-1)
    x = special.erfcinv(flat)
    # One Newton step on erfc(x) - z; derivative -2/sqrt(pi) exp(-x^2).
    # Skip where exp(x^2) would overflow (the seed is already at full precision there).
    safe = np.abs(x) < 26.0
    xs = np.where(safe, x, 0.0)
    corr = special.erfc(xs)
    corr -= flat
    corr *= _SQRT_PI / 2.0
    corr *= np.exp(np.square(xs, out=xs), out=xs)
    np.add(x, corr, out=x, where=safe)  # x + 0.0 is x elsewhere: there |x| >= 26
    return x.reshape(zz.shape) if zz.ndim else float(x[0])


def _log_erfc_asymptotic(x):
    # ln erfc(x) for large x via the first four terms of the tail series:
    # -x*x - ln(x sqrt(pi)) + ln(1 + ix2 (-1/2 + ix2 (3/4 - 15/8 ix2))), ix2 = 1/(x*x).
    ix2 = np.multiply(x, x)
    np.divide(1.0, ix2, out=ix2)
    series = np.multiply(-1.875, ix2)  # Horner; adding -b is subtracting b, bit for bit
    for c in (0.75, -0.5):
        series += c
        series *= ix2
    series += 1.0
    log_x = np.log(np.multiply(x, _SQRT_PI, out=ix2), out=ix2)
    out = np.negative(x)
    out *= x
    out -= log_x
    out += np.log(series, out=series)
    return out


def erfc_inverse_log(lz):
    """Solve ln(upper_tail(x)) = lz; valid for arbitrarily negative lz.

    For lz >= ln(1e-290) this defers to the polished direct inverse.  Below,
    Newton iterations on the asymptotic expansion converge to the expansion's
    own accuracy (relative error < 1e-10 for x >= 26, improving rapidly).
    """
    lzz = np.asarray(lz, dtype=float)
    if np.any(lzz >= math.log(2.0)):
        raise ValueError("log-argument must be below log(2)")
    out = np.empty(lzz.shape)
    flat_in, flat_out = lzz.reshape(-1), out.reshape(-1)  # both in C order
    for k in range(0, flat_in.size, CHUNK):
        _erfc_inverse_log_into(flat_in[k : k + CHUNK], flat_out[k : k + CHUNK])
    return out if lzz.ndim else float(out)


def _erfc_inverse_log_into(lz: np.ndarray, out: np.ndarray) -> None:
    direct = lz >= -667.0
    if np.any(direct):
        z = lz[direct]
        out[direct] = erfc_inverse(np.exp(z, out=z))
    deep = ~direct
    if np.any(deep):
        t = lz[deep]
        x = np.negative(t)
        np.sqrt(x, out=x)
        # d/dx ln erfc = -2x / series; the series is ~1 at this depth.
        for _ in range(6):
            step = _log_erfc_asymptotic(x)
            step -= t
            step /= 2.0 * x
            x += step
            del step  # before the next step is built
        out[deep] = x
