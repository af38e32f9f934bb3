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
    x = special.erfcinv(zz)
    # One Newton step on erfc(x) - z; derivative -2/sqrt(pi) exp(-x^2).
    # Skip where exp(x^2) would overflow (the seed is already at full precision there).
    safe = np.abs(x) < 26.0
    corr = np.where(
        safe,
        (special.erfc(np.where(safe, x, 0.0)) - zz)
        * (_SQRT_PI / 2.0)
        * np.exp(np.where(safe, x, 0.0) ** 2),
        0.0,
    )
    out = x + corr
    return out if zz.ndim else float(out)


def _log_erfc_asymptotic(x):
    # ln erfc(x) for large x via the first four terms of the tail series.
    ix2 = 1.0 / (x * x)
    series = 1.0 + ix2 * (-0.5 + ix2 * (0.75 - 1.875 * ix2))
    return -x * x - np.log(x * _SQRT_PI) + np.log(series)


def erfc_inverse_log(lz):
    """Solve ln(upper_tail(x)) = lz; valid for arbitrarily negative lz.

    For lz >= ln(1e-290) this defers to the polished direct inverse.  Below,
    Newton iterations on the asymptotic expansion converge to the expansion's
    own accuracy (relative error < 1e-10 for x >= 26, improving rapidly).
    """
    lzz = np.asarray(lz, dtype=float)
    if np.any(lzz >= math.log(2.0)):
        raise ValueError("log-argument must be below log(2)")
    out = np.empty_like(lzz)
    direct = lzz >= -667.0
    if np.any(direct):
        out[direct] = erfc_inverse(np.exp(lzz[direct]))
    deep = ~direct
    if np.any(deep):
        t = lzz[deep]
        x = np.sqrt(-t)
        # d/dx ln erfc = -2x / series; the series is ~1 at this depth.
        for _ in range(6):
            x = x + (_log_erfc_asymptotic(x) - t) / (2.0 * x)
        out[deep] = x
    return out if lzz.ndim else float(out)
