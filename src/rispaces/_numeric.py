"""Numeric helpers shared by the modules: ln 2, log-binomials, finite parameters."""

from __future__ import annotations

import math

from scipy.special import gammaln

LN2 = math.log(2.0)


def log_binom(n, k):
    """log C(n, k) through gammaln; k may be a float array."""
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def finite_float(text) -> float:
    """float(text), rejecting inf and nan so a bad token fails where it is parsed."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"parameter must be finite, got {str(text).strip()!r}")
    return x
