"""Golden-section maximization, scalar and bracket-batched."""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_ITERS = 60  # iterations of either search: 0.618^60, about 3e-13, of the bracket is left


def golden_max(fn, lo: float, hi: float):
    """Maximize a scalar function on [lo, hi]; returns the max."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_ITERS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return fc if fc >= fd else fd


def golden_max_vec(fn, lo: np.ndarray, hi: np.ndarray):
    """The golden-section max of each of many brackets; fn maps arrays to arrays.

    Both probe ordinates are recomputed every sweep, trading one extra batched
    eval per iteration for branch-free control flow.
    """
    a = np.asarray(lo, dtype=float).copy()
    b = np.asarray(hi, dtype=float).copy()
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_ITERS):
        left = fc >= fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = fn(c), fn(d)
    return np.maximum(fc, fd)
