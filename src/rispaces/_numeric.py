"""Numeric helpers shared by the modules: ln 2, the chunk size, the elementwise runner,
log-factorials, log-binomials, the integer check, logsumexp, finite parameters, the
``HEAD:REST`` token grammar and the CSV reader of its path forms, all on NumPy alone so
importing them loads no SciPy."""

from __future__ import annotations

import csv
import math
import numbers

import numpy as np

LN2 = math.log(2.0)

# Entries per slice of every pass over a layer-sized array: it bounds the pass's
# temporaries and changes no bit.  ``elementwise`` is the one elementwise pass (psi and
# log psi, log k!, the Gaussian erfc and its inverses, the exp(L_p) Young function).
# The walk law's rows, the Kruglov sums and the Lorentz fsum lists carry state from chunk
# to chunk and loop on their own.  So do the Orlicz lower bound, a max of slice maxima, and
# slope, which writes each slice's elasticities into the core's work buffer: the runner's
# new array would be a fourth layer-sized one (4 MiB at 2^19 layers).
CHUNK = 2**14

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_FACTORIAL_TABLE = np.array([math.log(math.factorial(k)) for k in range(16)])
# B_2j / (2j (2j - 1)) for j = 5..1: Stirling's series in 1/z^2, highest first.
_STIRLING = (1.0 / 1188.0, -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0)


def elementwise(f, x):
    """f over the entries of x: a float for a scalar, a new float array of x's shape for an array.

    f maps a 1-D float array to the array of its values.  Past ``CHUNK`` entries it runs
    on one slice at a time, written into one result, so an elementwise f keeps its bits
    and its temporaries stay slice-sized.  The result never shares memory with x.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    if flat.size > CHUNK:
        out = np.empty(flat.size)
        for k in range(0, flat.size, CHUNK):
            out[k : k + CHUNK] = f(flat[k : k + CHUNK])
        return out.reshape(x.shape)
    out = np.asarray(f(flat), dtype=float)  # one slice: f's own array, unless it is x's
    out = out.copy() if np.may_share_memory(out, x) else out
    return out.reshape(x.shape) if x.ndim else float(out[0])


def _log_factorial(k):
    z = k + 1.0
    small = z < 17.0
    out = z - 0.5
    w = np.log(z)
    out *= w
    out -= z
    out += _HALF_LOG_2PI
    np.reciprocal(z, out=w)
    series = np.multiply(w, w, out=z)
    series *= _STIRLING[0]
    for c in _STIRLING[1:-1]:
        series += c
        series *= w
        series *= w
    series += _STIRLING[-1]
    series *= w
    out += series
    out[small] = _LOG_FACTORIAL_TABLE[k[small].astype(np.intp)]
    return out


def log_factorial(k):
    """log k! for integer-valued k >= 0, a float for a scalar, an array for an array.

    Below 16 from a table; above, Stirling's series for log Gamma(z), z = k + 1:
    (z - 1/2) log z - z + log(2 pi)/2 + 1/(12 z) - ... + 1/(1188 z^9), whose next
    term is below 1e-16 of the result; measured within 2 ulps of
    scipy.special.gammaln(k + 1) for every k <= 2^21.
    """
    return elementwise(_log_factorial, k)


def log_binom(n, k):
    """log C(n, k) for integer-valued 0 <= k <= n; k may be a float array."""
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k)


def integer(x, low: int, message: str) -> int:
    """x as a Python int, for an integral x >= low of any type but bool; else ValueError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < low:
        raise ValueError(message)
    return int(x)


def positive_int(n) -> int:
    """n as a Python int, for an integral n >= 1 of any type but bool; else ValueError."""
    return integer(n, 1, "n must be a positive integer")


def logsumexp(a, out=None) -> float:
    """log(sum(exp(a))) over a 1-D array, step for step as scipy.special.logsumexp.

    The entries equal to the maximum are set aside and counted (m), the rest
    summed as s = sum exp(a - max), and the result is log1p(s / m) + log m + max.
    A non-finite maximum (an infinite or NaN entry, or all -inf) takes
    log(sum(exp(a))) directly, which follows exp and log at the extremes.
    ``out``, an array of a's shape (a itself if a may be overwritten), takes
    the shifted terms in place of a new array.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max()
    if not np.isfinite(a_max):
        with np.errstate(over="ignore", divide="ignore"):
            return float(np.log(np.sum(np.exp(a, out=out))))
    at_max = a == a_max
    m = np.float64(np.count_nonzero(at_max))
    shifted = np.subtract(a, a_max, out=out)
    shifted[at_max] = -math.inf
    s = np.sum(np.exp(shifted, out=shifted))
    s /= m
    # NumPy's log1p, not math.log1p: the two differ in the last bit on some inputs.
    return float(np.log1p(s) + np.log(m) + a_max)


def finite_float(text) -> float:
    """float(text), rejecting inf and nan so a bad token fails where it is parsed."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"parameter must be finite, got {str(text).strip()!r}")
    return x


def parse_token(kind: str, token: str, forms: dict, paths=()):
    """``forms[head](rest)`` for a ``HEAD:REST`` token, its head in any case, where a
    head in ``paths`` needs a nonempty REST; any failure is one ValueError."""
    head, _, rest = token.partition(":")
    head = head.strip().lower()
    if head not in forms:
        raise ValueError(f"unknown {kind} token {token!r}")
    try:
        if head in paths and not rest:
            raise ValueError(f"{head} token needs a path")
        return forms[head](rest)
    except ValueError as exc:
        raise ValueError(f"bad {kind} token {token!r}: {exc}") from None


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def csv_rows(path: str, width: int) -> list:
    """The rows of a CSV file, each as a tuple of its first ``width`` cells as floats.

    UTF-8 with an optional byte-order mark; a row with no text is skipped, a first row
    with no number in it is a header, and any other row that does not parse is one
    ValueError naming the row and the file (README "Input files").
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        rows = [row for row in csv.reader(fh) if "".join(row).strip()]
    out = []
    for i, row in enumerate(rows):
        try:
            out.append(tuple(float(row[k]) for k in range(width)))
        except (ValueError, IndexError):
            if i or any(map(_is_number, row)):
                raise ValueError(f"bad table row {row!r} in {path}") from None
    return out
