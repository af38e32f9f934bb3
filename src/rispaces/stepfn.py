"""Step functions on the unit interval.

A :class:`StepFunction` is a nonnegative function on [0, 1] taking finitely many
values: value ``v_i`` on the half-open piece ``(t_{i-1}, t_i]`` for a partition
``0 = t_0 < t_1 < ... < t_m = 1``.  Its data are two 1-D numpy arrays in one of
two arithmetics: ``float64`` for large discretized laws, or ``dtype=object``
arrays of ``fractions.Fraction`` for combinatorial identities.  Each method runs
one numpy code path on both.  The arithmetics differ only in the endpoint rule
(exact 0 and 1, or floats snapped within ``_ENDPOINT_ATOL``) and the exact sum
in ``measure_above``.  An exact function combined with a float argument or a
float function gives a float result.  Every step function, from
``indicator`` to ``rearrange`` and ``from_json_dict``, is built by the one
constructor.  It decides the arithmetic once from the entries, arrays and lists
alike: ``Fraction`` objects when every entry is rational, one float array
otherwise.  It then puts the function into canonical form: strictly positive
piece lengths, and adjacent pieces merged exactly when their values are equal.  Two
floats that differ never merge, so no value moves, and equimeasurability
checks are plain data comparisons.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from numbers import Rational
from typing import Sequence, Union

import numpy as np

from ._numeric import integer

__all__ = ["StepFunction", "quantile_from_samples"]

Number = Union[int, float, Fraction]

# Slack allowed when snapping float endpoints to 0 and 1.
_ENDPOINT_ATOL = 1e-9


def _is_exact(x) -> bool:
    return isinstance(x, Rational) and not isinstance(x, bool)


def _like(x: Number, exact: bool) -> Number:
    """A scalar met by exact or float data: it stays exact only if both are."""
    return x if exact and _is_exact(x) else float(x)


class StepFunction:
    """Nonnegative step function on [0, 1] in canonical form."""

    __slots__ = ("_breakpoints", "_values")

    def __init__(self, breakpoints: Sequence[Number], values: Sequence[Number]):
        # one arithmetic, arrays and lists alike: Fractions if every entry is rational
        exact = all(map(_is_exact, itertools.chain(breakpoints, values)))
        bp, v = (np.array([Fraction(x) for x in a], dtype=object) if exact
                 else np.array(a, dtype=float) for a in (breakpoints, values))
        if bp.ndim != 1 or v.ndim != 1:
            raise ValueError("breakpoints and values must be 1-D sequences")
        if bp.size != v.size + 1:
            raise ValueError(
                "need len(breakpoints) == len(values) + 1, got %d and %d" % (bp.size, v.size)
            )
        if not v.size:
            raise ValueError("a step function needs at least one piece")
        if exact:
            if bp[0] != 0 or bp[-1] != 1:
                raise ValueError("breakpoints must start at 0 and end at 1")
        else:
            if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(v))):
                raise ValueError("breakpoints and values must be finite")
            if abs(bp[0]) > _ENDPOINT_ATOL or abs(bp[-1] - 1.0) > _ENDPOINT_ATOL:
                raise ValueError("breakpoints must start at 0 and end at 1")
            bp[0], bp[-1] = 0.0, 1.0
        if np.any(np.diff(bp) < 0):
            raise ValueError("breakpoints must be nondecreasing")
        if np.any(v < 0):
            raise ValueError("values must be nonnegative")
        # Canonical form: zero-length pieces, which arise from cumulative sums of
        # underflowed masses, go; then each run of equal adjacent values becomes
        # one piece, by the same comparison in both arithmetics.
        keep = np.diff(bp) > 0
        bp = np.concatenate((bp[:1], bp[1:][keep]))
        v = v[keep]
        starts = np.flatnonzero(v[1:] != v[:-1]) + 1  # every run's first piece but the first
        bp = np.concatenate((bp[:1], bp[starts], bp[-1:]))
        v = np.concatenate((v[:1], v[starts]))
        bp.flags.writeable = False
        v.flags.writeable = False
        self._breakpoints = bp
        self._values = v

    # ------------------------------------------------------------------ basics

    @property
    def breakpoints(self) -> np.ndarray:
        return self._breakpoints

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def is_exact(self) -> bool:
        return self._values.dtype == object

    @property
    def num_pieces(self) -> int:
        return len(self._values)

    def piece_lengths(self) -> np.ndarray:
        return np.diff(self._breakpoints)

    @classmethod
    def indicator(cls, u: Number) -> "StepFunction":
        """Indicator of (0, u]."""
        if not 0 < u <= 1:
            raise ValueError("indicator width must lie in (0, 1]")
        return cls([0, u, 1], [1, 0])  # at u = 1 the zero-length last piece goes

    def measure_above(self, s: Number):
        """Lebesgue measure of {f > s}."""
        lens = self.piece_lengths()[self._values > _like(s, self.is_exact)]
        return sum(lens, Fraction(0)) if self.is_exact else float(np.sum(lens))

    def scale(self, c: Number) -> "StepFunction":
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        return StepFunction(self._breakpoints, self._values * _like(c, self.is_exact))

    # ------------------------------------------------------------ combination

    def __add__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        # the common refinement, exact only if both are; each piece (l, r] is
        # looked up by its right end r, which no rounding moves into a neighbour
        dtype = object if self.is_exact and other.is_exact else float
        a = self._breakpoints.astype(dtype, copy=False)
        b = other._breakpoints.astype(dtype, copy=False)
        bp = np.union1d(a, b)
        vf = self._values[np.searchsorted(a, bp[1:]) - 1]
        vg = other._values[np.searchsorted(b, bp[1:]) - 1]
        return StepFunction(bp, vf + vg)

    # ------------------------------------------------------------- operations

    def rearrange(self) -> "StepFunction":
        """Decreasing rearrangement: same value distribution, sorted descending."""
        order = np.argsort(-self._values, kind="stable")
        lens = self.piece_lengths()[order]
        bp = np.concatenate((self._breakpoints[:1], np.cumsum(lens)))
        bp[-1] = self._breakpoints[-1]
        return StepFunction(bp, self._values[order])

    # ---------------------------------------------------------- serialization

    @classmethod
    def from_json_dict(cls, d: dict) -> "StepFunction":
        """Read ``{"breakpoints": [...], "values": [...]}``; entries are numbers or "p/q"."""
        if not (
            isinstance(d, dict)
            and isinstance(d.get("breakpoints"), list)
            and isinstance(d.get("values"), list)
        ):
            raise ValueError(
                'a step function is a JSON object with list-valued "breakpoints" and "values"'
            )

        bps, vals = d["breakpoints"], d["values"]
        kinds = set(map(type, bps)) | set(map(type, vals))
        if float in kinds and kinds <= {float, int}:
            # all plain numbers, not all integers: the constructor's float path
            try:
                return cls(bps, vals)
            except OverflowError:  # an integer past the float range: reported below
                pass

        def dec(x):
            if isinstance(x, bool) or not isinstance(x, (int, float, str)):
                raise ValueError(f"step entries must be numbers or rational strings, got {x!r}")
            try:
                y = Fraction(x) if isinstance(x, str) else x
                float(y)  # the norms price in floats
            except (ZeroDivisionError, OverflowError):
                raise ValueError(f"step entry {x!r} is not a float-sized number") from None
            return y

        return cls([dec(t) for t in bps], [dec(v) for v in vals])

    # -------------------------------------------------------------- equality

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (
            self.is_exact == other.is_exact
            and np.array_equal(self._breakpoints, other._breakpoints)
            and np.array_equal(self._values, other._values)
        )

    __hash__ = None

    def __repr__(self):
        mode = "exact" if self.is_exact else "float"
        return f"StepFunction({self.num_pieces} pieces, {mode})"


def quantile_from_samples(samples: Union[Sequence[float], np.ndarray], m: int) -> StepFunction:
    """Empirical decreasing quantile function of |samples| on m equal pieces.

    Piece i carries the upper empirical quantile at its left endpoint
    (i - 1) / m, i.e. the floor((i - 1) * N / m)-th largest |sample|.  When the
    samples enumerate a discrete uniform law and m divides the sample count this
    reproduces the exact rearrangement.
    """
    a = np.abs(np.asarray(samples, dtype=float)).ravel()
    if a.size == 0:
        raise ValueError("samples must be nonempty")
    m = integer(m, 1, "need at least one piece")
    a.sort()
    a = a[::-1]
    idx = (np.arange(m) * a.size) // m
    return StepFunction(np.arange(m + 1, dtype=float) / m, a[idx])
