"""Step functions on the unit interval.

A :class:`StepFunction` is a nonnegative function on [0, 1] taking finitely many
values: value ``v_i`` on the half-open piece ``(t_{i-1}, t_i]`` for a partition
``0 = t_0 < t_1 < ... < t_m = 1``.  Two arithmetic backends live behind one
interface: exact ``fractions.Fraction`` data for combinatorial identities, and
float64 numpy arrays for large discretized laws.  Every constructor puts the
function into canonical form (strictly positive piece lengths, no two adjacent
pieces sharing a value), so equimeasurability checks are plain data comparisons.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = ["StepFunction", "quantile_from_samples"]

Number = Union[int, float, Fraction]

# Float-mode canonicalization: adjacent values within this relative distance merge.
_MERGE_RTOL = 1e-15
# Slack allowed when snapping float endpoints to 0 and 1.
_ENDPOINT_ATOL = 1e-9


def _is_exact(x) -> bool:
    return isinstance(x, Rational) and not isinstance(x, bool)


class StepFunction:
    """Nonnegative step function on [0, 1] in canonical form."""

    __slots__ = ("_breakpoints", "_values", "_exact")

    def __init__(self, breakpoints: Sequence[Number], values: Sequence[Number]):
        bps = list(breakpoints)
        vals = list(values)
        if len(bps) != len(vals) + 1:
            raise ValueError(
                "need len(breakpoints) == len(values) + 1, got %d and %d"
                % (len(bps), len(vals))
            )
        if not vals:
            raise ValueError("a step function needs at least one piece")
        exact = all(_is_exact(x) for x in bps) and all(_is_exact(x) for x in vals)
        if exact:
            self._init_exact(bps, vals)
        else:
            self._init_float(bps, vals)

    def _init_exact(self, bps, vals):
        bps = [Fraction(x) for x in bps]
        vals = [Fraction(x) for x in vals]
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        prev = bps[0]
        for t in bps[1:]:
            if t <= prev:
                raise ValueError("breakpoints must be strictly increasing")
            prev = t
        if any(v < 0 for v in vals):
            raise ValueError("values must be nonnegative")
        # Merge adjacent pieces sharing a value.
        m_bps = [bps[0]]
        m_vals = []
        for t, v in zip(bps[1:], vals):
            if m_vals and v == m_vals[-1]:
                m_bps[-1] = t
            else:
                m_bps.append(t)
                m_vals.append(v)
        self._breakpoints = tuple(m_bps)
        self._values = tuple(m_vals)
        self._exact = True

    def _init_float(self, bps, vals):
        bp = np.asarray([float(x) for x in bps], dtype=float)
        v = np.asarray([float(x) for x in vals], dtype=float)
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(v))):
            raise ValueError("breakpoints and values must be finite")
        if abs(bp[0]) > _ENDPOINT_ATOL or abs(bp[-1] - 1.0) > _ENDPOINT_ATOL:
            raise ValueError("breakpoints must start at 0 and end at 1")
        bp[0], bp[-1] = 0.0, 1.0
        if np.any(np.diff(bp) < 0):
            raise ValueError("breakpoints must be nondecreasing")
        if np.any(v < 0):
            raise ValueError("values must be nonnegative")
        # Zero-length pieces arise from cumulative sums of underflowed masses; drop them.
        keep = np.diff(bp) > 0
        if not keep.any():
            raise ValueError("all pieces have zero length")
        bp = np.concatenate(([0.0], bp[1:][keep]))
        v = v[keep]
        # Merge adjacent values within relative tolerance (first value wins).
        if v.size > 1:
            keep_idx = [0]
            for i in range(1, v.size):
                a, b = v[keep_idx[-1]], v[i]
                if abs(a - b) > _MERGE_RTOL * max(abs(a), abs(b)):
                    keep_idx.append(i)
            keep_idx = np.asarray(keep_idx)
            ends = np.concatenate((keep_idx[1:] - 1, [v.size - 1]))
            bp = np.concatenate(([0.0], bp[1:][ends]))
            v = v[keep_idx]
        bp.flags.writeable = False
        v.flags.writeable = False
        self._breakpoints = bp
        self._values = v
        self._exact = False

    # ------------------------------------------------------------------ basics

    @property
    def breakpoints(self):
        return self._breakpoints

    @property
    def values(self):
        return self._values

    @property
    def is_exact(self) -> bool:
        return self._exact

    @property
    def num_pieces(self) -> int:
        return len(self._values)

    def piece_lengths(self):
        if self._exact:
            bp = self._breakpoints
            return tuple(bp[i + 1] - bp[i] for i in range(len(self._values)))
        return np.diff(self._breakpoints)

    @classmethod
    def indicator(cls, u: Number) -> "StepFunction":
        """Indicator of (0, u]."""
        if not 0 < u <= 1:
            raise ValueError("indicator width must lie in (0, 1]")
        one = 1 if _is_exact(u) else 1.0
        zero = 0 if _is_exact(u) else 0.0
        if u == 1:
            return cls([zero, one], [one])
        return cls([zero, u, one], [one, zero])

    @classmethod
    def constant(cls, c: Number) -> "StepFunction":
        return cls([0, 1] if _is_exact(c) else [0.0, 1.0], [c])

    def __call__(self, t: Number):
        """Value at t in (0, 1]; the convention f(0) = f(0+)."""
        if not 0 <= t <= 1:
            raise ValueError("argument must lie in [0, 1]")
        if self._exact:
            if t == 0:
                return self._values[0]
            for i, edge in enumerate(self._breakpoints[1:]):
                if t <= edge:
                    return self._values[i]
            return self._values[-1]
        t = float(t)
        if t == 0.0:
            return float(self._values[0])
        i = int(np.searchsorted(self._breakpoints, t, side="left")) - 1
        return float(self._values[min(max(i, 0), len(self._values) - 1)])

    def measure_above(self, s: Number):
        """Lebesgue measure of {f > s}."""
        if self._exact:
            total = Fraction(0)
            bp = self._breakpoints
            for i, v in enumerate(self._values):
                if v > s:
                    total += bp[i + 1] - bp[i]
            return total
        mask = self._values > float(s)
        return float(np.sum(np.diff(self._breakpoints)[mask]))

    def integral(self):
        if self._exact:
            bp = self._breakpoints
            return sum(
                v * (bp[i + 1] - bp[i]) for i, v in enumerate(self._values)
            )
        return float(math.fsum(self._values * np.diff(self._breakpoints)))

    def scale(self, c: Number) -> "StepFunction":
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        if self._exact and _is_exact(c):
            return StepFunction(self._breakpoints, [v * c for v in self._values])
        return StepFunction(
            np.asarray(self._breakpoints, dtype=float), np.asarray(self._values) * float(c)
        )

    # ------------------------------------------------------------ combination

    def _refined_against(self, other: "StepFunction"):
        """Common-refinement breakpoints plus both value columns."""
        if self._exact and other._exact:
            bp = sorted(set(self._breakpoints) | set(other._breakpoints))
            vf = [self(t) for t in bp[1:]]
            vg = [other(t) for t in bp[1:]]
            return bp, vf, vg
        a = np.asarray(self._breakpoints, dtype=float)
        b = np.asarray(other._breakpoints, dtype=float)
        bp = np.union1d(a, b)
        mids = (bp[:-1] + bp[1:]) / 2.0
        vf = np.asarray(self._values, dtype=float)[
            np.clip(np.searchsorted(a, mids, side="left") - 1, 0, len(self._values) - 1)
        ]
        vg = np.asarray(other._values, dtype=float)[
            np.clip(np.searchsorted(b, mids, side="left") - 1, 0, len(other._values) - 1)
        ]
        return bp, vf, vg

    def __add__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        bp, vf, vg = self._refined_against(other)
        if self._exact and other._exact:
            return StepFunction(bp, [a + b for a, b in zip(vf, vg)])
        return StepFunction(bp, vf + vg)

    # ------------------------------------------------------------- operations

    def rearrange(self) -> "StepFunction":
        """Decreasing rearrangement: same value distribution, sorted descending."""
        if self._exact:
            lens = self.piece_lengths()
            pieces = sorted(
                zip(self._values, lens), key=lambda p: p[0], reverse=True
            )
            bp = [Fraction(0)]
            for _, ln in pieces:
                bp.append(bp[-1] + ln)
            return StepFunction(bp, [v for v, _ in pieces])
        order = np.argsort(-self._values, kind="stable")
        lens = np.diff(self._breakpoints)[order]
        bp = np.concatenate(([0.0], np.cumsum(lens)))
        bp[-1] = 1.0
        return StepFunction(bp, self._values[order])

    def dilate(self, tau: Number) -> "StepFunction":
        """Time dilation: t |-> f(t / tau) on (0, min(1, tau)], zero beyond."""
        if tau <= 0:
            raise ValueError("dilation factor must be positive")
        exact = self._exact and _is_exact(tau)
        tau = Fraction(tau) if exact else float(tau)
        zero = Fraction(0) if exact else 0.0
        one = Fraction(1) if exact else 1.0
        bp = [zero]
        vals = []
        for i, v in enumerate(self._values):
            edge = self._breakpoints[i + 1] * tau
            if edge >= one:
                bp.append(one)
                vals.append(v if exact else float(v))
                return StepFunction(bp, vals)
            bp.append(edge)
            vals.append(v if exact else float(v))
        bp.append(one)
        vals.append(zero)
        return StepFunction(bp, vals)

    def support_intervals(self):
        """Maximal intervals (l, r] where the function is positive."""
        out = []
        bp = self._breakpoints
        for i, v in enumerate(self._values):
            if v > 0:
                l, r = bp[i], bp[i + 1]
                if out and out[-1][1] == l:
                    out[-1] = (out[-1][0], r)
                else:
                    out.append((l, r))
        return out

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

        def dec(x):
            if isinstance(x, bool) or not isinstance(x, (int, float, str)):
                raise ValueError(f"step entries must be numbers or rational strings, got {x!r}")
            try:
                y = Fraction(x) if isinstance(x, str) else x
                float(y)  # the norms price in floats
            except (ZeroDivisionError, OverflowError):
                raise ValueError(f"step entry {x!r} is not a float-sized number") from None
            return y

        return cls([dec(t) for t in d["breakpoints"]], [dec(v) for v in d["values"]])

    # -------------------------------------------------------------- equality

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        if self._exact != other._exact:
            return False
        if self._exact:
            return (
                self._breakpoints == other._breakpoints
                and self._values == other._values
            )
        return np.array_equal(self._breakpoints, other._breakpoints) and np.array_equal(
            self._values, other._values
        )

    __hash__ = None

    def __repr__(self):
        mode = "exact" if self._exact else "float"
        return f"StepFunction({self.num_pieces} pieces, {mode})"


def quantile_from_samples(samples: Iterable[float], m: int) -> StepFunction:
    """Empirical decreasing quantile function of |samples| on m equal pieces.

    Piece i carries the upper empirical quantile at its left endpoint
    (i - 1) / m, i.e. the floor((i - 1) * N / m)-th largest |sample|.  When the
    samples enumerate a discrete uniform law and m divides the sample count this
    reproduces the exact rearrangement.
    """
    a = np.abs(np.asarray(list(samples) if not hasattr(samples, "__len__") else samples, dtype=float)).ravel()
    if a.size == 0:
        raise ValueError("samples must be nonempty")
    if m < 1:
        raise ValueError("need at least one piece")
    a.sort()
    a = a[::-1]
    idx = (np.arange(m) * a.size) // m
    return StepFunction(np.arange(m + 1, dtype=float) / m, a[idx])
