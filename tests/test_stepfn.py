import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rispaces import StepFunction, erfc_inverse, quantile_from_samples


def _at(f, t):
    """The value of f at t in [0, 1] (f(0) = f(0+)): that of the piece (l, r] holding t."""
    for v, r in zip(f.values, f.breakpoints[1:]):
        if t <= r:
            return v
    return f.values[-1]


def _integral(f):
    """The integral of f over [0, 1]: an exact sum for exact f, math.fsum for float f."""
    terms = f.values * f.piece_lengths()
    return sum(terms, Fraction(0)) if f.is_exact else math.fsum(terms)


def test_ctor_validation():
    with pytest.raises(ValueError):
        StepFunction([Fraction(0), Fraction(1, 2)], [Fraction(1)])
    with pytest.raises(ValueError):
        StepFunction([0.0, 0.5, 1.0], [1.0])
    with pytest.raises(ValueError, match="^breakpoints and values must be 1-D sequences$"):
        StepFunction([[0.0], [0.5], [1.0]], [[1.0], [0.0]])  # columns, once an IndexError
    with pytest.raises(ValueError):
        StepFunction([Fraction(0), Fraction(3, 4), Fraction(1, 2), Fraction(1)], [1, 2, 3])
    with pytest.raises(ValueError):
        StepFunction.indicator(0.0)
    with pytest.raises(ValueError):
        StepFunction.indicator(Fraction(5, 4))
    # a repeated breakpoint is an empty piece, dropped in both arithmetics
    half = Fraction(1, 2)
    assert StepFunction([0, half, half, 1], [1, 5, 2]) == StepFunction([0, half, 1], [1, 2])
    assert StepFunction([0.0, 0.5, 0.5, 1.0], [1, 5, 2]) == StepFunction([0.0, 0.5, 1.0], [1, 2])


def test_exactness_detection():
    f = StepFunction([Fraction(0), Fraction(1, 3), Fraction(1)], [Fraction(2), Fraction(1)])
    assert f.is_exact
    g = StepFunction([0.0, 1 / 3, 1.0], [2.0, 1.0])
    assert not g.is_exact


def test_indicator_and_eval():
    f = StepFunction.indicator(Fraction(1, 4))
    assert _at(f, Fraction(1, 8)) == 1
    assert _at(f, Fraction(1, 4)) == 1
    assert _at(f, Fraction(1, 2)) == 0
    assert f.measure_above(0) == Fraction(1, 4)
    assert _integral(f) == Fraction(1, 4)
    assert StepFunction.indicator(1.0).measure_above(0.5) == 1.0


def test_scale_add():
    f = StepFunction.indicator(Fraction(1, 2)).scale(Fraction(3))
    g = StepFunction.indicator(Fraction(1, 4))
    h = f + g
    assert _at(h, Fraction(1, 8)) == 4
    assert _at(h, Fraction(3, 8)) == 3
    assert _at(h, Fraction(3, 4)) == 0
    assert _integral(h) == Fraction(3, 2) + Fraction(1, 4)
    with pytest.raises(ValueError, match="scale factor must be nonnegative"):
        g.scale(-1)
    # a number is not a step function: no sum, and never equal
    with pytest.raises(TypeError):
        g + 1
    assert (g == 1) is False


def test_add_keeps_one_ulp_pieces():
    # the midpoint of (0.25, 0.25 + ulp] rounds onto 0.25, the end of the piece before it
    x = 0.25
    y = float(np.nextafter(x, 1.0))
    f = StepFunction(np.array([0.0, x, 1.0]), np.array([1.0, 2.0]))
    g = StepFunction(np.array([0.0, y, 1.0]), np.array([5.0, 7.0]))
    h = f + g
    assert list(h.breakpoints) == [0.0, x, y, 1.0]
    assert list(h.values) == [6.0, 7.0, 9.0]


def test_only_equal_neighbours_merge():
    one_up = float(np.nextafter(1.0, 2.0))
    f = StepFunction([0.0, 0.25, 0.5, 0.75, 1.0], [1.0, one_up, one_up, 1.0])
    assert list(f.breakpoints) == [0.0, 0.25, 0.75, 1.0]
    assert list(f.values) == [1.0, one_up, 1.0]
    g = StepFunction([0, Fraction(1, 3), Fraction(2, 3), 1], [Fraction(1, 2), Fraction(2, 4), 1])
    assert list(g.breakpoints) == [0, Fraction(2, 3), 1]
    assert list(g.values) == [Fraction(1, 2), 1]


def test_rearrange_sorts_descending():
    f = StepFunction(
        [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)],
        [Fraction(1), Fraction(3), Fraction(2)],
    )
    r = f.rearrange()
    assert list(r.values) == [Fraction(3), Fraction(2), Fraction(1)]
    assert list(r.breakpoints) == [0, Fraction(1, 4), Fraction(3, 4), Fraction(1)]


# random exact step functions on a rational grid
_fracs = st.integers(1, 16).flatmap(
    lambda d: st.lists(st.integers(1, d), min_size=1, max_size=6, unique=True).map(
        lambda nums: sorted(Fraction(n, d) for n in nums)
    )
)


@st.composite
def exact_data(draw):
    inner = draw(_fracs)
    bps = [Fraction(0)] + inner
    if bps[-1] != 1:
        bps.append(Fraction(1))
    vals = [
        Fraction(draw(st.integers(0, 8)), draw(st.integers(1, 4)))
        for _ in range(len(bps) - 1)
    ]
    return bps, vals


def exact_steps():
    return exact_data().map(lambda d: StepFunction(*d))


class _TupleStep:
    """The exact step function as tuples of ``Fraction`` and Python loops, the
    route the NumPy object arrays replaced, kept here as their oracle."""

    def __init__(self, bps, vals):
        bps = [Fraction(x) for x in bps]
        vals = [Fraction(x) for x in vals]
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(b <= a for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(v < 0 for v in vals):
            raise ValueError("values must be nonnegative")
        m_bps, m_vals = [bps[0]], []
        for t, v in zip(bps[1:], vals):
            if m_vals and v == m_vals[-1]:
                m_bps[-1] = t
            else:
                m_bps.append(t)
                m_vals.append(v)
        self.breakpoints, self.values = tuple(m_bps), tuple(m_vals)

    def lengths(self):
        return [b - a for a, b in zip(self.breakpoints, self.breakpoints[1:])]

    def __call__(self, t):
        if t == 0:
            return self.values[0]
        for i, edge in enumerate(self.breakpoints[1:]):
            if t <= edge:
                return self.values[i]
        return self.values[-1]

    def measure_above(self, s):
        total = Fraction(0)
        for v, ln in zip(self.values, self.lengths()):
            if v > s:
                total += ln
        return total

    def integral(self):
        return sum(v * ln for v, ln in zip(self.values, self.lengths()))

    def scale(self, c):
        return _TupleStep(self.breakpoints, [v * c for v in self.values])

    def __add__(self, other):
        bp = sorted(set(self.breakpoints) | set(other.breakpoints))
        return _TupleStep(bp, [self(t) + other(t) for t in bp[1:]])

    def rearrange(self):
        pieces = sorted(zip(self.values, self.lengths()), key=lambda p: p[0], reverse=True)
        bp = [Fraction(0)]
        for _, ln in pieces:
            bp.append(bp[-1] + ln)
        return _TupleStep(bp, [v for v, _ in pieces])


def _fraction_list(xs):
    xs = list(xs)
    assert all(type(x) is Fraction for x in xs)
    return xs


def _same_exact(f, oracle):
    assert f.is_exact
    assert _fraction_list(f.breakpoints) == list(oracle.breakpoints)
    assert _fraction_list(f.values) == list(oracle.values)


@settings(max_examples=100, deadline=None)
@given(
    exact_data(),
    exact_data(),
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=8),
    st.fractions(min_value=0, max_value=4),
)
def test_exact_operations_match_tuple_oracle(d, e, t, s, c):
    f, g = StepFunction(*d), StepFunction(*e)
    F, G = _TupleStep(*d), _TupleStep(*e)
    _same_exact(f, F)
    _same_exact(f.rearrange(), F.rearrange())
    _same_exact(f + g, F + G)
    _same_exact(f.scale(c), F.scale(c))
    at = [t, *F.breakpoints]
    assert _fraction_list([_at(f, x) for x in at]) == [F(x) for x in at]
    assert _fraction_list([f.measure_above(s), _integral(f)]) == [F.measure_above(s), F.integral()]


@settings(max_examples=60, deadline=None)
@given(
    exact_data(),
    exact_data(),
    st.floats(min_value=0, max_value=4),
)
def test_float_operand_gives_the_float_result(d, e, c):
    # an exact function meeting a float runs as its float copy would
    def floated(data):
        return StepFunction(*(np.array(a, dtype=float) for a in data))

    f, g, fl, gl = StepFunction(*d), StepFunction(*e), floated(d), floated(e)
    pairs = [(f.scale(c), fl.scale(c)), (f + gl, fl + gl), (fl + g, fl + gl)]
    for got, want in pairs:
        assert not got.is_exact and got == want


@settings(max_examples=60, deadline=None)
@given(exact_steps(), st.fractions(min_value=0, max_value=8))
def test_rearrange_equimeasurable_exact(f, s):
    assert f.rearrange().measure_above(s) == f.measure_above(s)


@settings(max_examples=60, deadline=None)
@given(exact_steps())
def test_rearrange_idempotent_and_integral(f):
    r = f.rearrange()
    assert r.rearrange() == r
    assert _integral(r) == _integral(f)
    vals = list(r.values)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_float_equimeasurability():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        bps = np.concatenate(([0.0], np.sort(rng.random(n - 1)), [1.0]))
        vals = rng.random(n) * 3
        f = StepFunction(bps, vals)
        r = f.rearrange()
        for s in rng.random(4) * 3:
            assert math.isclose(r.measure_above(s), f.measure_above(s), abs_tol=1e-12)
        assert math.isclose(_integral(r), _integral(f), rel_tol=1e-12)


def test_quantile_from_samples_gaussian():
    rng = np.random.default_rng(12345)
    x = np.abs(rng.standard_normal(1_000_000))
    q = quantile_from_samples(x, 2048)
    # |N(0,1)| has upper quantile sqrt(2) * erfcinv(t)
    for t in (0.02, 0.1, 0.3, 0.7):
        expect = math.sqrt(2.0) * float(erfc_inverse(t))
        assert abs(_at(q, t) - expect) <= 0.02 * max(1.0, expect)


def test_quantile_reproduces_discrete_rearrangement():
    # eight samples enumerating a uniform law, m divides the count
    samples = [3.0, 1.0, 2.0, 1.0, 3.0, 2.0, 2.0, 1.0]
    q = quantile_from_samples(samples, 8)
    assert list(q.values) == [3.0, 2.0, 1.0]
    assert list(q.breakpoints) == [0.0, 0.25, 0.625, 1.0]
    # the quantiles are of |samples|, so signs change nothing
    assert quantile_from_samples([-x if i % 3 else x for i, x in enumerate(samples)], 8) == q
    with pytest.raises(ValueError, match="samples must be nonempty"):
        quantile_from_samples([], 4)


def test_json_round_trip_exact():
    f = StepFunction(
        [Fraction(0), Fraction(1, 3), Fraction(1)], [Fraction(5, 7), Fraction(0)]
    )
    g = StepFunction.from_json_dict({"breakpoints": [0, "1/3", 1], "values": ["5/7", 0]})
    assert g == f
    assert g.is_exact


def test_json_round_trip_float():
    f = StepFunction([0.0, 0.25, 1.0], [1.5, 0.25])
    g = StepFunction.from_json_dict({"breakpoints": [0.0, 0.25, 1.0], "values": [1.5, 0.25]})
    assert g == f
    assert not g.is_exact




# The float canonicalization as one Python loop: a piece opens wherever its
# value differs from the one before, the first value of a run wins.
def _old_float_canonical(bps, vals):
    bp = np.asarray([float(x) for x in bps], dtype=float)
    v = np.asarray([float(x) for x in vals], dtype=float)
    bp[0], bp[-1] = 0.0, 1.0
    keep = np.diff(bp) > 0
    bp = np.concatenate(([0.0], bp[1:][keep]))
    v = v[keep]
    if v.size > 1:
        keep_idx = [0]
        for i in range(1, v.size):
            a, b = v[keep_idx[-1]], v[i]
            if a != b:
                keep_idx.append(i)
        keep_idx = np.asarray(keep_idx)
        ends = np.concatenate((keep_idx[1:] - 1, [v.size - 1]))
        bp = np.concatenate(([0.0], bp[1:][ends]))
        v = v[keep_idx]
    return bp, v


def _near_equal_chains(rng, size):
    """Runs of values a few 1e-15 relative apart, which never merge, and exact ties."""
    v = np.empty(size)
    i = 0
    while i < size:
        run = int(rng.integers(1, 40))
        base = float(rng.exponential(1.0)) if rng.random() < 0.9 else 0.0
        # relative steps in units of 1e-15; drift, alternate or mix
        style = rng.integers(3)
        k = np.arange(run)
        if style == 0:
            steps = k * rng.choice([0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 2.5])
        elif style == 1:
            steps = (-1.0) ** k * rng.choice([0.4, 0.5, 0.6, 1.0, 1.4, 2.0])
        else:
            steps = rng.integers(-3, 4, size=run) * rng.choice([0.5, 1.0])
        v[i : i + run] = (base * (1.0 + steps[: size - i] * 1e-15))[: size - i]
        i += run
    # plus a few ulp-level nudges, which the float grid rounds either way
    nudge = rng.random(size) < 0.2
    v[nudge] = np.nextafter(v[nudge], np.inf)
    return np.abs(v)


def _float_cases():
    rng = np.random.default_rng(20240607)
    for size in (1, 2, 3, 17, 500, 5000):
        cuts = np.sort(rng.random(size - 1))
        bp = np.concatenate(([0.0], cuts, [1.0]))
        yield bp, rng.exponential(1.0, size)  # generic data
        yield bp, rng.integers(0, 3, size).astype(float)  # exact ties
        zl = bp.copy()
        zl[1:-1][rng.random(size - 1) < 0.3] = 0.0
        yield np.maximum.accumulate(zl), rng.exponential(1.0, size)  # zero-length pieces
        yield bp, _near_equal_chains(rng, size)


def test_float_canonicalization_matches_sequential_merge():
    for bp, v in _float_cases():
        f = StepFunction(bp, v)
        want_bp, want_v = _old_float_canonical(bp, v)
        assert np.array_equal(f.breakpoints, want_bp)
        assert np.array_equal(f.values, want_v)
        # the caller's arrays are copied, not frozen or snapped
        assert bp.flags.writeable and v.flags.writeable
        # the same data as Python lists gives the same result
        assert StepFunction(bp.tolist(), v.tolist()) == f


def test_float_rearrange_matches_full_constructor():
    for bp, v in _float_cases():
        f = StepFunction(bp, v)
        order = np.argsort(-f.values, kind="stable")
        sums = np.concatenate(([0.0], np.cumsum(np.diff(f.breakpoints)[order])))
        sums[-1] = 1.0
        want_bp, want_v = _old_float_canonical(sums, f.values[order])
        r = f.rearrange()
        assert np.array_equal(r.breakpoints, want_bp)
        assert np.array_equal(r.values, want_v)


def test_json_float_decoding_matches_per_entry_decoding():
    for bp, v in _float_cases():
        d = {"breakpoints": bp.tolist(), "values": v.tolist()}
        d["breakpoints"][0] = 0  # a plain integer among the floats
        g = StepFunction.from_json_dict(d)
        assert not g.is_exact
        assert g == StepFunction([float(x) for x in d["breakpoints"]], d["values"])
    # all integers stay exact; a huge integer, a bool and NaN keep their errors
    assert StepFunction.from_json_dict({"breakpoints": [0, 1], "values": [3]}).is_exact
    bad = [
        ({"breakpoints": [0.0, 1.0], "values": [10**400]}, "float-sized"),
        ({"breakpoints": [0.0, 1.0], "values": [True]}, "numbers or rational"),
        ({"breakpoints": [0.0, 1.0], "values": [float("nan")]}, "finite"),
        ({"breakpoints": [0.0, 0.5], "values": [1.0]}, "end at 1"),
    ]
    for d, fragment in bad:
        with pytest.raises(ValueError, match=fragment):
            StepFunction.from_json_dict(d)
