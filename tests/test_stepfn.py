import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rispaces import StepFunction, erfc_inverse, quantile_from_samples


def test_ctor_validation():
    with pytest.raises(ValueError):
        StepFunction([Fraction(0), Fraction(1, 2)], [Fraction(1)])
    with pytest.raises(ValueError):
        StepFunction([0.0, 0.5, 1.0], [1.0])
    with pytest.raises(ValueError):
        StepFunction([Fraction(0), Fraction(3, 4), Fraction(1, 2), Fraction(1)], [1, 2, 3])
    with pytest.raises(ValueError):
        StepFunction.indicator(0.0)
    with pytest.raises(ValueError):
        StepFunction.indicator(Fraction(5, 4))


def test_exactness_detection():
    f = StepFunction([Fraction(0), Fraction(1, 3), Fraction(1)], [Fraction(2), Fraction(1)])
    assert f.is_exact
    g = StepFunction([0.0, 1 / 3, 1.0], [2.0, 1.0])
    assert not g.is_exact


def test_indicator_and_eval():
    f = StepFunction.indicator(Fraction(1, 4))
    assert f(Fraction(1, 8)) == 1
    assert f(Fraction(1, 4)) == 1
    assert f(Fraction(1, 2)) == 0
    assert f.measure_above(0) == Fraction(1, 4)
    assert f.integral() == Fraction(1, 4)
    assert StepFunction.indicator(1.0).measure_above(0.5) == 1.0


def test_scale_add():
    f = StepFunction.indicator(Fraction(1, 2)).scale(Fraction(3))
    g = StepFunction.indicator(Fraction(1, 4))
    h = f + g
    assert h(Fraction(1, 8)) == 4
    assert h(Fraction(3, 8)) == 3
    assert h(Fraction(3, 4)) == 0
    assert h.integral() == Fraction(3, 2) + Fraction(1, 4)


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
def exact_steps(draw):
    inner = draw(_fracs)
    bps = [Fraction(0)] + inner
    if bps[-1] != 1:
        bps.append(Fraction(1))
    vals = [
        Fraction(draw(st.integers(0, 8)), draw(st.integers(1, 4)))
        for _ in range(len(bps) - 1)
    ]
    return StepFunction(bps, vals)


@settings(max_examples=60, deadline=None)
@given(exact_steps(), st.fractions(min_value=0, max_value=8))
def test_rearrange_equimeasurable_exact(f, s):
    assert f.rearrange().measure_above(s) == f.measure_above(s)


@settings(max_examples=60, deadline=None)
@given(exact_steps())
def test_rearrange_idempotent_and_integral(f):
    r = f.rearrange()
    assert r.rearrange() == r
    assert r.integral() == f.integral()
    vals = list(r.values)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


@settings(max_examples=40, deadline=None)
@given(exact_steps(), st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 1), Fraction(5, 2)]))
def test_dilate_measure_scaling(f, tau):
    # m{dilated > s} = min(1, tau * m{f > s}) for decreasing f
    r = f.rearrange()
    d = r.dilate(tau)
    for s in (Fraction(1, 2), Fraction(1), Fraction(2)):
        assert d.measure_above(s) == min(Fraction(1), tau * r.measure_above(s))


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
        assert math.isclose(r.integral(), f.integral(), rel_tol=1e-12)


def test_quantile_from_samples_gaussian():
    rng = np.random.default_rng(12345)
    x = np.abs(rng.standard_normal(1_000_000))
    q = quantile_from_samples(x, 2048)
    # |N(0,1)| has upper quantile sqrt(2) * erfcinv(t)
    for t in (0.02, 0.1, 0.3, 0.7):
        expect = math.sqrt(2.0) * float(erfc_inverse(t))
        assert abs(q(t) - expect) <= 0.02 * max(1.0, expect)


def test_quantile_reproduces_discrete_rearrangement():
    # eight samples enumerating a uniform law, m divides the count
    samples = [3.0, 1.0, 2.0, 1.0, 3.0, 2.0, 2.0, 1.0]
    q = quantile_from_samples(samples, 8)
    assert list(q.values) == [3.0, 2.0, 1.0]
    assert list(q.breakpoints) == [0.0, 0.25, 0.625, 1.0]


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


