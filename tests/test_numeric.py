import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from rispaces import (
    Lpq,
    gaussian_selfsimilarity_check,
    limsup_tail_sum_ratio,
    mc_iid_sum_norm,
    power,
    rademacher,
    rademacher_sum_norm,
    signed_indicator_sum_log_tails,
    signed_indicator_sum_tail,
    sup_indicator_ratio,
)
from rispaces._numeric import log_binom, log_factorial, logsumexp


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.maximum(np.abs(want), np.finfo(float).tiny))


# --------------------------------------------------------------- log_factorial


def test_log_factorial_matches_gammaln_on_every_k_to_2_21():
    k = np.arange(2**21 + 1, dtype=float)
    assert _ulps(log_factorial(k), special.gammaln(k + 1)).max() <= 4


def test_log_factorial_matches_gammaln_on_random_large_k():
    k = np.floor(np.random.default_rng(20261018).uniform(0, 1e8, 10**4))
    assert _ulps(log_factorial(k), special.gammaln(k + 1)).max() <= 4


def test_log_factorial_table_is_exact_below_16():
    for k in range(16):
        assert _ulps(log_factorial(k), math.log(math.factorial(k))) <= 1


def test_log_factorial_keeps_the_shape_of_its_argument():
    assert type(log_factorial(20)) is float
    assert type(log_factorial(np.float64(3))) is float
    got = log_factorial(np.array([[0, 16], [17, 100]]))
    assert isinstance(got, np.ndarray) and got.shape == (2, 2)
    assert got[0, 0] == 0.0 and got[1, 1] == pytest.approx(math.lgamma(101), rel=1e-15)


def test_log_binom_matches_exact_binomials():
    n = 300
    k = np.arange(n + 1, dtype=float)
    want = np.array([math.log(math.comb(n, j)) for j in range(n + 1)])
    # three log-factorials near log 300! = 1414 (ulp 2.3e-13) cancel: an absolute bound
    np.testing.assert_allclose(log_binom(n, k), want, rtol=0, atol=8 * np.spacing(1414.0))


# ------------------------------------------------------------------- logsumexp


def _logsumexp_cases():
    rng = np.random.default_rng(5)
    for i in range(400):
        n = int(rng.integers(1, 2000))
        a = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), n) + rng.uniform(-800, 800)
        if i % 4 == 1:  # ties at the maximum
            a[rng.integers(0, n, 3)] = a.max()
        elif i % 4 == 2:  # scattered -inf
            a[rng.random(n) < 0.3] = -np.inf
        elif i % 4 == 3:  # many ties everywhere
            a = np.round(a)
        yield a
        # maximum at 0: the result is log1p(s) + log m alone, so a last-bit
        # difference in log1p is not rounded away by a large maximum
        yield a - a.max()
    yield np.full(7, -np.inf)
    yield np.array([1.0, np.inf, -3.0])
    yield np.array([np.inf, np.inf])
    yield np.array([2.5])
    yield np.array([-np.inf])
    yield np.array([0.0, 0.0])


def test_logsumexp_is_bit_identical_to_scipy():
    for a in _logsumexp_cases():
        got, want = logsumexp(a), float(special.logsumexp(a))
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want)), a
        scratch = a.copy()  # the shifted terms overwrite a copy of a
        assert repr(logsumexp(scratch, out=scratch)) == repr(got), a


# ---------------------------------------------------------------- positive_int


def test_sizes_take_any_integer_but_bool():
    psi, space = power(0.5), Lpq(2.0, 1.0)
    assert rademacher_sum_norm(np.int64(100), space) == rademacher_sum_norm(100, space)
    assert sup_indicator_ratio(psi, np.int64(4)) == sup_indicator_ratio(psi, 4)
    assert np.array_equal(signed_indicator_sum_log_tails(np.int64(8), 0.5),
                          signed_indicator_sum_log_tails(8, 0.5))
    # the exact route takes 2^64-sized powers of n, which an int64 would wrap
    half = Fraction(1, 2)
    assert signed_indicator_sum_tail(np.int64(64), half, 3) == signed_indicator_sum_tail(64, half, 3)
    sized = [
        lambda n: rademacher_sum_norm(n, space),
        lambda n: sup_indicator_ratio(psi, n),
        lambda n: signed_indicator_sum_log_tails(n, 0.5),
        lambda n: limsup_tail_sum_ratio(psi, n),
        lambda n: mc_iid_sum_norm(rademacher(), n, space),
        gaussian_selfsimilarity_check,
    ]
    for call in sized:
        for bad in (True, 0, -3, 2.0, "3"):
            with pytest.raises(ValueError, match="^n must be a positive integer$"):
                call(bad)
