import functools
import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from rispaces import (
    EXACT_MAX_STEPS,
    Lorentz,
    Lpq,
    StepFunction,
    power,
    rademacher_sum_norm,
    signed_indicator_sum_expectation,
    signed_indicator_sum_log_tails,
    signed_indicator_sum_tail,
    walk_abs_layers,
    walk_distribution,
)
from rispaces._numeric import CHUNK as _ROW_CHUNK, log_factorial
from test_acceptance import _enumerated_tails

LN2 = math.log(2.0)


@pytest.mark.parametrize("u", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_signed_sum_tails_match_enumeration(n, u):
    oracle = _enumerated_tails(n, u)
    for s in range(1, n + 1):
        got = signed_indicator_sum_tail(n, u, s)
        assert isinstance(got, Fraction)
        assert got == oracle[s]


def test_walk_distribution_matches_sign_enumeration():
    for k in (1, 2, 3, 6, 9):
        law = {}
        for signs in itertools.product((-1, 1), repeat=k):
            w = abs(sum(signs))
            law[w] = law.get(w, Fraction(0)) + Fraction(1, 2**k)
        f = walk_distribution(k)
        assert f.is_exact
        # the piece of value v ends at P(|W_k| >= v)
        assert list(f.values) == sorted(law, reverse=True)
        for v, end in zip(f.values, f.breakpoints[1:]):
            assert end == sum(p for w, p in law.items() if w >= v)
        assert f.breakpoints[-1] == 1


def test_walk_distribution_matches_binomial_fold():
    """Oracle: fold the atoms C(k, j) / 2^k by |k - 2j| and accumulate the masses."""
    for k in range(EXACT_MAX_STEPS + 1):
        law = {}
        for j in range(k + 1):
            v = abs(k - 2 * j)
            law[v] = law.get(v, Fraction(0)) + Fraction(math.comb(k, j), 2**k)
        values = sorted(law, reverse=True)
        ends = list(itertools.accumulate(law[v] for v in values))
        assert walk_distribution(k) == StepFunction([Fraction(0), *ends], values), k


def folded_walk_tail(k, s):
    """P(|W_k| >= s) from the binomial atoms C(k, j) / 2^k, folded by |k - 2j|."""
    return Fraction(sum(math.comb(k, j) for j in range(k + 1) if abs(k - 2 * j) >= s), 2**k)


def test_walk_tail_anchors():
    # P(|W_k| >= s) is where the last piece of walk_distribution(k) with value >= s ends
    def tail(k, s):
        f = walk_distribution(k)
        return max(end for v, end in zip(f.values, f.breakpoints[1:]) if v >= s)

    assert tail(4, 2) == Fraction(5, 8)
    assert tail(5, 5) == Fraction(1, 16)
    assert tail(2, 1) == Fraction(1, 2)
    assert tail(3, 1) == 1


def test_signed_sum_tail_anchors():
    assert signed_indicator_sum_tail(2, Fraction(1, 2), 1) == Fraction(5, 8)
    assert signed_indicator_sum_tail(2, Fraction(1, 2), 2) == Fraction(1, 8)


def test_extreme_tail_identity():
    # P(|S_n| >= n) = 2^(1-n) u^n: all variables active with aligned signs
    for n in range(1, 21):
        for u in (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
            expect = Fraction(2, 2**n) * u**n
            assert signed_indicator_sum_tail(n, u, n) == expect


def test_u_equal_one_reduces_to_walk():
    for n in range(1, EXACT_MAX_STEPS + 1):
        for s in range(1, n + 1):
            assert signed_indicator_sum_tail(n, Fraction(1), s) == folded_walk_tail(n, s), (n, s)


def test_exact_vs_float_paths_agree():
    for n in (8, 33, 64):
        for u in (Fraction(1, 4), Fraction(2, 3)):
            for s in (1, n // 2 or 1, n):
                exact = float(signed_indicator_sum_tail(n, u, s))
                approx = signed_indicator_sum_tail(n, float(u), s)
                assert approx == pytest.approx(exact, rel=1e-10, abs=1e-300)


def test_float_path_required_beyond_cap():
    walk_distribution(EXACT_MAX_STEPS)
    with pytest.raises(ValueError):
        walk_distribution(EXACT_MAX_STEPS + 1)


@functools.lru_cache(maxsize=None)
def exact_abs_tails(n_max, u):
    """Exact P(|S_n| >= s), s = 1..n, for n = 1..n_max, by expanding (a + b z + b/z)^n."""
    a, b = 1 - u, u / 2
    coeffs = [Fraction(1)]  # P(S_n = m) at index m + n
    out = {}
    for n in range(1, n_max + 1):
        padded = [Fraction(0)] * 2 + coeffs + [Fraction(0)] * 2
        coeffs = [b * padded[i] + a * padded[i + 1] + b * padded[i + 2] for i in range(2 * n + 1)]
        upper = list(itertools.accumulate(reversed(coeffs[n + 1 :])))[::-1]
        out[n] = [2 * t for t in upper]
    return out


EXACT_US = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(5, 7), Fraction(1, 1000)]


@pytest.mark.parametrize("u", EXACT_US)
def test_exact_tails_match_polynomial_expansion(u):
    for n, tails in exact_abs_tails(EXACT_MAX_STEPS, u).items():
        for s, want in enumerate(tails, start=1):
            got = signed_indicator_sum_tail(n, u, s)
            assert isinstance(got, Fraction)
            assert got == want, (n, s)


def log_fraction(x):
    return math.log(x.numerator) - math.log(x.denominator)


@pytest.mark.parametrize("u", [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 1000)])
def test_log_tails_match_exact_law(u):
    for n, tails in exact_abs_tails(64, u).items():
        got = signed_indicator_sum_log_tails(n, float(u))
        want = np.asarray([log_fraction(t) for t in tails])
        assert np.max(np.abs(got - want)) <= 1e-12, n


@pytest.mark.parametrize("u", [0.5, 1e-3, 1.0])
@pytest.mark.parametrize("n", [64, 512, 4096])
def test_log_tails_give_the_second_moment(n, u):
    # E S_n^2 = n u, read off the tails as the sum over s of (2s - 1) P(|S_n| >= s).
    # The recurrence rounds at each of its n steps: the largest relative error
    # measured is 2.3e-13, at n = 4096 and u = 1e-3.
    s = np.arange(1, n + 1)
    second = math.fsum((2 * s - 1) * np.exp(signed_indicator_sum_log_tails(n, u)))
    assert second == pytest.approx(n * u, rel=1e-12)


@functools.lru_cache(maxsize=1)
def matrix_route_walk_tails(n):
    """M[k, s] = log P(|W_k| >= s), 0 <= k, s <= n: the O(n^2) table of the earlier route."""
    M = np.full((n + 1, n + 1), -np.inf)
    M[:, 0] = 0.0
    for k in range(1, n + 1):
        j = np.arange(k + 1, dtype=float)
        row = gammaln(k + 1) - gammaln(j + 1) - gammaln(k - j + 1) - k * LN2
        H = np.logaddexp.accumulate(row)
        s = np.arange(1, k + 1)
        M[k, 1 : k + 1] = LN2 + H[(k - s) // 2]
    return M


def matrix_route_log_tails(n, u):
    """Condition on the active count k ~ Bin(n, u) and sum the walk tails in log space."""
    k = np.arange(n + 1, dtype=float)
    if u == 1.0:
        lB = np.full(n + 1, -np.inf)
        lB[n] = 0.0
    else:
        lB = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
        lB = lB + k * math.log(u) + (n - k) * math.log1p(-u)
    M = matrix_route_walk_tails(n)
    return np.minimum(logsumexp(M[:, 1:] + lB[:, None], axis=0), 0.0)


@pytest.mark.parametrize("u", [1.0, 0.5, 2.0**-40, 1e-12])
@pytest.mark.parametrize("n", [512, 2048, 2100])
def test_log_tails_match_matrix_route(n, u):
    lt = signed_indicator_sum_log_tails(n, u)
    assert lt.shape == (n,)
    assert np.all(lt <= 0.0)
    assert np.all(np.diff(lt) <= 1e-12)
    # the 2^(1-n) u^n corner stays in log space
    assert lt[-1] == pytest.approx((1 - n) * LN2 + n * math.log(u), rel=1e-12)
    assert np.max(np.abs(lt - matrix_route_log_tails(n, u))) <= 1e-9


def test_walk_layers_consistent_with_tails():
    values, log_tails = walk_abs_layers(12)
    assert np.all(np.diff(values) < 0)
    assert np.all(log_tails <= 0.0)
    for v, lt in zip(values, log_tails):
        assert lt == pytest.approx(math.log(float(folded_walk_tail(12, int(v)))), rel=1e-12)


def test_walk_layers_deep_tail():
    values, log_tails = walk_abs_layers(2**14)
    assert values[0] == 2**14
    assert log_tails[0] == pytest.approx((1 - 2**14) * LN2, rel=1e-12)


@functools.lru_cache(maxsize=None)
def _running_binomial_tails(k):
    """P(|W_k| >= k - 2j) for j = 0..k//2 at 40 digits, summing the running binomial
    C(k, j + 1) = C(k, j) (k - j) / (j + 1); ``mpmath.binomial`` is off at 40 digits."""
    with mpmath.workdps(40):
        c, total, tails = mpmath.mpf(1), mpmath.mpf(0), []
        half_row = mpmath.mpf(2) ** (1 - k)
        for j in range(k // 2 + 1):
            total += c
            tails.append(min(total * half_row, mpmath.mpf(1)))  # the value 0 holds all
            c = c * (k - j) / (j + 1)
        return tails


# The walk law is built from differences of log-factorials near k log k, whose
# rounding its log-tails keep.  Largest error |log-tail - oracle| / max(1, |oracle|)
# measured: 6.2e-13 at k = 1000 and 2.8e-12 at k = 4096 (1.1e-12 and 4.5e-12
# absolute in the bulk, log-tail > -60).  The k = 12 check's rel 1e-12 does not
# hold at 4096.
_WALK_TOL = {1000: 2e-12, 4096: 1e-11}


@pytest.mark.parametrize("k", sorted(_WALK_TOL))
def test_walk_layers_match_running_binomial(k):
    values, log_tails = walk_abs_layers(k)
    assert np.array_equal(values, np.arange(k, -1, -2, dtype=float))
    with mpmath.workdps(40):
        want = np.array([float(mpmath.log(t)) for t in _running_binomial_tails(k)])
    assert np.max(np.abs(log_tails - want) / np.maximum(1.0, np.abs(want))) <= _WALK_TOL[k]


# Relative errors measured: 2.8e-13 at k = 1000 and 1.24e-12 at k = 4096, in both.
_WALK_NORM_TOL = {1000: 1e-12, 4096: 5e-12}


@pytest.mark.parametrize("space", [Lorentz(power(0.5)), Lpq(2.0, 1.0)], ids=["lorentz", "lpq"])
@pytest.mark.parametrize("k", sorted(_WALK_NORM_TOL))
def test_walk_norms_match_running_binomial(k, space):
    # Lorentz power:0.5 and L_{2,1} are the same norm here: the sum over layers of
    # v_i (sqrt T_i - sqrt T_(i-1)), T the tail at v_i and T_(-1) = 0
    with mpmath.workdps(40):
        roots = [mpmath.sqrt(t) for t in _running_binomial_tails(k)]
        want = float(mpmath.fsum((k - 2 * j) * (r - before)
                                 for j, (r, before) in enumerate(zip(roots, [0, *roots]))))
    assert rademacher_sum_norm(k, space) == pytest.approx(want, rel=_WALK_NORM_TOL[k])


# lpq:P:P is the L_P norm, so the walk's moments E W_k^2 = k and E W_k^4 = 3k^2 - 2k
# are exact at every size.  The walk layers form each log P(W_k = k - 2j) as a
# difference of log-factorials, which keeps the absolute rounding of log k! (its
# ulp is 1.9e-9 at k = 2^20): that error, not the pricing, is why these bounds are
# no tighter.  Largest relative errors measured: 1.2e-12 up to 2^12 steps and
# 1.4e-10 from 2^16 to 2^20.
_MOMENT_TOL = {2**10: 1e-11, 2**12: 1e-11, 2**16: 1e-9, 2**18: 1e-9, 2**20: 1e-9}


@pytest.mark.parametrize("k", sorted(_MOMENT_TOL))
def test_walk_norms_match_the_moments(k):
    tol = _MOMENT_TOL[k]
    assert rademacher_sum_norm(k, Lpq(2.0, 2.0)) == pytest.approx(math.sqrt(k), rel=tol)
    assert rademacher_sum_norm(k, Lpq(4.0, 4.0)) == pytest.approx((3 * k * k - 2 * k) ** 0.25, rel=tol)


@pytest.mark.parametrize("k", sorted(_MOMENT_TOL))
def test_two_cores_price_the_walk_alike(k):
    # L_{2,1} and Lorentz power:0.5 are one norm priced by two cores; they agree
    # within 8.9e-16 relative on these laws
    lpq, lorentz = rademacher_sum_norm(k, Lpq(2.0, 1.0)), rademacher_sum_norm(k, Lorentz(power(0.5)))
    assert lpq == pytest.approx(lorentz, rel=1e-14)


# The last layer holds the whole measure: P(|W_k| >= 1) = 1 for odd k, so its
# log-tail is 0 at every size.  It reads below 0 by the log-factorial error of
# ROADMAP item 3 ("Make the walk law accurate at every n"), which shows here as
# lost mass; a gain would be clamped to 0, so the check is one-sided.  Worst
# measured: -8.4e-12 over every odd k to 4097, -2.1e-10 over 2000 odd k sampled
# to 2^16 and -4.0e-9 over 300 to 2^20.  Each band checks its ends, a k where
# the error is large and six seeded draws; its bound is about 1.5 times the worst.
_UNIT_MASS_BANDS = [(1, 4097, 3149, 1.2e-11), (4099, 2**16, 60805, 3e-10),
                    (2**16 + 1, 2**20, 886561, 6e-9)]


@pytest.mark.parametrize("lo, hi, worst, tol", _UNIT_MASS_BANDS)
def test_walk_layers_hold_unit_mass(lo, hi, worst, tol):
    rng = random.Random(f"unit mass to {hi}")
    odd = [worst, lo, hi - 1 + hi % 2, *(rng.randrange(lo, hi + 1, 2) for _ in range(6))]
    for k in odd:
        values, log_tails = walk_abs_layers(k)
        assert values[-1] == 1.0 and -tol <= log_tails[-1] <= 0.0, (k, log_tails[-1])
        values, log_tails = walk_abs_layers(k + 1)  # the value 0 carries the measure
        assert (values[-1], log_tails[-1]) == (0.0, 0.0), k + 1


def _walk_abs_layers_full(k):
    """The former walk layers, kept as the oracle: the whole row of k + 1 entries."""
    if k == 0:
        return np.asarray([0.0]), np.asarray([0.0])
    lf = log_factorial(np.arange(k + 1, dtype=float))
    row = lf[k] - lf
    row -= lf[::-1]
    row -= k * LN2
    values = np.arange(k, -1 if k % 2 == 0 else 0, -2, dtype=float)
    H = np.logaddexp.accumulate(row)
    log_tails = np.empty(values.size)
    pos = values > 0
    log_tails[pos] = LN2 + H[((k - values[pos].astype(int)) // 2)]
    log_tails[~pos] = 0.0
    return values, np.minimum(log_tails, 0.0)


def _assert_walk_matches_full_row(k):
    values, log_tails = walk_abs_layers(k)
    want_values, want_log_tails = _walk_abs_layers_full(k)
    assert np.array_equal(values, want_values), k
    assert np.array_equal(log_tails, want_log_tails), k


# k for which the half row (k // 2 + 1 entries) has one, two or three chunks,
# give or take one entry, of either parity; then the largest walks of the CLI
_CHUNK_EDGE_KS = sorted(
    {2 * (m * _ROW_CHUNK + d - 1) + odd for m in (1, 2) for d in (-1, 0, 1) for odd in (0, 1)}
    | {2**20 - 1, 2**20}
)


def test_walk_layers_match_full_row_small():
    for k in range(301):
        _assert_walk_matches_full_row(k)


@pytest.mark.parametrize("k", _CHUNK_EDGE_KS)
def test_walk_layers_match_full_row_at_chunk_edges(k):
    _assert_walk_matches_full_row(k)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**18))
def test_walk_layers_match_full_row_drawn(k):
    _assert_walk_matches_full_row(k)


def test_walk_layers_memory_is_the_result(traced_peak):
    # the result is 2 * 8 * (2^19 + 1) bytes, 8 MiB; the full row held 37 MiB
    assert traced_peak(walk_abs_layers, 2**20) < 16 * 2**20


def test_expectation_strictly_below_mean_of_absolute_sum():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        u = float(rng.uniform(0.05, 1.0))
        e = signed_indicator_sum_expectation(n, u)
        assert 0.0 < e < n * u


def test_expectation_exact_small():
    # E|S_n| = sum_{s>=1} P(|S_n| >= s), the tails of the polynomial expansion
    for u in EXACT_US:
        for n, tails in exact_abs_tails(EXACT_MAX_STEPS, u).items():
            got = signed_indicator_sum_expectation(n, u)
            assert isinstance(got, Fraction)
            assert got == sum(tails), (n, u)


def test_validation():
    with pytest.raises(ValueError):
        signed_indicator_sum_tail(0, Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        signed_indicator_sum_tail(4, Fraction(3, 2), 1)
    with pytest.raises(ValueError):
        signed_indicator_sum_tail(4, Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        signed_indicator_sum_tail(4, Fraction(1, 2), 5)
    with pytest.raises(ValueError):
        walk_abs_layers(-1)


def test_distribution_to_step_function():
    f = walk_distribution(2)
    assert f.is_exact
    assert list(f.breakpoints) == [0, Fraction(1, 2), 1]
    assert list(f.values) == [2, 0]
    g = walk_distribution(3)
    assert list(g.breakpoints) == [0, Fraction(1, 4), 1]
    assert list(g.values) == [3, 1]
    assert walk_distribution(0) == StepFunction([0, 1], [0])
