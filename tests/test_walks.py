import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from rispaces import (
    EXACT_MAX_STEPS,
    StepFunction,
    signed_indicator_sum_expectation,
    signed_indicator_sum_log_tails,
    signed_indicator_sum_tail,
    signed_indicator_sum_tail_leading,
    walk_abs_layers,
    walk_distribution,
)
from rispaces.walks import _abs_tail_fractions

LN2 = math.log(2.0)


def enumerated_abs_tails(n, u):
    """Brute force over all 3^n outcomes of n signed indicators."""
    atom = [(1, u / 2), (-1, u / 2), (0, 1 - u)]
    law = {}
    for outcome in itertools.product(atom, repeat=n):
        s = abs(sum(v for v, _ in outcome))
        p = math.prod((q for _, q in outcome), start=Fraction(1))
        law[s] = law.get(s, Fraction(0)) + p
    return {
        s: sum((p for v, p in law.items() if v >= s), Fraction(0))
        for s in range(1, n + 1)
    }


@pytest.mark.parametrize("u", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_signed_sum_tails_match_enumeration(n, u):
    oracle = enumerated_abs_tails(n, u)
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


def test_walk_tail_anchors():
    assert _abs_tail_fractions(4)[2] == Fraction(5, 8)
    assert _abs_tail_fractions(5)[5] == Fraction(1, 16)
    assert _abs_tail_fractions(2)[1] == Fraction(1, 2)
    assert _abs_tail_fractions(3)[1] == 1


def test_signed_sum_tail_anchors():
    assert signed_indicator_sum_tail(2, Fraction(1, 2), 1) == Fraction(5, 8)
    assert signed_indicator_sum_tail(2, Fraction(1, 2), 2) == Fraction(1, 8)


def test_extreme_tail_identity():
    # P(|S_n| >= n) = 2^(1-n) u^n: all variables active with aligned signs
    for n in range(1, 21):
        for u in (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
            expect = Fraction(2, 2**n) * u**n
            assert signed_indicator_sum_tail(n, u, n) == expect
            assert signed_indicator_sum_tail_leading(n, u, n) == expect


def test_leading_term_float_path_matches_exact():
    for n in (1, 2, 7, 30, 64):
        for u in (Fraction(1, 1000), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(1)):
            for s in range(1, n + 1):
                exact = float(signed_indicator_sum_tail_leading(n, u, s))
                got = signed_indicator_sum_tail_leading(n, float(u), s)
                assert isinstance(got, float)
                assert got == pytest.approx(exact, rel=1e-13)


def test_u_equal_one_reduces_to_walk():
    for s in range(1, 7):
        assert signed_indicator_sum_tail(6, Fraction(1), s) == _abs_tail_fractions(6)[s]


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


def log_fraction(x):
    return math.log(x.numerator) - math.log(x.denominator)


@pytest.mark.parametrize("u", [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 1000)])
def test_log_tails_match_exact_law(u):
    for n, tails in exact_abs_tails(64, u).items():
        got = signed_indicator_sum_log_tails(n, float(u))
        want = np.asarray([log_fraction(t) for t in tails])
        assert np.max(np.abs(got - want)) <= 1e-12, n


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
        assert lt == pytest.approx(math.log(float(_abs_tail_fractions(12)[int(v)])), rel=1e-12)


def test_walk_layers_deep_tail():
    values, log_tails = walk_abs_layers(2**14)
    assert values[0] == 2**14
    assert log_tails[0] == pytest.approx((1 - 2**14) * LN2, rel=1e-12)


def test_expectation_strictly_below_mean_of_absolute_sum():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        u = float(rng.uniform(0.05, 1.0))
        e = signed_indicator_sum_expectation(n, u)
        assert 0.0 < e < n * u


def test_expectation_exact_small():
    # n=1: E|S| = u; n=2: E|S| = 2u(1-u) + u^2/2 + 2 * u^2/4... enumerate
    for n in (1, 2, 3):
        u = Fraction(1, 3)
        law = enumerated_abs_tails(n, u)
        expect = sum(law.values())  # sum_{s>=1} P(|S| >= s) = E|S|
        got = signed_indicator_sum_expectation(n, u)
        assert got == pytest.approx(float(expect), rel=1e-12)


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
    assert walk_distribution(0) == StepFunction.constant(0)
