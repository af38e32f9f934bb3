import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from rispaces import (
    Lpq,
    SamplerSpec,
    classify,
    erfc_inverse,
    erfc_inverse_log,
    exp_lp,
    fit_growth,
    gauss,
    gaussian_selfsimilarity_check,
    growth_table,
    inv_sqrt_log,
    kruglov_check,
    limsup_dilation_ratio,
    limsup_power_ratio,
    limsup_tail_sum_ratio,
    logpow,
    lorentz_operator_norm,
    mc_iid_sum_norm,
    power,
    quantile_from_samples,
    rademacher_sum_norm,
    signed_indicator_sum_log_tails,
    signed_indicator_sum_tail,
    sup_indicator_ratio,
    table,
    upper_tail,
    walk_abs_layers,
    walk_distribution,
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


# ----------------------------------------------------------------- elementwise


def _log_t(rng, n):
    return -rng.exponential(300.0, n)  # log t <= 0, a tenth of it below -667


def _gaussian_z(rng, n):
    return np.where(rng.random(n) < 0.5, rng.uniform(0.01, 1.99, n),
                    np.exp(rng.uniform(-700.0, -5.0, n)))


_GENERATORS = [power(0.5), logpow(2.0), inv_sqrt_log(), gauss(),
               table([(0.25, 0.5), (0.5, 0.7), (1.0, 1.0)])]
# every function that _numeric.elementwise serves, with a draw from its domain
_SERVED = {
    "upper_tail": (upper_tail, lambda rng, n: rng.uniform(-30.0, 30.0, n)),
    "erfc_inverse": (erfc_inverse, _gaussian_z),
    "erfc_inverse_log": (erfc_inverse_log, lambda rng, n: rng.uniform(-2000.0, 0.5, n)),
    "log_factorial": (log_factorial, lambda rng, n: np.floor(rng.uniform(0.0, 40.0, n))),
    **{f"exp_lp({p}).log_fn": (exp_lp(p).log_fn, lambda rng, n: rng.uniform(0.0, 8.0, n))
       for p in (1, 2)},
    **{f"{g.label}.log_eval": (g.log_eval, _log_t) for g in _GENERATORS},
    **{g.label: (g, lambda rng, n: np.exp(-rng.exponential(30.0, n))) for g in _GENERATORS},
}


@pytest.mark.parametrize("name", list(_SERVED))
def test_elementwise_results_do_not_depend_on_the_chunk(monkeypatch, name):
    f, draw = _SERVED[name]
    rng = np.random.default_rng(36)
    scalar = float(draw(rng, 1)[0])
    arrays = [np.asarray(scalar), *(draw(rng, n) for n in (0, 1, 7, 8, 50)),
              draw(rng, 54).reshape(6, 9), draw(rng, 54).reshape(9, 6).T]  # and a strided view
    whole = [f(a) for a in arrays]
    assert type(f(scalar)) is float and type(whole[0]) is float
    monkeypatch.setattr("rispaces._numeric.CHUNK", 7)
    assert repr(f(scalar)) == repr(whole[0])
    for a, want in zip(arrays[1:], whole[1:]):
        got = f(a)
        assert got.shape == a.shape and got.tobytes() == want.tobytes(), a.shape
        assert not np.may_share_memory(got, a)


def test_log_eval_on_the_walk_log_tails_holds_chunk_sized_temporaries(traced_peak):
    # the 2^19 + 1 log-tails of the 2^20-step walk, 4 MiB: 8.00 MiB on whole arrays
    lT = walk_abs_layers(2**20)[1]
    assert traced_peak(logpow(2.0).log_eval, lT) <= 5 * 2**20


def test_log_factorial_holds_chunk_sized_temporaries(traced_peak):
    # 2^19 entries, 4 MiB: 12.50 MiB on whole arrays
    assert traced_peak(log_factorial, np.arange(2.0**19)) <= 5 * 2**20


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


# --------------------------------------------------------------------- integer

_PSI, _SPACE = power(0.5), Lpq(2.0, 1.0)
_N = "^n must be a positive integer$"
_K = "^dilation factor k must be an integer >= 2$"
_L = "^power l must be an integer >= 2$"

# (call, low, anchored message, a valid argument): every integer argument of the
# package, each call taking it as its one free argument.  Results that hold
# arrays are read as lists so that == and repr compare them exactly.
_INTEGER_SITES = [
    (lambda n: rademacher_sum_norm(n, _SPACE), 1, _N, 100),
    (lambda n: sup_indicator_ratio(_PSI, n), 1, _N, 4),
    (lambda n: lorentz_operator_norm(_PSI, n), 1, _N, 4),
    (lambda n: signed_indicator_sum_log_tails(n, 0.5).tolist(), 1, _N, 8),
    (lambda n: limsup_tail_sum_ratio(_PSI, n), 1, _N, 4),
    (lambda n: mc_iid_sum_norm(SamplerSpec("rademacher"), n, _SPACE, trials=1000, m=256), 1,
     _N, 4),
    (gaussian_selfsimilarity_check, 1, _N, 2),
    (walk_distribution, 0, "^step count must be nonnegative$", 64),
    (lambda k: [a.tolist() for a in walk_abs_layers(k)], 0,
     "^step count must be nonnegative$", 65),
    (lambda s: signed_indicator_sum_tail(4, Fraction(1, 2), s), 1,
     "^level s must satisfy 1 <= s <= n$", 2),
    (lambda k: limsup_dilation_ratio(_PSI, k), 2, _K, 2),
    (lambda l: limsup_power_ratio(_PSI, l), 2, _L, 2),
    (lambda j: limsup_power_ratio(_PSI, 2, j), 1, r"^need j_max >= 1, got \S+$", 30),
    (lambda j: sup_indicator_ratio(_PSI, 4, j_max=j), 0, "^j_max must be nonnegative$", 3),
    (lambda N: kruglov_check(_PSI, num_terms=N), 4,
     "^num_terms must allow an N/4 checkpoint$", 64),
    (lambda n: classify(_PSI, n_list=(n,)), 1, _N, 2),
    (lambda s: SamplerSpec("rademacher", seed=s), 0,
     r"^seed must be a non-negative integer, got \S+$", 3),
    (lambda t: mc_iid_sum_norm(SamplerSpec("rademacher"), 4, _SPACE, trials=t, m=256),
     1000, "^need trials >= 1000$", 1000),
    (lambda m: mc_iid_sum_norm(SamplerSpec("rademacher"), 4, _SPACE, trials=1000, m=m),
     256, "^need m >= 256 quantile pieces$", 256),
    (lambda g: gaussian_selfsimilarity_check(2, grid_size=g), 2**10,
     r"^grid_size \S+ cannot resolve the tails; need >= 1024$", 2**10),
    (lambda n: growth_table(_SPACE, [n, 8, 16, 32]), 1, "^sizes must be positive$", 2),
    (lambda n: fit_growth([(n, 1.0), (8, 2.0), (16, 3.0), (32, 4.0)]), 1, _N, 2),
    (lambda m: quantile_from_samples([3.0, -1.0, 2.0], m), 1, "^need at least one piece$", 2),
]


def test_sizes_take_any_integer_but_bool():
    # the exact route takes 2^64-sized powers of n, which an int64 would wrap
    half = Fraction(1, 2)
    assert signed_indicator_sum_tail(np.int64(64), half, 3) == signed_indicator_sum_tail(64, half, 3)
    for call, low, message, valid in _INTEGER_SITES:
        # a NumPy integer gives the int result exactly: same values, and any
        # integer the result keeps is an int (repr shows an np.int64)
        got, want = call(np.int64(valid)), call(valid)
        assert got == want and repr(got) == repr(want), message
        for bad in (True, 2.5, "3", np.float64(3.0), low - 1, low + 0.5, float(low), np.float64(low)):
            with pytest.raises(ValueError, match=message):
                call(bad)
