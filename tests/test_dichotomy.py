import math

import numpy as np
import pytest

from rispaces import (
    DEFAULT_KRUGLOV_T_GRID,
    classify,
    indicator_ratio,
    indicator_ratio_small_u_limit,
    inv_sqrt_log,
    kruglov_check,
    kruglov_series,
    logpow,
    lorentz_operator_norm,
    power,
    sup_indicator_ratio,
)

SQRT_8_3 = math.sqrt(8.0 / 3.0)


def test_indicator_ratio_anchors():
    p1 = power(1.0)
    assert indicator_ratio(p1, 2, 1.0) == pytest.approx(0.5, rel=1e-13)
    assert indicator_ratio(p1, 2, 0.5) == pytest.approx(0.75, rel=1e-13)
    for psi in (p1, power(0.5), inv_sqrt_log()):
        for u in (1e-6, 0.3, 1.0):
            assert indicator_ratio(psi, 1, u) == pytest.approx(1.0, rel=1e-13)


def test_indicator_ratio_in_unit_interval():
    rng = np.random.default_rng(17)
    for psi in (power(1.0), power(0.5), logpow(2.0), inv_sqrt_log()):
        for _ in range(50):
            n = int(rng.integers(1, 65))
            u = float(np.exp(rng.uniform(np.log(1e-12), 0.0)))
            g = indicator_ratio(psi, n, u)
            assert 0.0 < g <= 1.0 + 1e-12


def test_small_u_limit():
    # for psi = sqrt(t) the one-active-summand regime gives n^(-1/2)
    est = indicator_ratio_small_u_limit(power(0.5), 4)
    assert est.converged
    assert est.value == pytest.approx(0.5, abs=1e-6)
    est16 = indicator_ratio_small_u_limit(power(0.5), 16)
    assert est16.value == pytest.approx(0.25, abs=1e-6)


def test_sup_ratio_saturates_for_linear_generator():
    for n in (2, 8, 32):
        s = sup_indicator_ratio(power(1.0), n)
        assert s >= 1.0 - 1e-3
        assert s <= 1.0


def test_sup_ratio_frozen_value():
    assert sup_indicator_ratio(power(0.5), 64) == pytest.approx(
        0.16268568372813239, abs=1e-9
    )


def test_operator_norm_closed_form_n2():
    # sup_u [sqrt(2 - 3u/2)/2 + sqrt(u/8)] peaks at u = 1/3 with value sqrt(2/3)
    assert lorentz_operator_norm(power(0.5), 2) == pytest.approx(SQRT_8_3, abs=1e-9)


def test_operator_norms_monotone_and_dominated():
    psi = power(0.5)
    vals = [lorentz_operator_norm(psi, n) for n in (1, 2, 4, 8, 16)]
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    for n, v in zip((1, 2, 4, 8, 16), vals):
        assert v <= n * (1 + 1e-9)


def test_classify_linear_generator_keeps_full_norm():
    rep = classify(power(1.0))
    assert rep.branch == "NormEqualsN"
    assert rep.failing_condition == "first"
    assert not rep.inconclusive
    assert all(e.converged for e in rep.a_estimates.values())
    # dilation ratios sit exactly at k, never strictly below
    for k, est in rep.a_estimates.items():
        assert est.value == pytest.approx(float(k), abs=1e-6)


def test_classify_power_half():
    rep = classify(power(0.5))
    assert rep.branch == "PowerBound"
    assert not rep.inconclusive
    assert rep.witness_n0 == 2
    assert 0.5 <= rep.q < 1.0
    assert rep.q == pytest.approx(math.log(SQRT_8_3) / math.log(2.0), abs=1e-9)
    expect_C = (math.sqrt(2.0) + 1.0) * 2.0**rep.q * max(
        rep.opnorms[1], rep.opnorms[2]
    )
    assert rep.C == pytest.approx(expect_C, rel=1e-12)
    assert rep.C == pytest.approx(6.437902832994921, abs=1e-6)


def test_classify_slowly_varying_generator():
    rep = classify(inv_sqrt_log())
    assert rep.branch == "PowerBound"
    assert not rep.inconclusive
    assert rep.witness_n0 == 2
    assert 0.5 <= rep.q < 1.0
    assert rep.q == pytest.approx(0.8946033911057034, abs=1e-9)
    assert rep.C == pytest.approx(8.344121037687275, abs=1e-6)


def test_classify_zero_margin_falls_back_on_norm_measurement():
    # without the margin, float noise lets a(2) = 2 - 1e-13 pass the strict
    # test; the witness hunt then finds no n with ||A_n|| < n and refuses to
    # certify constants instead of fabricating them
    rep = classify(power(1.0), margin=0.0)
    assert rep.branch == "NormEqualsN"
    assert rep.failing_condition == "norm-measurement"
    assert rep.inconclusive


def test_classify_validation():
    with pytest.raises(ValueError):
        classify(power(1.0), k_list=())
    for margin in (math.nan, math.inf, -1e-3, 1.0):
        with pytest.raises(ValueError, match="margin"):
            classify(power(0.5), margin=margin)


def test_kruglov_check_threshold_validation():
    for threshold in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="threshold"):
            kruglov_check(power(1.0), t_grid=(1.0,), threshold=threshold)


def test_kruglov_check_inconclusive():
    # N = 8: the N/4 partial sum is 1 + 1/2, the N sum is sum_{n <= 8} 1/n!
    v = kruglov_check(power(1.0), t_grid=(1.0,), num_terms=8, threshold=1e9)
    assert v.inconclusive and not v.finite
    assert v.sup_value == pytest.approx(math.fsum(1 / math.factorial(n) for n in range(1, 9)),
                                        rel=1e-14)
    assert v.N_used == 8 and v.t_argmax == 1.0


def test_kruglov_series_anchors():
    assert kruglov_series(power(1.0), 1.0, 30) == pytest.approx(math.e - 1.0, abs=1e-12)
    assert kruglov_series(power(0.5), 1.0, 30) == pytest.approx(2.469506314521048, abs=1e-9)
    # the slowly varying generator accumulates two digits within 1e4 terms
    assert kruglov_series(inv_sqrt_log(), math.exp(-1.5), 10**4) > 10.0
    with pytest.raises(ValueError):
        kruglov_series(power(1.0), 1.5, 10)
    with pytest.raises(ValueError):
        kruglov_series(power(1.0), 0.5, 0)


def test_kruglov_check_linear_generator_finite():
    v = kruglov_check(power(1.0))
    assert v.finite and not v.inconclusive
    assert v.sup_value == pytest.approx(math.e - 1.0, abs=1e-6)
    assert v.t_argmax == 1.0


def test_kruglov_check_power_half_finite():
    v = kruglov_check(power(0.5))
    assert v.finite
    assert v.sup_value == pytest.approx(2.469506314521048, abs=1e-6)
    assert v.t_argmax == 1.0


def test_kruglov_check_slowly_varying_divergent():
    v = kruglov_check(inv_sqrt_log())
    assert not v.finite and not v.inconclusive
    assert math.isinf(v.sup_value)
    assert v.N_used < 10**6
    assert v.t_argmax == pytest.approx(0.01)


def test_default_t_grid_probes_deep():
    assert min(DEFAULT_KRUGLOV_T_GRID) <= 1e-300
    assert max(DEFAULT_KRUGLOV_T_GRID) == 1.0
