import math

import numpy as np
import pytest
from scipy.integrate import quad

from rispaces import (
    ConcaveGenerator,
    DEFAULT_GRID,
    GridConfig,
    chained_power_ratio_bound,
    erfc_inverse,
    gauss,
    inv_sqrt_log,
    limsup_dilation_ratio,
    limsup_power_ratio,
    limsup_tail_sum_ratio,
    logpow,
    parse_generator,
    power,
    table,
    table_from_csv,
)


def test_builtins_validate():
    for psi in (power(1.0), power(0.5), logpow(1.0), logpow(2.0), inv_sqrt_log(), gauss()):
        psi.validate()


def test_validate_rejects_non_concave():
    bad = ConcaveGenerator(lambda t: np.asarray(t) ** 2, log_fn=lambda lt: 2.0 * lt,
                           label="square")
    with pytest.raises(ValueError, match="midpoint concavity"):
        bad.validate()


def test_validate_rejects_not_vanishing():
    bad = ConcaveGenerator(lambda t: 0.5 + np.asarray(t), log_fn=lambda lt: np.log(0.5 + np.exp(lt)),
                           label="half-plus-t")
    # 40 octaves keep 0.5 + 2^-j strictly increasing in floats, so the vanishing check decides
    with pytest.raises(ValueError, match="does not vanish"):
        bad.validate(j_max=40)


def test_power_values():
    psi = power(0.5)
    assert psi(0.25) == pytest.approx(0.5, abs=1e-15)
    assert psi.log_eval(-100.0) == pytest.approx(-50.0, abs=1e-12)
    with pytest.raises(ValueError):
        power(0.0)
    with pytest.raises(ValueError):
        power(1.5)


def test_logpow_values():
    psi = logpow(1.0)
    # t * log(e/t) at t = 1/e is 2/e
    assert psi(math.exp(-1)) == pytest.approx(2 * math.exp(-1), rel=1e-14)
    assert logpow(2.0)(1.0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        logpow(0.5)


def test_inv_sqrt_log_values():
    psi = inv_sqrt_log()
    assert psi(math.exp(-4.0)) == pytest.approx(0.5, rel=1e-13)
    assert psi(math.exp(-1.5)) == pytest.approx(1.5**-0.5, rel=1e-13)
    # log-side evaluation far below float range
    assert psi.log_eval(-1e6) == pytest.approx(-0.5 * math.log(1e6), rel=1e-12)


def test_gauss_matches_quantile_integral():
    psi = gauss()
    assert psi(1.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    for t in (0.9, 0.5, 0.1, 1e-3):
        integral, err = quad(lambda s: float(erfc_inverse(s)), 0.0, t)
        assert abs(psi(t) - integral) <= 1e-10


def test_table_generator():
    psi = table([(0.25, 0.5), (1.0, 1.0)], label="ramp")
    psi.validate()
    assert psi(0.125) == pytest.approx(0.25, rel=1e-14)
    assert psi(0.25) == pytest.approx(0.5, rel=1e-14)
    assert psi(0.5) == pytest.approx(0.5 + 0.25 * 2 / 3, rel=1e-14)
    # below the first node the extension is linear, so log-linear
    assert psi.log_eval(-700.0) == pytest.approx(math.log(2.0) - 700.0, rel=1e-12)


def test_table_extends_past_last_node_with_final_slope():
    psi = table([(0.25, 0.5), (0.5, 0.75)])
    psi.validate()
    assert psi(0.75) == pytest.approx(1.0, rel=1e-15)
    assert psi(1.0) == pytest.approx(1.25, rel=1e-15)
    assert psi.log_eval(math.log(0.75)) == pytest.approx(0.0, abs=1e-15)


def test_table_rejects_increasing_slopes():
    with pytest.raises(ValueError):
        table([(0.5, 0.25), (1.0, 1.0)])


def test_table_csv_round_trip(tmp_path):
    p = tmp_path / "gen.csv"
    p.write_text("0.25,0.5\n1.0,1.0\n")
    psi = table_from_csv(str(p))
    assert psi(0.125) == pytest.approx(0.25, rel=1e-14)


def test_parse_generator_tokens():
    assert parse_generator("power:0.5")(0.25) == pytest.approx(0.5)
    assert parse_generator("logpow:2")(1.0) == pytest.approx(1.0)
    assert parse_generator("example7")(math.exp(-4.0)) == pytest.approx(0.5)
    assert parse_generator("invsqrtlog")(math.exp(-4.0)) == pytest.approx(0.5)
    assert parse_generator("gauss")(1.0) == pytest.approx(1.0 / math.sqrt(math.pi))
    with pytest.raises(ValueError, match="nope"):
        parse_generator("nope")


def test_dilation_ratio_power():
    for k in (2, 3, 4):
        est = limsup_dilation_ratio(power(1.0), k)
        assert est.converged
        assert est.value == pytest.approx(float(k), abs=1e-9)
    est = limsup_dilation_ratio(power(0.5), 2)
    assert est.converged
    assert est.value == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_dilation_ratio_slowly_varying_needs_deep_grid():
    psi = inv_sqrt_log()
    shallow = limsup_dilation_ratio(psi, 2, DEFAULT_GRID)
    assert not shallow.converged
    deep = limsup_dilation_ratio(psi, 2, GridConfig(j_min=1, j_max=2000, window=10, tol=1e-3))
    assert deep.converged
    assert deep.value == pytest.approx(1.0002512247244757, abs=1e-9)
    assert deep.value == pytest.approx(1.0, abs=1e-3)


def test_power_ratio():
    est = limsup_power_ratio(inv_sqrt_log(), 2)
    assert est.converged
    assert est.value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
    est3 = limsup_power_ratio(inv_sqrt_log(), 3)
    assert est3.value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)
    # power generators collapse to zero (grid floor ~ 2^(-j/2))
    assert limsup_power_ratio(power(0.5), 2).value == pytest.approx(0.0, abs=1e-6)


def test_tail_sum_ratio():
    est = limsup_tail_sum_ratio(power(1.0), 2)
    assert est.converged
    assert est.value == pytest.approx(2.0, abs=1e-9)
    est4 = limsup_tail_sum_ratio(power(0.5), 4)
    assert est4.value / 4.0 == pytest.approx(0.5, abs=1e-6)


def test_chained_power_ratio_bound():
    assert chained_power_ratio_bound(0.5, 8, 2) == pytest.approx(0.25, rel=1e-14)
    assert chained_power_ratio_bound(0.7, 9, 3) == pytest.approx(0.7, rel=1e-14)


def test_grid_too_shallow_rejected():
    with pytest.raises(ValueError):
        limsup_dilation_ratio(power(1.0), 2, GridConfig(j_min=1, j_max=5, window=10, tol=1e-3))


