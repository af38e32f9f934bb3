import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from rispaces import (
    ConcaveGenerator,
    GridConfig,
    erfc_inverse,
    erfc_inverse_log,
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
    upper_tail,
    walk_abs_layers,
)
from rispaces._numeric import elementwise
from rispaces.gaussian import _erfcinv, _log_erfc_asymptotic
from test_cli import _sqrt_nodes


def _validate(psi, j_max=60, tol=1e-12):
    """Grid checks of a generator's structural invariants; raises ValueError."""
    u = np.exp2(-np.arange(0, j_max + 1, dtype=float))
    vals = psi(u)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
        raise ValueError(f"{psi.label}: values must be finite and positive on (0, 1]")
    if not np.all(np.diff(vals) < 0):
        raise ValueError(f"{psi.label}: not increasing on the geometric grid")
    # Vanishing at 0+, probed far below float range through log_eval.
    deep = psi.log_eval(-1.0e9)
    if not deep < math.log(vals[0]) - 2.0:
        raise ValueError(f"{psi.label}: does not vanish at 0+")
    # Midpoint concavity between adjacent grid points.
    mid = (u[:-1] + u[1:]) / 2.0
    lhs = psi(mid)
    rhs = (vals[:-1] + vals[1:]) / 2.0
    if np.any(lhs < rhs - tol * np.maximum(1.0, np.abs(rhs))):
        raise ValueError(f"{psi.label}: midpoint concavity fails on the grid")
    # Sublinearity psi(u/m) >= psi(u)/m.
    for m in (2, 3, 10, 1000):
        shrunk = psi(u / m)
        if np.any(m * shrunk < vals * (1.0 - 1e-12)):
            raise ValueError(f"{psi.label}: sublinearity fails for m={m}")


def test_builtins_validate():
    for psi in (power(1.0), power(0.5), logpow(1.0), logpow(2.0), inv_sqrt_log(), gauss()):
        _validate(psi)


@pytest.mark.parametrize(
    "psi",
    [power(1.0), power(0.5), logpow(1.0), logpow(2.0), inv_sqrt_log(), gauss(),
     table([(0.1, 0.3), (0.5, 0.8), (1.0, 1.0)])],
    ids=lambda psi: psi.label,
)
def test_evaluations_keep_scalars_and_shapes(psi):
    # t on both sides of the inv_sqrt_log switch and of the first table node
    t = np.array([[0.01, 0.125, 0.2], [0.5, 0.9, 1.0]])
    for evaluate, x in ((psi, t), (psi.log_eval, np.log(t))):
        whole = evaluate(x)
        assert isinstance(whole, np.ndarray) and whole.dtype == float
        for index in ((0, 1), (1, 2)):
            scalar = evaluate(float(x[index]))
            assert isinstance(scalar, float)
            assert scalar == pytest.approx(whole[index], rel=1e-15)
            assert np.shape(evaluate(np.array(x[index]))) == ()
        row = evaluate(x[1])
        assert row.shape == (3,)
        np.testing.assert_allclose(row, whole[1], rtol=1e-15)
        assert evaluate(x.T).shape == (3, 2)


def test_upper_tail_is_the_two_sided_gaussian_tail():
    # P(|N(0, 1/2)| > x) = erfc(x), against mpmath at 50 digits
    for x in (0.0, 1e-8, 0.3, 1.0, 2.5, 6.0, 26.0):
        with mpmath.workdps(50):
            want = float(mpmath.erfc(x))
        assert float(upper_tail(x)) == pytest.approx(want, rel=1e-14)
    np.testing.assert_array_equal(upper_tail(np.array([0.3, 1.0])),
                                  [upper_tail(0.3), upper_tail(1.0)])


def test_erfc_and_erfcinv_are_scipys_bit_for_bit():
    # The Cephes ports against SciPy's builds of the same routines, compared as
    # bits: a seeded sweep of every branch, their edges, and the lattice edges
    # of the self-similarity check.
    from scipy import special

    rng = np.random.default_rng(30)
    n = 10**5
    maxlog_edge = math.sqrt(7.09782712893383996843e2)  # 26.64: erfc underflows past it
    x = np.concatenate((
        rng.uniform(-1.0, 1.0, n),  # 1 - erf
        rng.uniform(1.0, 8.0, n),  # exp(-x^2) P / Q
        rng.uniform(8.0, maxlog_edge, n),  # exp(-x^2) R / S
        -rng.uniform(1.0, maxlog_edge, n),  # 2 - erfc(-x)
        rng.uniform(maxlog_edge, 40.0, n) * rng.choice([-1.0, 1.0], n),  # 0 and 2
        _near(maxlog_edge), -_near(maxlog_edge), _near(1.0), -_near(1.0), _near(8.0), -_near(8.0),
        [0.0, -0.0, 1e-300, 1e200, -1e200, math.inf, -math.inf],
    ))
    np.testing.assert_array_equal(upper_tail(x), special.erfc(x))
    L = float(erfc_inverse(2.0**-16))
    edges = np.linspace(-L, L, 2**16 + 1)
    np.testing.assert_array_equal(upper_tail(-edges), special.erfc(-edges))

    exp_m2 = 2.0 * math.exp(-2.0)  # ndtri's switch, doubled
    y = np.concatenate((
        rng.uniform(exp_m2, 2.0 - exp_m2, n),  # central
        np.exp(rng.uniform(-744.0, math.log(exp_m2), n)),  # lower tail, x < 8 and beyond
        2.0 - np.exp(rng.uniform(-36.0, math.log(exp_m2), n)),  # upper tail
        _near(exp_m2), _near(2.0 - exp_m2), _near(2.0 * math.exp(-32.0)),
        [5e-324, 1e-323, 2.0**-16, 1.0, 2.0 - 2.0**-52],
        # where np.log rounds one of ndtri's two logs unlike the C library's log
        [9.555288640136396e-65, 4.1552905498834145e-09, 0.12384588180890993,
         2.5677652811739437e-06],
    ))
    np.testing.assert_array_equal(elementwise(_erfcinv, y), special.erfcinv(y))


def test_validate_rejects_non_concave():
    bad = ConcaveGenerator(lambda t: np.asarray(t) ** 2, log_fn=lambda lt: 2.0 * lt,
                           label="square")
    with pytest.raises(ValueError, match="midpoint concavity"):
        _validate(bad)


@pytest.mark.parametrize(
    "fn, tol, message",
    [(lambda t: np.asarray(t) - 0.5, 1e-12, "values must be finite and positive"),
     (np.ones_like, 1e-12, "not increasing on the geometric grid"),
     # a tolerance that waives the midpoint check leaves t^2 to the sublinearity check
     (np.square, 1.0, "sublinearity fails for m=2")],
    ids=["nonpositive", "constant", "square"],
)
def test_validate_rejects_each_broken_invariant(fn, tol, message):
    bad = ConcaveGenerator(fn, log_fn=lambda lt: 2.0 * lt, label="bad")
    with pytest.raises(ValueError, match=message):
        _validate(bad, tol=tol)


def test_validate_rejects_not_vanishing():
    bad = ConcaveGenerator(lambda t: 0.5 + np.asarray(t), log_fn=lambda lt: np.log(0.5 + np.exp(lt)),
                           label="half-plus-t")
    # 40 octaves keep 0.5 + 2^-j strictly increasing in floats, so the vanishing check decides
    with pytest.raises(ValueError, match="does not vanish"):
        _validate(bad, j_max=40)


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
    for p in (0.5, float("nan")):
        with pytest.raises(ValueError, match="logpow parameter must be >= 1"):
            logpow(p)


def test_logpow_past_the_overflow_of_e_over_t():
    # e / t overflows below e / DBL_MAX ~ 1.5e-308, where log(e/t) was inf; it
    # is taken as 1 - log t there, and every larger t keeps its bits
    psi = logpow(2.0)
    tiny = np.array([1e-309, 1.4e-308, 5e-324])
    np.testing.assert_allclose(psi(tiny), tiny * np.sqrt(1.0 - np.log(tiny)), rtol=1e-15)
    assert psi(1e-309) == pytest.approx(2.6692673034658083e-308, rel=1e-15)
    normal = np.array([1.6e-308, 1e-300, 1e-3, 0.5, 1.0])
    np.testing.assert_array_equal(psi(normal), normal * np.log(np.e / normal) ** 0.5)


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


def _erfc_inverse_plain(z):
    """The Gaussian inverse as plain array expressions, before it ran in place."""
    from scipy import special

    zz = np.asarray(z, dtype=float)
    x = special.erfcinv(zz)
    safe = np.abs(x) < 26.0
    corr = np.where(
        safe,
        (special.erfc(np.where(safe, x, 0.0)) - zz)
        * (math.sqrt(math.pi) / 2.0)
        * np.exp(np.where(safe, x, 0.0) ** 2),
        0.0,
    )
    out = x + corr
    return out if zz.ndim else float(out)


def _erfc_inverse_log_plain(lz):
    """The log-argument inverse as plain array expressions, before it ran in place."""

    def log_erfc_asymptotic(x):
        ix2 = 1.0 / (x * x)
        series = 1.0 + ix2 * (-0.5 + ix2 * (0.75 - 1.875 * ix2))
        return -x * x - np.log(x * math.sqrt(math.pi)) + np.log(series)

    lzz = np.asarray(lz, dtype=float)
    out = np.empty_like(lzz)
    direct = lzz >= -667.0
    if np.any(direct):
        out[direct] = _erfc_inverse_plain(np.exp(lzz[direct]))
    deep = ~direct
    if np.any(deep):
        t = lzz[deep]
        x = np.sqrt(-t)
        for _ in range(6):
            x = x + (log_erfc_asymptotic(x) - t) / (2.0 * x)
        out[deep] = x
    return out if lzz.ndim else float(out)


def _near(x, ulps=64):
    """x and its float neighbours up to ``ulps`` steps away on either side."""
    up = down = x
    out = [x]
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.array(out)


def test_gaussian_inverses_match_plain_expressions():
    # z around erfc(26), where erfcinv crosses 26 and the polish stops; the
    # log-argument switch at -667; deep tails; and spreads over both ranges
    from scipy.special import erfc

    rng = np.random.default_rng(26)
    edge = float(erfc(26.0))
    zs = np.concatenate((
        _near(edge), _near(2.0 * edge), _near(1.0), _near(2.0 - 1e-16),
        np.exp(rng.uniform(-700.0, math.log(2.0), 4000)), np.linspace(1e-12, 2.0 - 1e-12, 999),
    ))
    zs = zs[(zs > 0.0) & (zs < 2.0)]
    np.testing.assert_array_equal(erfc_inverse(zs), _erfc_inverse_plain(zs))
    lzs = np.concatenate((
        _near(-667.0), _near(math.log(edge)), -np.geomspace(1e-300, 1e300, 3001),
        rng.uniform(-2e6, 0.69, 4000), [-(2.0**20) * math.log(2.0), -1e308],
    ))
    np.testing.assert_array_equal(erfc_inverse_log(lzs), _erfc_inverse_log_plain(lzs))
    for lz in (-667.0, np.nextafter(-667.0, -np.inf), -1e5, -0.5):
        assert erfc_inverse_log(lz) == _erfc_inverse_log_plain(lz)
        assert erfc_inverse(math.exp(max(lz, -700.0))) == _erfc_inverse_plain(
            math.exp(max(lz, -700.0))
        )
    assert erfc_inverse(lzs[:0]).shape == (0,)
    assert erfc_inverse(zs[:6].reshape(2, 3)).shape == (2, 3)
    with pytest.raises(ValueError, match=r"argument must lie in \(0, 2\)"):
        erfc_inverse(2.5)
    with pytest.raises(ValueError, match=r"log-argument must be below log\(2\)"):
        erfc_inverse_log(1.0)


def test_erfc_inverse_log_matches_mpmath():
    # x = erfc_inverse_log(lz) against mpmath at 40 digits: the error in x is the
    # residual ln erfc(x) - lz over d ln erfc / dx.  erfc(x) = Gamma(1/2, x^2) / sqrt(pi)
    # for x > 0: mpmath's erfc takes tens of ms a point past x = 1e100, its
    # incomplete gamma a fraction of one.  The direct inverse serves lz >= -667
    # and the Newton solve below; the worst errors are 3.7e-14 and 2.6e-14 on
    # either side of the switch, and 1.7e-16 below lz = -2000.
    lzs = np.concatenate((
        -np.geomspace(1e-3, 667.0, 500),
        np.nextafter(-667.0, -np.inf) - np.geomspace(1e-12, 1333.0, 300),
        -np.geomspace(2000.0, 1e6, 100),
        -np.geomspace(1e6, 1e300, 300),
    ))
    xs = erfc_inverse_log(lzs)
    with mpmath.workdps(40):
        for lz, x in zip(lzs.tolist(), xs.tolist()):
            xm = mpmath.mpf(x)
            tail = mpmath.gammainc(0.5, xm * xm, regularized=True)
            slope = -2 * mpmath.exp(-xm * xm) / (mpmath.sqrt(mpmath.pi) * tail)
            error = (mpmath.log(tail) - lz) / slope
            assert abs(error) <= 1e-13 * xm, (lz, x, float(error / xm))


def _erfc_inverse_log_whole(lz):
    # erfc_inverse_log as it was while it ran on the whole array at once
    lzz = np.asarray(lz, dtype=float)
    out = np.empty_like(lzz)
    direct = lzz >= -667.0
    if np.any(direct):
        z = lzz[direct]
        out[direct] = erfc_inverse(np.exp(z, out=z))
    deep = ~direct
    if np.any(deep):
        t = lzz[deep]
        x = np.sqrt(np.negative(t))
        for _ in range(6):
            step = _log_erfc_asymptotic(x)
            step -= t
            step /= 2.0 * x
            x += step
        out[deep] = x
    return out


def test_erfc_inverse_log_slices_keep_bits():
    # 2^15 + 3 entries, so two whole slices and a short one; in order, one
    # slice holds the switch at -667, and shuffled, every slice mixes both sides
    lz = np.linspace(-2000.0, 0.5, 2**15 + 3)
    assert lz[0] < -667.0 < lz[-1]
    shuffled = np.random.default_rng(15).permutation(lz)
    for case in (lz, shuffled):
        np.testing.assert_array_equal(erfc_inverse_log(case), _erfc_inverse_log_whole(case))
    grid = shuffled[: 2**15].reshape(2**7, 2**8).T  # a strided view
    np.testing.assert_array_equal(erfc_inverse_log(grid), _erfc_inverse_log_whole(grid))


def test_gaussian_inverse_memory_on_walk_log_tails(traced_peak):
    # the 2^19 + 1 log-tails of the 2^20-step walk, 4 MiB, of which 18646 take
    # the direct inverse: the plain expressions peaked at 32.0 MiB above them,
    # the in-place ones at 24.4, the in-place ones on 2^14-entry slices at 4.7,
    # and with the package's own erfc and erfcinv in place of SciPy's at 5.5
    _, lT = walk_abs_layers(2**20)
    erfc_inverse_log(np.array([-1.0, -1e4]))  # a warm-up call, outside the trace
    assert traced_peak(erfc_inverse_log, lT) <= 6 * 2**20


def test_table_generator():
    psi = table([(0.25, 0.5), (1.0, 1.0)], label="ramp")
    _validate(psi)
    assert psi(0.125) == pytest.approx(0.25, rel=1e-14)
    assert psi(0.25) == pytest.approx(0.5, rel=1e-14)
    assert psi(0.5) == pytest.approx(0.5 + 0.25 * 2 / 3, rel=1e-14)
    # below the first node the extension is linear, so log-linear
    assert psi.log_eval(-700.0) == pytest.approx(math.log(2.0) - 700.0, rel=1e-12)


def test_table_extends_past_last_node_with_final_slope():
    psi = table([(0.25, 0.5), (0.5, 0.75)])
    _validate(psi)
    assert psi(0.75) == pytest.approx(1.0, rel=1e-15)
    assert psi(1.0) == pytest.approx(1.25, rel=1e-15)
    assert psi.log_eval(math.log(0.75)) == pytest.approx(0.0, abs=1e-15)


def test_table_rejects_increasing_slopes():
    with pytest.raises(ValueError):
        table([(0.5, 0.25), (1.0, 1.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", [0, 1], ids=["t", "psi"])
def test_table_rejects_non_finite_nodes(bad, column):
    node = [0.5, 0.75]
    node[column] = bad
    with pytest.raises(ValueError, match="table nodes must be finite"):
        table([(0.25, 0.5), tuple(node), (1.0, 1.0)])


@pytest.mark.parametrize("nodes", [
    [(0.5, 1e308), (1.0, 1.5e308)],  # the first slope is 2e308
    [(0.5, 1e308)],  # and so is the continuation's, which reads psi(1) = inf
    _sqrt_nodes(1000),  # the first slope is 2^1030
], ids=["two-nodes", "one-node", "scaled-sqrt"])
def test_table_refuses_a_slope_past_the_largest_float(nodes):
    # refused as it is read, with no overflow warning (warnings are errors here)
    with pytest.raises(ValueError, match="^table slope or continuation to t = 1 passes the"):
        table(nodes)


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
    shallow = limsup_dilation_ratio(psi, 2, GridConfig())
    assert not shallow.converged
    deep = limsup_dilation_ratio(psi, 2, GridConfig(j_max=2000, window=10))
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


def test_grid_too_shallow_rejected():
    with pytest.raises(ValueError):
        limsup_dilation_ratio(power(1.0), 2, GridConfig(j_max=5, window=10))


