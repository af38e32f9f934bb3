import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp

from rispaces import (
    Lorentz,
    Lpq,
    Marcinkiewicz,
    Orlicz,
    OrliczFunction,
    StepFunction,
    dilation_norm_lorentz,
    exp_lp,
    logpow,
    lpq_norm,
    parse_space,
    power,
    space_label,
    space_norm,
    space_norm_from_layers,
    walk_abs_layers,
    walk_distribution,
)
from rispaces.norms import _layers_from_step, _log_lengths, _orlicz_core

ALL_SPACES = [
    Lorentz(power(0.5)),
    Marcinkiewicz(logpow(2.0)),
    Orlicz(exp_lp(2.0)),
    Lpq(2.0, 1.0),
]


def two_step(v1, v2, t1):
    return StepFunction([Fraction(0), t1, Fraction(1)], [v1, v2])


def test_lorentz_indicator_closed_form():
    for u in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        got = space_norm(StepFunction.indicator(u), Lorentz(power(0.5)))
        assert got == pytest.approx(math.sqrt(float(u)), rel=1e-13)


def test_lorentz_two_step_closed_form():
    f = two_step(Fraction(3), Fraction(1), Fraction(1, 4))
    # (3-1) * psi(1/4) + 1 * psi(1)
    assert space_norm(f, Lorentz(power(0.5))) == pytest.approx(2.0, rel=1e-13)
    assert space_norm(f, Lorentz(power(1.0))) == pytest.approx(
        3 * 0.25 + 1 * 0.75, rel=1e-13
    )


def test_lorentz_rearranges_first():
    f = StepFunction(
        [Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)],
        [Fraction(1), Fraction(3), Fraction(1)],
    )
    g = f.rearrange()
    assert space_norm(f, Lorentz(power(0.5))) == pytest.approx(
        space_norm(g, Lorentz(power(0.5))), rel=1e-13
    )


def test_marcinkiewicz_indicator_closed_form():
    # t / phi(t) is nondecreasing for concave phi, so the sup sits at u
    for phi in (power(0.5), logpow(1.0), logpow(2.0)):
        for u in (0.03, 0.25, 1.0):
            got = space_norm(StepFunction.indicator(float(u)), Marcinkiewicz(phi))
            assert got == pytest.approx(u / phi(u), rel=1e-12)


def test_marcinkiewicz_unit_indicator_logpow():
    one = StepFunction.indicator(1.0)
    assert space_norm(one, Marcinkiewicz(logpow(2.0))) == pytest.approx(1.0, rel=1e-13)


def test_marcinkiewicz_two_step():
    f = two_step(Fraction(2), Fraction(1), Fraction(1, 4))
    # phi = t: ratio is the running average of the rearrangement, maximal early
    assert space_norm(f, Marcinkiewicz(power(1.0))) == pytest.approx(2.0, rel=1e-12)
    # phi = sqrt(t): candidates 2 sqrt(1/4) = 1.0 and (1/4 + 3/4 * 1)/1 = 1.25
    assert space_norm(f, Marcinkiewicz(power(0.5))) == pytest.approx(1.25, rel=1e-12)


def test_orlicz_unit_indicator_closed_forms():
    one = StepFunction.indicator(1.0)
    assert space_norm(one, Orlicz(exp_lp(1.0))) == pytest.approx(
        1.0 / math.log(2.0), rel=1e-10
    )
    assert space_norm(one, Orlicz(exp_lp(2.0))) == pytest.approx(
        1.0 / math.sqrt(math.log(2.0)), rel=1e-10
    )


def test_orlicz_indicator_closed_form():
    # u * (exp((1/lam)^p) - 1) = 1  =>  lam = log1p(1/u)^(-1/p)
    for p in (1.0, 2.0, 4.0):
        for u in (0.25, 0.5, 1.0):
            got = space_norm(StepFunction.indicator(u), Orlicz(exp_lp(p)))
            assert got == pytest.approx(math.log1p(1.0 / u) ** (-1.0 / p), rel=1e-10)


def test_orlicz_scaled_indicator_homogeneous():
    f = StepFunction.indicator(0.25).scale(7.0)
    assert space_norm(f, Orlicz(exp_lp(2.0))) == pytest.approx(
        7.0 * space_norm(StepFunction.indicator(0.25), Orlicz(exp_lp(2.0))), rel=1e-10
    )


def test_lpq_indicator_closed_form():
    cases = [
        (Fraction(1, 4), 2.0, 1.0, 0.5),
        (Fraction(1, 4), 2.0, 2.0, 0.5),
        (Fraction(1, 2), 4.0, 1.5, 0.5**0.25),
        (Fraction(1, 8), 3.0, 1.0, 0.5),
        (Fraction(1), 2.0, 1.0, 1.0),
    ]
    for u, p, q, expect in cases:
        got = lpq_norm(StepFunction.indicator(u), p, q)
        assert got == pytest.approx(expect, rel=1e-12)


def test_lpq_parameter_validation():
    f = StepFunction.indicator(0.5)
    with pytest.raises(ValueError):
        lpq_norm(f, 1.0, 1.0)
    with pytest.raises(ValueError):
        lpq_norm(f, 2.0, 0.5)
    # q = 1 is allowed
    lpq_norm(f, 2.0, 1.0)


def test_zero_function_has_zero_norm():
    z = StepFunction.constant(0.0)
    for sp in ALL_SPACES:
        assert space_norm(z, sp) == 0.0


def test_homogeneity_all_spaces():
    rng = np.random.default_rng(3)
    for sp in ALL_SPACES:
        for _ in range(5):
            n = int(rng.integers(2, 9))
            bps = np.concatenate(([0.0], np.sort(rng.random(n - 1)), [1.0]))
            f = StepFunction(bps, rng.random(n) * 4)
            c = float(rng.uniform(0.1, 9.0))
            assert space_norm(f.scale(c), sp) == pytest.approx(
                c * space_norm(f, sp), rel=1e-10
            )


def test_triangle_inequality_all_spaces():
    rng = np.random.default_rng(4)
    for trial in range(25):
        n = int(rng.integers(2, 9))
        bps1 = np.concatenate(([0.0], np.sort(rng.random(n - 1)), [1.0]))
        f = StepFunction(bps1, rng.random(n) * 3)
        m = int(rng.integers(2, 9))
        bps2 = np.concatenate(([0.0], np.sort(rng.random(m - 1)), [1.0]))
        g = StepFunction(bps2, rng.random(m) * 3)
        for sp in ALL_SPACES:
            lhs = space_norm(f + g, sp)
            assert lhs <= space_norm(f, sp) + space_norm(g, sp) + 1e-10


def test_monotonicity_all_spaces():
    f = StepFunction([0.0, 0.3, 1.0], [2.0, 0.5])
    g = f + StepFunction([0.0, 0.7, 1.0], [1.0, 0.25])
    for sp in ALL_SPACES:
        assert space_norm(f, sp) <= space_norm(g, sp) + 1e-12


def test_three_route_agreement_on_walk_laws():
    for n in (8, 48):
        f_exact = walk_distribution(n)
        f_float = StepFunction(
            [float(b) for b in f_exact.breakpoints], [float(v) for v in f_exact.values]
        )
        values = np.array([float(v) for v in f_exact.values if v > 0])
        tails = np.cumsum([float(l) for l, v in zip(f_exact.piece_lengths(), f_exact.values) if v > 0])
        log_tails = np.log(tails)
        for sp in ALL_SPACES:
            a = space_norm(f_exact, sp)
            b = space_norm(f_float, sp)
            c = space_norm_from_layers(values, log_tails, sp)
            assert b == pytest.approx(a, rel=1e-9)
            assert c == pytest.approx(a, rel=1e-9)


def test_exponential_orlicz_comparable_to_log_marcinkiewicz():
    # the two scales agree up to a bounded factor on indicators down to 2^-40
    for p in (1.0, 2.0, 4.0):
        M, phi = exp_lp(p), logpow(p)
        for j in range(1, 41):
            f = StepFunction.indicator(2.0**-j)
            ratio = space_norm(f, Orlicz(M)) / space_norm(f, Marcinkiewicz(phi))
            assert 0.25 <= ratio <= 4.0


def test_dilation_norm_lorentz_power():
    psi = power(1.0)
    assert dilation_norm_lorentz(1.0, psi) == 1.0
    assert dilation_norm_lorentz(2.0, psi) == pytest.approx(2.0, rel=1e-9)
    assert dilation_norm_lorentz(0.5, psi) == pytest.approx(0.5, rel=1e-9)
    half = power(0.5)
    assert dilation_norm_lorentz(0.25, half) == pytest.approx(0.5, rel=1e-9)
    assert dilation_norm_lorentz(4.0, half) == pytest.approx(2.0, rel=1e-9)


def test_dilation_norm_submultiplicative():
    psi = logpow(2.0)
    rng = np.random.default_rng(9)
    for _ in range(10):
        tau, sig = rng.uniform(0.05, 3.0, size=2)
        lhs = dilation_norm_lorentz(tau * sig, psi)
        rhs = dilation_norm_lorentz(tau, psi) * dilation_norm_lorentz(sig, psi)
        assert lhs <= rhs * (1 + 1e-9)


def test_parse_space_and_labels():
    for token in ("lorentz:power:0.5", "marcinkiewicz:logpow:2", "orlicz:np:2", "lpq:2:1"):
        sp = parse_space(token)
        assert space_norm(StepFunction.indicator(1.0), sp) > 0
        assert isinstance(space_label(sp), str)
    with pytest.raises(ValueError):
        parse_space("banach:power:1")
    with pytest.raises(ValueError):
        parse_space("lpq:1:1")


def test_layers_validation():
    with pytest.raises(ValueError):
        space_norm_from_layers(
            np.array([1.0, 2.0]), np.array([-1.0, 0.0]), Lorentz(power(1.0))
        )
    with pytest.raises(ValueError):
        space_norm_from_layers(
            np.array([2.0, 1.0]), np.array([0.0, -1.0]), Lorentz(power(1.0))
        )


# ------------------------------------------------------- Orlicz root oracles


def _orlicz_bisection(values, lT, M):
    """The former root search, kept as the oracle: halve, double, then bisect in lambda."""
    if values[0] <= 0:
        return 0.0
    keep = values > 0
    v = values[keep]
    ll = _log_lengths(lT)[keep]
    l_mu = lT[np.nonzero(keep)[0][-1]]
    vmax = float(v[0])

    def log_modular(lam):
        return float(logsumexp(ll + M.log_fn(v / lam)))

    lo = vmax / float(M.inverse_log(-l_mu))
    hi = vmax * max(1.0, 1.0 / float(M.inverse(1.0)))
    for _ in range(200):
        if log_modular(lo) >= 0.0:
            break
        lo /= 2.0
    for _ in range(200):
        if log_modular(hi) <= 0.0:
            break
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lm = log_modular(mid)
        if math.isnan(lm):
            raise RuntimeError("Orlicz modular evaluated to NaN: degenerate M")
        if abs(lm) <= 1e-13:
            return mid
        if lm > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 2.0 * np.spacing(hi):
            if abs(log_modular(hi)) <= 1e-9:
                return hi
            raise RuntimeError("Orlicz bisection stalled with modular away from 1")
    raise RuntimeError("Orlicz bisection failed after 200 iterations")


class _CountingYoung:
    """An Orlicz function that counts its log_fn calls, one per modular evaluation."""

    def __init__(self, M):
        self._M = M
        self.calls = 0

    def log_fn(self, u):
        self.calls += 1
        return self._M.log_fn(u)

    def __getattr__(self, attr):
        return getattr(self._M, attr)


def _random_float_steps(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 40))
        bps = np.concatenate(([0.0], np.sort(rng.random(n - 1)), [1.0]))
        yield StepFunction(bps, rng.exponential(size=n) * 10.0 ** rng.uniform(-3, 3))


def test_exp_lp_log_fn_matches_two_branch_expression():
    # the expression each layer used to evaluate on both branches
    def both_branches(u, p):
        with np.errstate(divide="ignore", over="ignore"):
            up = np.asarray(u, dtype=float) ** p
            return np.where(
                up > 30.0,
                up + np.log1p(-np.exp(-np.minimum(up, 745.0))),
                np.log(np.expm1(np.minimum(up, 30.0))),
            )

    for p in (1.0, 2.0, 7.5):
        switch = 30.0 ** (1.0 / p)
        u = np.array(
            [0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, np.nextafter(switch, 0.0), switch,
             np.nextafter(switch, np.inf), 100.0, 745.0 ** (1.0 / p), 745.0, 746.0,
             1e300, np.inf]
        )
        np.testing.assert_array_equal(exp_lp(p).log_fn(u), both_branches(u, p))
        assert exp_lp(p).log_fn(switch) == both_branches(switch, p)


def test_exp_lp_elasticity_is_log_derivative():
    for p in (1.0, 2.0, 7.5):
        M = exp_lp(p)
        u = np.array([1e-3, 0.3, 1.0, 1.7])
        h = 1e-6
        numeric = (M.log_fn(u * math.exp(h)) - M.log_fn(u * math.exp(-h))) / (2 * h)
        np.testing.assert_allclose(M.elasticity(u), numeric, rtol=1e-7)
        assert M.elasticity(np.array([0.0, 5e-324]))[0] == p
        assert M.elasticity(np.array([5e-324]))[0] == pytest.approx(p)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 8.0])
@pytest.mark.parametrize("n", [2**4, 2**8, 2**12, 2**16])
def test_orlicz_root_matches_bisection_on_walk_layers(n, p):
    values, lT = walk_abs_layers(n)
    M = exp_lp(p)
    assert _orlicz_core(values, lT, M) == pytest.approx(
        _orlicz_bisection(values, lT, M), rel=1e-12
    )


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 8.0])
def test_orlicz_root_matches_bisection_on_random_steps(p):
    M = exp_lp(p)
    for f in _random_float_steps(11, 25):
        values, lT = _layers_from_step(f)
        assert _orlicz_core(values, lT, M) == pytest.approx(
            _orlicz_bisection(values, lT, M), rel=1e-12
        )


@pytest.mark.parametrize("p", [1.0, 1.5, 7.0, 1e3, 1e5, 1e10, 1e100])
@pytest.mark.parametrize("u", [1.0, 0.5, 1e-5, 1e-300, 5e-324])
def test_orlicz_root_matches_bisection_on_indicators(p, u):
    # steep M: the modular jumps across 1 between adjacent floats, and both
    # routes must then report non-convergence; near |log terms| ~ 700 the
    # float spacing of the terms sets how close L can get to 0.  Either way
    # a single layer costs at most three modular evaluations.
    values, lT, M = np.array([1.0]), np.array([math.log(u)]), _CountingYoung(exp_lp(p))
    try:
        want = _orlicz_bisection(values, lT, exp_lp(p))
    except RuntimeError:
        with pytest.raises(RuntimeError):
            _orlicz_core(values, lT, M)
    else:
        assert _orlicz_core(values, lT, M) == pytest.approx(want, rel=1e-12)
    assert M.calls <= 3


def test_orlicz_root_survives_inexact_elasticity():
    # a slope off by a factor 2 sends unguarded Newton back and forth across
    # the root; the search must fall back to bisection and still converge
    M = exp_lp(2.0)
    rough = OrliczFunction(
        M.fn, M.inverse, M.log_fn, M.inverse_log, lambda u: 0.5 * M.elasticity(u), "rough"
    )
    for f in _random_float_steps(3, 10):
        values, lT = _layers_from_step(f)
        assert _orlicz_core(values, lT, rough) == pytest.approx(
            _orlicz_bisection(values, lT, M), rel=1e-12
        )


class _LambdaLog:
    """An Orlicz function that logs u = v / lambda of the first layer at each evaluation."""

    def __init__(self, M):
        self._M = M
        self.first_u = []

    def log_fn(self, u):
        self.first_u.append(float(u[0]))
        return self._M.log_fn(u)

    def __getattr__(self, attr):
        return getattr(self._M, attr)


def test_orlicz_root_halve_and_double_fallbacks():
    # An elasticity of the wrong sign points every Newton step away from the
    # root and out of the bracket.  From the free lower bound the search must
    # double lam until it passes the root; from a start above the root (an
    # inverse 64 times too small) it must halve lam.  Doubling lam halves every
    # u = v / lam exactly, so the log of the first layer's u shows each fallback.
    M = exp_lp(2.0)
    backward = OrliczFunction(
        M.fn, M.inverse, M.log_fn, M.inverse_log, lambda u: -M.elasticity(u), "backward"
    )
    high_start = OrliczFunction(
        M.fn, M.inverse, M.log_fn, lambda ly: M.inverse_log(ly) / 64.0,
        lambda u: -M.elasticity(u), "high start",
    )
    layers = [_layers_from_step(f) for f in _random_float_steps(5, 8)]
    layers += [walk_abs_layers(2**8), walk_abs_layers(2**12)]
    halved = doubled = 0
    for wrong in (backward, high_start):
        for values, lT in layers:
            logged = _LambdaLog(wrong)
            assert _orlicz_core(values, lT, logged) == pytest.approx(
                _orlicz_bisection(values, lT, M), rel=1e-12
            )
            u = logged.first_u
            doubled += sum(b == a / 2.0 for a, b in zip(u, u[1:]))
            halved += sum(b == a * 2.0 for a, b in zip(u, u[1:]))
    assert doubled > 0 and halved > 0


def _mp_modular(values, lT, p, lam):
    """Modular of the layers at lam, in 50-digit arithmetic from the float inputs."""
    with mpmath.workdps(50):
        total, prev = mpmath.mpf(0), mpmath.mpf(0)
        for v, lt in zip(values, lT):
            T = mpmath.exp(mpmath.mpf(float(lt)))
            if v > 0:
                u = mpmath.mpf(float(v)) / mpmath.mpf(lam)
                total += (T - prev) * mpmath.expm1(u**p)
            prev = T
        return total


def test_orlicz_root_modular_residual_in_high_precision():
    three = StepFunction(
        [Fraction(0), Fraction(1, 7), Fraction(2, 5), Fraction(1)],
        [Fraction(9, 2), Fraction(2), Fraction(1, 3)],
    )
    cases = [
        _layers_from_step(StepFunction.indicator(Fraction(1, 4))),
        _layers_from_step(three),
        walk_abs_layers(64),
    ]
    for values, lT in cases:
        for p in (1.0, 2.0, 4.0):
            lam = _orlicz_core(values, lT, exp_lp(p))
            assert abs(_mp_modular(values, lT, p, lam) - 1) <= 1e-12


def test_orlicz_root_evaluation_counts():
    for k in (12, 14, 16, 18):
        values, lT = walk_abs_layers(2**k)
        M = _CountingYoung(exp_lp(2.0))
        _orlicz_core(values, lT, M)
        assert M.calls <= 15


def test_orlicz_norm_past_float_range_raises_before_evaluating():
    # the norm of 1.7e308 on (0, 1] in exp(L_1) is 1.7e308 / log 2: its lower
    # bound already overflows, so no modular evaluation can help
    values, lT, M = np.array([1.7e308]), np.array([0.0]), _CountingYoung(exp_lp(1.0))
    with pytest.raises(ValueError, match="exceeds the float range"):
        _orlicz_core(values, lT, M)
    assert M.calls == 0
