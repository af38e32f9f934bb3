import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, given, reject, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from rispaces import (
    DichotomyReport,
    GrowthFit,
    KruglovVerdict,
    LimitEstimate,
    Lorentz,
    Lpq,
    Marcinkiewicz,
    Orlicz,
    SamplerSpec,
    StepFunction,
    exp_lp,
    logpow,
    lpq_norm,
    parse_generator,
    parse_sampler,
    parse_space,
    power,
    quantile_from_samples,
    rademacher_sum_norm,
    space_label,
    space_norm,
    space_norm_from_layers,
    table,
    walk_abs_layers,
    walk_distribution,
)
from rispaces._numeric import CHUNK as _ROW_CHUNK
from rispaces._search import golden_max_vec
from rispaces.experiments import _draw_sums
from rispaces.generators import ConcaveGenerator, inv_sqrt_log
from rispaces.norms import (
    _ORLICZ_TINY,
    _layers_from_step,
    _log_lengths,
    _lorentz_core,
    _lpq_core,
    _marcinkiewicz_core,
    _orlicz_core,
    _price,
)
from test_cli import _near_tie_steps, _step_files

ALL_SPACES = [
    Lorentz(power(0.5)),
    Marcinkiewicz(logpow(2.0)),
    Orlicz(exp_lp(2.0)),
    Lpq(2.0, 1.0),
]


def two_step(v1, v2, t1):
    return StepFunction([Fraction(0), t1, Fraction(1)], [v1, v2])


# Tiny indicator measures, down to the least subnormal.  Their norms come back
# through exp of a log-space value, so a closed form psi(u) holds to a relative
# (1 + |ln u|) 2^-52, the rounding of ln u carried through exp.
_TINY_U = tuple(10.0**-k for k in (5, 20, 50, 100, 200, 300, 310, 320, 323)) + tuple(
    2.0**-j for j in (64, 380, 700, 1000, 1022, 1023, 1060, 1074))


def _log_space_tol(u):
    return (1.0 + abs(math.log(u))) * 2.0**-52


def _assert_rel(got, want, rel):
    assert abs(got - want) <= rel * want, (got, want, rel)


def test_lorentz_indicator_closed_form():
    for u in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        got = space_norm(StepFunction.indicator(u), Lorentz(power(0.5)))
        assert got == pytest.approx(math.sqrt(float(u)), rel=1e-13)
    for u in _TINY_U:
        for psi, want in ((power(1.0), u), (power(0.5), math.sqrt(u))):
            got = space_norm(StepFunction.indicator(u), Lorentz(psi))
            _assert_rel(got, want, _log_space_tol(u))


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
    for u in _TINY_U:
        got = space_norm(StepFunction.indicator(u), Marcinkiewicz(power(0.5)))
        _assert_rel(got, math.sqrt(u), _log_space_tol(u))
    # small values on sets just above the golden pass's 1e-300 floor: their
    # integral v u, 1e-324 to 1e-321, is subnormal, and the norm v u^(1/4) is not
    for u in (1.01e-300, 2e-300, 1e-299):
        for v in (1e-24, 4e-24, 1e-23, 1e-22):
            got = space_norm(StepFunction([0.0, u, 1.0], [v, 0.0]), Marcinkiewicz(power(0.75)))
            _assert_rel(got, v * u**0.25, _log_space_tol(u))


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
        for u in _TINY_U:  # log1p(1/u) = log1p(u) - ln u, where 1/u overflows
            got = space_norm(StepFunction.indicator(u), Orlicz(exp_lp(p)))
            _assert_rel(got, (math.log1p(u) - math.log(u)) ** (-1.0 / p), 4 * 2.0**-52)


def test_orlicz_scaled_indicator_homogeneous():
    f = StepFunction.indicator(0.25).scale(7.0)
    assert space_norm(f, Orlicz(exp_lp(2.0))) == pytest.approx(
        7.0 * space_norm(StepFunction.indicator(0.25), Orlicz(exp_lp(2.0))), rel=1e-10
    )


def test_orlicz_norm_of_subnormal_values():
    # the one-layer root is v / M^-1(1), M^-1(1) = sqrt(log 2); below 2^-960 the
    # law is priced scaled up by an exact power of two and the root scaled back
    M = exp_lp(2.0)
    for v in (5e-324, 1e-320, 2.0**-1000, 1e-300):
        got = space_norm(StepFunction([0.0, 1.0], [v]), Orlicz(M))
        assert got == pytest.approx(v / math.sqrt(math.log(2.0)), rel=1e-12, abs=5e-324)
    f = StepFunction([0.0, 0.25, 0.5, 1.0], [3.0, 2.0, 0.5])
    want = space_norm(f, Orlicz(M))
    for e in (-970, -1020, -1040):
        got = space_norm(f.scale(2.0**e), Orlicz(M))
        assert got == pytest.approx(math.ldexp(want, e), rel=1e-12, abs=4 * 5e-324)


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
    for u in _TINY_U:
        _assert_rel(lpq_norm(StepFunction.indicator(u), 2.0, 1.0), math.sqrt(u),
                    _log_space_tol(u))


def test_lpq_parameter_validation():
    f = StepFunction.indicator(0.5)
    with pytest.raises(ValueError):
        lpq_norm(f, 1.0, 1.0)
    with pytest.raises(ValueError):
        lpq_norm(f, 2.0, 0.5)
    # q = 1 is allowed
    lpq_norm(f, 2.0, 1.0)


def test_zero_function_has_zero_norm():
    z = StepFunction([0, 1], [0.0])
    for sp in ALL_SPACES:
        assert repr(space_norm(z, sp)) == "0.0"
        # one zero layer and two: +0.0 from each core, Marcinkiewicz's as exp(-inf)
        for values, log_tails in (([0.0], [0.0]), ([0.0, 0.0], [-1.0, 0.0])):
            assert repr(space_norm_from_layers(values, log_tails, sp)) == "0.0"


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


# Every space below has the fundamental function t^a: Lorentz(t^a) is the
# smallest such space and Marcinkiewicz(t^(1 - a)) the largest, so their norms
# hold the L_{1/a, q} norm between them for each 1 <= q <= 1/a, where it is a
# norm; and L_{P, q} norms, with the prefactor inside, fall as q grows.  Each
# comparison allows a relative slack of 1e-12.
def _at_most(x, y):
    return x <= y * (1.0 + 1e-12)


@pytest.fixture(scope="module")
def sandwich_laws():
    """Layers of the walk laws of 2^10 ... 2^16 steps, of the step files of
    test_norm_cli_fuzz and of Monte Carlo quantile functions (20,000 sums of
    n = 16 and 256 draws, 2,048 pieces), drawn once for the three tests below."""
    laws = [walk_abs_layers(2**k) for k in range(10, 17)]
    for seed, token in enumerate(("rademacher", "signed:0.25", "gauss")):
        for n in (16, 256):
            sums = _draw_sums(parse_sampler(token, seed), n, 20_000)
            laws.append(_layers_from_step(quantile_from_samples(sums, 2048)))

    @settings(max_examples=50, deadline=None, database=None, phases=[Phase.generate])
    @given(step=st.one_of(_near_tie_steps(), _step_files()))
    def draw(step):
        try:
            laws.append(_layers_from_step(StepFunction.from_json_dict(step)))
        except ValueError:
            reject()

    draw()
    return laws


def _sandwich(price):
    for a in (0.25, 0.5, 0.75):
        low, high = price(Marcinkiewicz(power(1.0 - a))), price(Lorentz(power(a)))
        for q in (1.0, 0.5 + 0.5 / a, 1.0 / a):
            mid = price(Lpq(1.0 / a, q))
            assert _at_most(low, mid) and _at_most(mid, high), (a, q, low, mid, high)


def _lpq_falls_in_q(price):
    for a in (0.25, 0.5, 0.75):
        norms = [price(Lpq(1.0 / a, q)) for q in (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0)]
        for q_index, (before, after) in enumerate(zip(norms, norms[1:])):
            assert _at_most(after, before), (a, q_index, before, after)


def test_fundamental_function_sandwich(sandwich_laws):
    for values, lT in sandwich_laws:
        _sandwich(lambda space: space_norm_from_layers(values, lT, space))


def test_lpq_norm_does_not_increase_in_q(sandwich_laws):
    for values, lT in sandwich_laws:
        _lpq_falls_in_q(lambda space: space_norm_from_layers(values, lT, space))


def test_two_cores_price_the_sandwich_laws_alike(sandwich_laws):
    # lpq:P:1 and lorentz:power:1/P are one norm priced by two cores.  The Lpq core
    # exponentiates a log-space sum, so the rounding of log N becomes a relative
    # error: up to 1.2e-13 on the step files, whose norms N run from 5e-324 to 9e307,
    # and at most 0.67 (1 + |ln N|) 2^-51 there.  The largest relative gap measured
    # elsewhere is 1.5e-15 on the walks and 3.2e-15 on the quantile functions.
    for values, lT in sandwich_laws:
        for p in (4.0 / 3.0, 2.0, 4.0):
            lpq = space_norm_from_layers(values, lT, Lpq(p, 1.0))
            lorentz = space_norm_from_layers(values, lT, Lorentz(power(1.0 / p)))
            rel = 1e-14 + (1.0 + abs(math.log(lorentz or 1.0))) * 2.0**-51
            assert lpq == pytest.approx(lorentz, rel=rel), (p, lpq, lorentz)


def test_parse_space_and_labels():
    for token in ("lorentz:power:0.5", "marcinkiewicz:logpow:2", "orlicz:np:2", "lpq:2:1"):
        sp = parse_space(token)
        assert space_norm(StepFunction.indicator(1.0), sp) > 0
        assert isinstance(space_label(sp), str)
    with pytest.raises(ValueError):
        parse_space("banach:power:1")
    with pytest.raises(ValueError):
        parse_space("lpq:1:1")


def test_exp_lp_is_a_value_of_its_order():
    assert exp_lp(2) == exp_lp(2.0) and hash(exp_lp(2)) == hash(exp_lp(2.0))
    assert exp_lp(2) != exp_lp(3) and isinstance(exp_lp(2).p, float)
    assert Orlicz(exp_lp(2)) == parse_space("orlicz:np:2")
    for p in (0.5, float("nan")):
        with pytest.raises(ValueError, match="must be >= 1"):
            exp_lp(p)
    # log(2)^(1/p) solves e^(x^p) - 1 = 1
    assert exp_lp(4).inverse_log(0.0) == pytest.approx(math.log(2.0) ** 0.25, rel=1e-15)


def test_records_keep_their_reprs_and_keyword_constructors():
    # the records are NamedTuples (Orlicz a frozen dataclass); each repr lists
    # its fields in order, as the dataclass it replaced did, and no attribute
    # can be set
    psi = parse_generator("power:0.5")
    cases = [
        (exp_lp(p=2), "exp_lp(p=2.0)"),
        (Lorentz(psi=psi), "Lorentz(psi=ConcaveGenerator(power:0.5))"),
        (Marcinkiewicz(phi=psi), "Marcinkiewicz(phi=ConcaveGenerator(power:0.5))"),
        (Orlicz(M=exp_lp(2)), "Orlicz(M=exp_lp(p=2.0))"),
        (Lpq(p=2.0, q=1.0), "Lpq(p=2.0, q=1.0)"),
        (LimitEstimate(value=1.0, grid_min=0.5, window=2, converged=True, j_max=1),
         "LimitEstimate(value=1.0, grid_min=0.5, window=2, converged=True, j_max=1)"),
        (SamplerSpec("signed_indicator", u=1, seed=2),
         "SamplerSpec(kind='signed_indicator', u=1.0, quantiles=None, seed=2)"),
        (KruglovVerdict(finite=True, sup_value=1.0, N_used=4, t_argmax=0.5),
         "KruglovVerdict(finite=True, sup_value=1.0, N_used=4, t_argmax=0.5, inconclusive=False)"),
        (GrowthFit(pairs=((1, 1.0),), q=0.5, C=1.0, residual=0.0, burn_in=0, degenerate=False),
         "GrowthFit(pairs=((1, 1.0),), q=0.5, C=1.0, residual=0.0, burn_in=0, degenerate=False)"),
        (DichotomyReport("PowerBound", 1e-3, {}, {}, {2: 1.5}),
         "DichotomyReport(branch='PowerBound', margin=0.001, a_estimates={}, c_estimates={}, "
         "opnorms={2: 1.5}, witness_n0=None, q=None, C=None, failing_condition=None, "
         "inconclusive=False)"),
    ]
    for record, text in cases:
        assert repr(record) == text
        with pytest.raises(AttributeError):
            record.extra = 1


def test_objects_that_are_not_spaces_are_refused():
    with pytest.raises(TypeError, match="not a space spec"):
        space_label(object())
    with pytest.raises(TypeError, match="not a space spec"):
        space_norm(StepFunction.indicator(0.5), object())


def test_space_labels():
    assert space_label(Orlicz(exp_lp(2))) == "orlicz:Np:2"
    for token, label in (("lorentz:power:0.5", "lorentz:power:0.5"),
                         ("marcinkiewicz:logpow:2", "marcinkiewicz:logpow:2"),
                         ("orlicz:np:1.5", "orlicz:Np:1.5"), ("lpq:2:1", "lpq:2:1")):
        assert space_label(parse_space(token)) == label


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
    hi = vmax * max(1.0, 1.0 / float(M.inverse_log(0.0)))
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
            return hi
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


def _exp_lp_log_fn_plain(u, p, clamp=40.0):
    # exp_lp(p).log_fn on the whole array at once, as it was before it ran on
    # slices; with clamp=745.0, as it was while e^-x was clamped near the float range
    with np.errstate(over="ignore"):
        x = np.asarray(np.asarray(u, dtype=float) ** p)
    big = x > 30.0
    y = np.minimum(x, clamp, out=np.empty_like(x), where=big)
    for f in (np.negative, np.exp, np.negative, np.log1p):
        f(y, out=y, where=big)
    np.add(x, y, out=x, where=big)
    small = ~big
    np.expm1(x, out=x, where=small)
    with np.errstate(divide="ignore"):
        return np.log(x, out=x, where=small)


def test_exp_lp_log_fn_clamp_keeps_bits():
    # x = u^p densely over [0, 1000], and u itself at the points where the
    # clamp and the branches meet, each with its neighbouring floats
    marks = []
    for m in (30.0, 34.0, 40.0):
        marks += [np.nextafter(m, 0.0), m, np.nextafter(m, np.inf)]
    marks += [708.0, 745.0, 746.0, 1e308, np.inf, np.nan]
    xs = np.linspace(0.0, 1000.0, 400_001)
    for p in (1.0, 1.5, 2.0, 4.0):
        u = np.concatenate((xs ** (1.0 / p), marks, np.array(marks) ** (1.0 / p)))
        np.testing.assert_array_equal(exp_lp(p).log_fn(u), _exp_lp_log_fn_plain(u, p, 745.0))


def test_exp_lp_elasticity_is_log_derivative():
    for p in (1.0, 2.0, 7.5):
        M = exp_lp(p)
        u = np.array([1e-3, 0.3, 1.0, 1.7])
        h = 1e-6
        numeric = (M.log_fn(u * math.exp(h)) - M.log_fn(u * math.exp(-h))) / (2 * h)
        np.testing.assert_allclose(M.elasticity(u), numeric, rtol=1e-7)
        assert M.elasticity(np.array([0.0, 5e-324]))[0] == p
        assert M.elasticity(np.array([5e-324]))[0] == pytest.approx(p)


def test_exp_lp_elasticity_matches_where_expression():
    # the expression the elasticity evaluated before it ran in place
    def where_expression(u, p):
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.asarray(u, dtype=float) ** p
            return np.where(x > 0.0, p * x / -np.expm1(-x), p)

    rng = np.random.default_rng(8)
    u = np.concatenate(
        ([0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 30.0, 745.0, 1e300, np.inf, np.nan],
         rng.exponential(10.0, 2000))
    )
    for p in (1.0, 1.5, 2.0, 7.5):
        M = exp_lp(p)
        np.testing.assert_array_equal(M.elasticity(u), where_expression(u, p))
        assert M.elasticity(3.0) == where_expression(3.0, p)


# ------------------------------------------------- in-place cores: oracles


def _log_lengths_plain(lT):
    out = np.empty_like(lT)
    out[0] = lT[0]
    if lT.size > 1:
        with np.errstate(divide="ignore"):
            out[1:] = lT[1:] + np.log1p(-np.exp(lT[:-1] - lT[1:]))
    return out


def _lorentz_core_plain(values, lT, psi):
    """The Lorentz core as plain array expressions, before it ran in place."""
    if values[0] <= 0:
        return 0.0
    psis = np.exp(np.asarray(psi.log_eval(lT)))
    drops = values - np.concatenate((values[1:], [0.0]))
    return float(math.fsum(drops * psis))


def _lpq_core_plain(values, lT, p, q):
    """The Lpq core as plain array expressions, before it ran in place."""
    if values[0] <= 0:
        return 0.0
    k = int(np.nonzero(values > 0)[0][-1]) + 1
    v, lt = values[:k], lT[:k]
    ltprev = np.concatenate(([-np.inf], lt[:-1]))
    r = q / p
    with np.errstate(divide="ignore"):
        ldiff = r * lt + np.log1p(-np.exp(r * (ltprev - lt)))
        terms = q * np.log(v) + ldiff
    return float(np.exp(logsumexp(terms) / q))


def _marcinkiewicz_core_plain(values, lT, phi):
    """The Marcinkiewicz core on full T and I arrays, before it ran in place."""
    if values[0] <= 0:
        return 0.0
    with np.errstate(divide="ignore"):
        logv = np.log(values)
    logI = np.logaddexp.accumulate(logv + _log_lengths_plain(lT))
    cand = logI - np.asarray(phi.log_eval(lT))
    best = float(np.exp(np.max(cand)))
    if values.size > 1:
        T = np.exp(lT)
        I = np.exp(logI)
        Tprev = np.concatenate(([0.0], T[:-1]))
        Iprev = np.concatenate(([0.0], I[:-1]))
        order = np.argsort(cand)[::-1][:32]
        lo = Tprev + (T - Tprev) * 1e-9
        normal = Iprev + values * (lo - Tprev) >= sys.float_info.min
        sel = order[(T[order] > 1e-300) & (T[order] > Tprev[order]) & (values[order] > 0)
                    & normal[order]]
        if sel.size:
            base_I, slope, base_T = Iprev[sel], values[sel], Tprev[sel]

            def obj(taus):
                return (base_I + slope * (taus - base_T)) / np.asarray(phi(taus))

            ref = golden_max_vec(obj, lo[sel], T[sel])
            best = max(best, float(np.max(ref)))
    return best


def _orlicz_core_plain(values, lT, M):
    """The Orlicz core with a new array for each temporary and exp_lp(M.p).log_fn
    on the whole array at once, before they ran in a fixed working set."""
    if values[0] <= 0:
        return 0.0
    if values[0] < 2.0**-_ORLICZ_TINY:
        scaled = _orlicz_core_plain(np.ldexp(values, _ORLICZ_TINY), lT, M)
        return math.ldexp(scaled, -_ORLICZ_TINY)
    k = np.count_nonzero(values)
    v = values[:k]
    ll = _log_lengths_plain(lT)[:k]
    with np.errstate(over="ignore"):
        lam = float(np.max(v / M.inverse_log(-lT[:k])))
    if lam == math.inf:
        raise ValueError("Orlicz norm exceeds the float range")
    lo, hi = 0.0, math.inf
    last = before = math.inf
    pruned = False
    for _ in range(200):
        terms = _exp_lp_log_fn_plain(v / lam, M.p)
        terms += ll
        L = float(logsumexp(terms))
        if math.isnan(L):
            raise RuntimeError("Orlicz modular evaluated to NaN: degenerate M")
        if abs(L) <= 1e-13:
            return lam
        if L > 0.0:
            if lam == sys.float_info.max:
                raise ValueError("Orlicz norm exceeds the float range")
            lo = lam
        else:
            hi = lam
        if lo > 0.0 and hi <= math.nextafter(lo, math.inf):
            return hi
        prune = L > 0.0 and not pruned
        if prune:
            big = terms >= -60.0 - math.log(terms.size)
            ll, pruned = ll[big], True
        with np.errstate(all="ignore"):
            weights = np.exp(np.subtract(terms, L, out=terms), out=terms)
            elasticity = np.empty(v.size)
            for i in range(0, v.size, _ROW_CHUNK):
                elasticity[i : i + _ROW_CHUNK] = M.elasticity(v[i : i + _ROW_CHUNK] / lam)
            slope = -float(np.dot(weights, elasticity))
            step = float(lam * np.exp(-L / slope))
        if step == lam:
            step = float(np.nextafter(lam, math.inf if L > 0.0 else 0.0))
        if prune:
            v = v[big]
        if lo < step < hi and (
            hi == math.inf or abs(math.log(step / lam)) <= 0.5 * before
        ):
            move, nxt = abs(math.log(step / lam)), step
        elif lo == 0.0:
            move, nxt = math.log(2.0), hi / 2.0
        elif hi == math.inf:
            move, nxt = math.log(2.0), lo * 2.0
        else:
            nxt = math.exp(0.5 * (math.log(lo) + math.log(hi)))
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            move = abs(math.log(nxt / lam))
        before, last, lam = last, move, nxt
    raise RuntimeError("Orlicz root search failed after 200 iterations")


def _oracle_layers():
    """Walk layers of both parities and around the chunk sizes, and random layers."""
    cases = [walk_abs_layers(k) for k in (1, 2, 3, 64, 65, 1025, 2**14 + 1, 2**16)]
    cases += [_layers_from_step(f) for f in _random_float_steps(11, 20)]
    rng = np.random.default_rng(12)
    for i in range(20):
        m = int(rng.integers(1, 3000))
        values = np.sort(rng.exponential(1.0, m))[::-1]
        if i % 2:
            values[m - m // 3 :] = 0.0  # a zero tail
        if i % 3 == 0:
            values[: m // 4] = values[0]  # ties at the top
        lT = np.unique(rng.uniform(-700.0 if i % 2 else -30.0, 0.0, m))
        cases.append((values[: lT.size], lT))
    return cases


def _cut(values, lT, rng):
    """The layers as consecutive chunks, cut at a few random places (one chunk if one layer)."""
    cuts = np.unique(rng.integers(1, values.size, size=min(values.size - 1, 4)))
    return list(zip(np.split(values, cuts), np.split(lT, cuts)))


def test_in_place_cores_match_plain_expressions():
    generators = [power(0.5), power(1.0), logpow(2.0), logpow(1.0), inv_sqrt_log()]
    rng = np.random.default_rng(14)
    for values, lT in _oracle_layers():
        assert np.array_equal(_log_lengths(lT), _log_lengths_plain(lT))
        chunks = _cut(values, lT, rng)
        for g in generators:
            want = _lorentz_core_plain(values, lT, g)
            assert _lorentz_core([(values, lT)], g) == want
            assert _lorentz_core(chunks, g) == want
            assert _marcinkiewicz_core(values, lT, g) == _marcinkiewicz_core_plain(values, lT, g)
        for p, q in ((2.0, 1.0), (1.5, 1.2), (3.0, 2.0), (1.1, 7.0)):
            want = _lpq_core_plain(values, lT, p, q)
            assert _lpq_core([(values, lT)], values.size, p, q) == want
            assert _lpq_core(chunks, values.size, p, q) == want


def test_layer_chunks_are_checked_across_the_cut():
    # raw chunks, cut anywhere, price as the checked whole: the package hands its
    # own streams (the walk law's chunks) to _price unchecked
    rng = np.random.default_rng(14)
    spaces = [Lorentz(g) for g in (power(0.5), power(1.0), logpow(2.0), logpow(1.0), inv_sqrt_log())]
    spaces += [Lpq(p, q) for p, q in ((2.0, 1.0), (1.5, 1.2), (3.0, 2.0), (1.1, 7.0))]
    for values, lT in _oracle_layers():
        chunks = _cut(values, lT, rng)
        for space in spaces:
            assert _price(chunks, values.size, space) == space_norm_from_layers(values, lT, space)


def test_orlicz_core_matches_plain_expressions():
    # walks of 2, 4 and 16 slices of layers, then the random and tied layers
    cases = [walk_abs_layers(2**k) for k in (15, 16, 18)] + _oracle_layers()
    for p in (1.0, 2.0, 4.0):
        M = exp_lp(p)
        for values, lT in cases:
            assert space_norm_from_layers(values, lT, Orlicz(M)) == _orlicz_core_plain(
                values, lT, M
            ), (p, values.size)


# walks whose k // 2 + 1 layers fill one chunk, spill one zero or one positive
# layer into a second, fill two, or end on a short third; then 2^18 and the
# largest walks of the CLI
_STREAM_KS = [2 * _ROW_CHUNK - 2, 2 * _ROW_CHUNK, 2 * _ROW_CHUNK + 1, 4 * _ROW_CHUNK - 1,
              4 * _ROW_CHUNK + 2, 2**18, 2**20 - 1, 2**20]
_STREAM_SPACES = [
    *(Lorentz(parse_generator(g)) for g in ("power:0.5", "logpow:2", "example7", "invsqrtlog",
                                               "gauss")),
    Lorentz(table([(1e-6, 1e-3), (1e-3, 0.05), (0.1, 0.4), (1.0, 1.0)])),
    Lpq(2.0, 1.0), Lpq(1.5, 1.2), Lpq(4.0, 3.0),
]


@pytest.mark.parametrize("k", _STREAM_KS)
def test_walk_chunk_route_matches_array_route(k):
    layers = walk_abs_layers(k)
    for space in _STREAM_SPACES:
        assert rademacher_sum_norm(k, space) == space_norm_from_layers(*layers, space), space


def test_cores_leave_the_log_tails_alone_when_log_eval_returns_them():
    # psi(t) = t with log_eval the identity hands lT itself back to the core
    identity = ConcaveGenerator(lambda t: t, log_fn=lambda lt: lt, label="identity")
    values, lT = walk_abs_layers(101)
    kept = lT.copy()
    assert _lorentz_core([(values, lT)], identity) == _lorentz_core_plain(
        values, lT, power(1.0)
    )
    assert _marcinkiewicz_core(values, lT, identity) == _marcinkiewicz_core_plain(
        values, lT, power(1.0)
    )
    assert np.array_equal(lT, kept)


@pytest.fixture(scope="module")
def layers_2_20():
    return walk_abs_layers(2**20)


@pytest.mark.parametrize("space, bound_mib", [
    (Lorentz(power(0.5)), 12.0),
    (Lpq(2.0, 1.0), 10.0),
    (Orlicz(exp_lp(2.0)), 14.0),
    (Marcinkiewicz(logpow(2.0)), 18.0),
], ids=["lorentz", "lpq", "orlicz", "marcinkiewicz"])
def test_core_memory_on_the_largest_walk(traced_peak, layers_2_20, space, bound_mib):
    # Each layer array is 4 MiB.  The plain expressions peaked at 12.0, 20.5,
    # 37.0 and 36.0 MiB above the layers.  The Orlicz core holds three layer
    # arrays (the log lengths, the terms and one work buffer) and slices of the
    # rest, 13.3 MiB; with a new array for each temporary it peaked at 17.0 MiB.
    assert traced_peak(space_norm_from_layers, *layers_2_20, space) <= bound_mib * 2**20


def test_layers_with_nan_are_rejected():
    good_values, good_lT = np.array([2.0, 1.0, 0.5]), np.array([-2.0, -1.0, 0.0])
    for values, lT in (
        (np.array([2.0, np.nan, 0.5]), good_lT),
        (np.array([np.nan, 1.0, 0.5]), good_lT),
        (good_values, np.array([-2.0, np.nan, 0.0])),
        (good_values, np.array([np.nan, -1.0, 0.0])),
        (np.array([2.0, 1.0]), np.array([-np.inf, 0.0])),  # a top layer of zero measure
    ):
        for space in ALL_SPACES:
            with pytest.raises(ValueError):
                space_norm_from_layers(values, lT, space)


@pytest.mark.parametrize("values, lT", [
    ([[2.0], [1.0]], [[-1.0], [0.0]]),  # Marcinkiewicz priced these as the 1-D law, by accident
    ([[2.0, 1.0]], [[-1.0, 0.0]]),
    (2.0, -1.0),
], ids=["columns", "row", "scalars"])
def test_layers_that_are_not_1d_are_refused(values, lT):
    for space in ALL_SPACES:
        with pytest.raises(ValueError, match="^layers need matching nonempty 1-D value/log-tail"):
            space_norm_from_layers(values, lT, space)


# The ends 1e-300 and the next piece's end differ by less than the log resolves:
# the float twin's log-tails round together, the exact twin's 1.1e-13 backward.
_SUB_RESOLUTION_LAYER = {
    "float": StepFunction([0.0, 1e-300, np.nextafter(1e-300, 1.0), 1.0], [3, 2, 1]),
    "exact": StepFunction([Fraction(0), Fraction(1, 10**300), Fraction(10**16 + 1, 10**316),
                           Fraction(1)], [3, 2, 1]),
}


@pytest.mark.parametrize("twin", sorted(_SUB_RESOLUTION_LAYER))
@pytest.mark.parametrize("space, want", zip(ALL_SPACES, [1.0, 1.0, 1.2011224087864498, 1.0]),
                         ids=["lorentz", "marcinkiewicz", "orlicz", "lpq"])
def test_a_layer_below_the_log_resolution_is_dropped(twin, space, want):
    f = _SUB_RESOLUTION_LAYER[twin]
    values, lT = _layers_from_step(f)
    assert values.tolist() == [3.0, 1.0]
    assert space_norm(f, space) == space_norm_from_layers(values, lT, space) == want


@pytest.mark.parametrize("space", [Lorentz(power(0.5)), Lpq(2.0, 1.0)], ids=["lorentz", "lpq"])
def test_walk_norm_memory_on_the_largest_walk(traced_peak, space):
    # Both read the 2^19 + 1 layers once, a chunk at a time as the walk law is
    # built; the whole law and a core's two layer-sized temporaries came to
    # 16.0 MiB.  Lpq keeps one buffer of its terms, 4 MiB.
    rademacher_sum_norm(2**14, space)  # the one-time caches fill outside the trace
    peak = traced_peak(rademacher_sum_norm, 2**20, space)
    assert peak <= (2.0 if isinstance(space, Lorentz) else 6.0) * 2**20


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
    # routes then return the upper end of the one-float bracket; near
    # |log terms| ~ 700 the float spacing of the terms sets how close L can
    # get to 0.  Either way the root is the closed form log1p(1/u)^(-1/p) and
    # a single layer costs at most three modular evaluations.
    values, lT, M = np.array([1.0]), np.array([math.log(u)]), _CountingYoung(exp_lp(p))
    got = _orlicz_core(values, lT, M)
    assert got == pytest.approx(_orlicz_bisection(values, lT, exp_lp(p)), rel=1e-12)
    _assert_rel(got, (math.log1p(u) - math.log(u)) ** (-1.0 / p), 4 * 2.0**-52)
    assert M.calls <= 3


class _Altered:
    """A Young function M with some of its companions replaced by the keywords."""

    def __init__(self, M, **companions):
        self._M = M
        vars(self).update(companions)

    def __getattr__(self, attr):
        return getattr(self._M, attr)


def test_orlicz_root_survives_inexact_elasticity():
    # a slope off by a factor 2 sends unguarded Newton back and forth across
    # the root; the search must fall back to bisection and still converge
    M = exp_lp(2.0)
    rough = _Altered(M, elasticity=lambda u: 0.5 * M.elasticity(u))
    for f in _random_float_steps(3, 10):
        values, lT = _layers_from_step(f)
        assert _orlicz_core(values, lT, rough) == pytest.approx(
            _orlicz_bisection(values, lT, M), rel=1e-12
        )


@pytest.mark.parametrize(
    "log_fn, message",
    [(lambda u: np.full(np.shape(u), np.nan), "evaluated to NaN"),
     # log M = 1 holds the modular at e / 4 < 1 for every lam, so no bracket closes
     (lambda u: np.ones(np.shape(u)), "failed after 200 iterations")],
    ids=["nan", "constant"],
)
def test_orlicz_root_refuses_a_degenerate_young_function(log_fn, message):
    values, lT = _layers_from_step(StepFunction.indicator(0.25))
    with pytest.raises(RuntimeError, match=message):
        _orlicz_core(values, lT, _Altered(exp_lp(2.0), log_fn=log_fn))


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
    backward = _Altered(M, elasticity=lambda u: -M.elasticity(u))
    high_start = _Altered(
        M, inverse_log=lambda ly: M.inverse_log(ly) / 64.0, elasticity=lambda u: -M.elasticity(u)
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


def _mp_modular_of_the_top_layers(values, lT, p, lam):
    """``_mp_modular`` over the layers whose float terms lie within e^-80 of the largest.

    Each kept layer takes its length from its own log-tail and the one before
    it, so the deep tail needs no underflowing T; the layers left out add less
    than n e^-80 of the modular.
    """
    before = np.concatenate(([-np.inf], lT[:-1]))
    with np.errstate(divide="ignore"):
        x = (values / lam) ** p
        terms = x + np.log(-np.expm1(-x)) + lT + np.log(-np.expm1(before - lT))
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for i in np.nonzero(terms >= np.max(terms) - 80.0)[0]:
            T, T_before = (mpmath.exp(mpmath.mpf(float(t))) for t in (lT[i], before[i]))
            u = mpmath.mpf(float(values[i])) / mpmath.mpf(lam)
            total += (T - T_before) * mpmath.expm1(u**p)
        return total


@pytest.mark.parametrize("n", [2**17, 2**18, 2**19, 2**20])
@pytest.mark.parametrize("p", [2.0, 20.0, 31.0, 64.0])
def test_orlicz_walk_norm_at_the_size_cap(p, n):
    # From p = 20 on, the modular moves by up to 4e-9 from one float lam to the
    # next and can cross 1 between two, as at (20, 2^20): the root then ends at
    # its one-float bracket.  The float sum of its log terms (1e5 to 1e6) errs
    # by about one such move, so the least float at which the exact modular is
    # at most 1 is lam or a neighbour of it
    lam = rademacher_sum_norm(n, Orlicz(exp_lp(p)))
    values, lT = walk_abs_layers(n)
    at = _mp_modular_of_the_top_layers(values, lT, p, lam)
    if abs(at - 1) > 1e-12:
        two_below = math.nextafter(math.nextafter(lam, 0.0), 0.0)
        below, above = (_mp_modular_of_the_top_layers(values, lT, p, x)
                        for x in (two_below, math.nextafter(lam, math.inf)))
        assert below > 1 >= above, (lam, below, at, above)


def test_orlicz_root_evaluation_counts():
    # one log_fn call per modular evaluation, on walks of 2^12, 2^14, 2^16 and
    # 2^18 steps: a call per slice of the layers would multiply these
    want = {1.0: [6, 6, 6, 6], 2.0: [9, 9, 9, 10], 4.0: [5, 5, 4, 4]}
    layers = [walk_abs_layers(2**k) for k in (12, 14, 16, 18)]
    for p, counts in want.items():
        calls = []
        for values, lT in layers:
            M = _CountingYoung(exp_lp(p))
            _orlicz_core(values, lT, M)
            calls.append(M.calls)
        assert calls == counts, p


def test_orlicz_norm_past_float_range_raises_before_evaluating():
    # the norm of 1.7e308 on (0, 1] in exp(L_1) is 1.7e308 / log 2: its lower
    # bound already overflows, so no modular evaluation can help
    values, lT, M = np.array([1.7e308]), np.array([0.0]), _CountingYoung(exp_lp(1.0))
    with pytest.raises(ValueError, match="^Orlicz norm exceeds the float range$"):
        space_norm_from_layers(values, lT, Orlicz(M))
    assert M.calls == 0


@pytest.mark.parametrize("space, values", [
    (Lorentz(inv_sqrt_log()), [1.283e308, 0.85e308]),  # math.fsum's partial sums overflow
    (Lorentz(inv_sqrt_log()), [sys.float_info.max]),  # the one product overflows
    (Marcinkiewicz(table([(0.5, 1e-20), (1.0, 2e-20)])), [1e308, 1e308]),  # exp overflows
], ids=["lorentz-fsum", "lorentz-product", "marcinkiewicz"])
def test_norm_past_the_float_range_raises_with_no_warning(space, values):
    # psi(1) = 1.76 for invsqrtlog and phi(1) = 2e-20 for the table: each norm is
    # past the largest float, and every family refuses it in the message Orlicz uses
    f = StepFunction(np.linspace(0.0, 1.0, len(values) + 1), values)
    family = type(space).__name__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{family} norm exceeds the float range$"):
            space_norm(f, space)
        with pytest.raises(ValueError, match=f"^{family} norm exceeds the float range$"):
            space_norm_from_layers(*_layers_from_step(f), space)
