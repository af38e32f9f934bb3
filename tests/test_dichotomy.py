import math

import numpy as np
import pytest

from rispaces import (
    KruglovVerdict,
    Lorentz,
    classify,
    indicator_ratio,
    inv_sqrt_log,
    kruglov_check,
    limsup_tail_sum_ratio,
    logpow,
    lorentz_operator_norm,
    power,
    signed_indicator_sum_log_tails,
    sup_indicator_ratio,
    table,
)
from rispaces import dichotomy, norms
from rispaces._numeric import CHUNK as _KRUGLOV_CHUNK, log_factorial
from rispaces.generators import ConcaveGenerator, parse_generator

from opnorm_bracket import indicator_ratio_bracket
from test_cli import _sqrt_nodes

SQRT_8_3 = math.sqrt(8.0 / 3.0)


def test_indicator_ratio_anchors():
    p1 = power(1.0)
    assert indicator_ratio(p1, 2, 1.0) == pytest.approx(0.5, rel=1e-13)
    assert indicator_ratio(p1, 2, 0.5) == pytest.approx(0.75, rel=1e-13)
    for psi in (p1, power(0.5), inv_sqrt_log()):
        for u in (1e-6, 0.3, 1.0):
            assert indicator_ratio(psi, 1, u) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("token", ["power:0.5", "power:1", "logpow:2", "invsqrtlog", "gauss"])
def test_indicator_ratio_is_the_lorentz_norm_of_the_walk_law(token):
    # n psi(u) g(n, u) is the Lorentz norm of |S_n|, whose layers are the values
    # n, ..., 1 over the tails P(|S_n| >= s); ties at u = 1 are priced as they come
    psi = parse_generator(token)
    for n in (1, 2, 17, 512):
        for u in (1.0, 0.5, 2.0**-40, 1e-300):
            layers = (np.arange(n, 0, -1, dtype=float), signed_indicator_sum_log_tails(n, u)[::-1])
            want = norms._price([layers], n, Lorentz(psi))
            got = indicator_ratio(psi, n, u) * n * math.exp(psi.log_eval(math.log(u)))
            assert abs(got - want) <= 4 * math.ulp(want), (n, u, got, want)


@pytest.mark.parametrize("scale", [900, -900])
def test_sup_indicator_ratio_does_not_see_the_scale_of_psi(scale):
    # g(n, u) is unchanged when psi is scaled; at 2^-900 and j_max 1022, psi(u)
    # underflows to 0 on the deep end of the grid
    plain, scaled = table(_sqrt_nodes(0)), table(_sqrt_nodes(scale))
    for n in (2, 4, 64):
        for j_max in (40, 1022):
            want = sup_indicator_ratio(plain, n, j_max)
            assert sup_indicator_ratio(scaled, n, j_max) == pytest.approx(want, rel=1e-12)


def test_indicator_ratio_with_a_subnormal_psi_of_u():
    # psi(2^-1074) is subnormal.  At n = 2, P(|S_2| >= 1) = 2u - 3u^2/2 and
    # psi(P(|S_2| = 2)) underflows, so g = psi(2u) / (2 psi(u)), which is
    # (1 - log 2 / log(e/u))^(1/8) to within u.
    u = 2.0**-1074
    want = (1.0 - math.log(2.0) / (1.0 - math.log(u))) ** 0.125
    assert indicator_ratio(logpow(8.0), 2, u) == pytest.approx(want, rel=1e-12)


def test_indicator_ratio_in_unit_interval():
    rng = np.random.default_rng(17)
    for psi in (power(1.0), power(0.5), logpow(2.0), inv_sqrt_log()):
        for _ in range(50):
            n = int(rng.integers(1, 65))
            u = float(np.exp(rng.uniform(np.log(1e-12), 0.0)))
            g = indicator_ratio(psi, n, u)
            assert 0.0 < g <= 1.0 + 1e-12


def test_small_u_limit():
    # limsup_{u->0} g(n, u) is the tail-sum ratio over n; for psi = sqrt(t) the
    # one-active-summand regime gives n^(-1/2)
    est = limsup_tail_sum_ratio(power(0.5), 4)
    assert est.converged
    assert est.value / 4 == pytest.approx(0.5, abs=1e-6)
    est16 = limsup_tail_sum_ratio(power(0.5), 16)
    assert est16.value / 16 == pytest.approx(0.25, abs=1e-6)


def test_sup_ratio_saturates_for_linear_generator():
    for n in (2, 8, 32):
        s = sup_indicator_ratio(power(1.0), n)
        assert s >= 1.0 - 1e-3
        assert s <= 1.0


def test_sup_ratio_frozen_value():
    assert sup_indicator_ratio(power(0.5), 64) == pytest.approx(
        0.16268568372813239, abs=1e-9
    )


@pytest.mark.parametrize("token, n", [("power:0.5", 4), ("power:0.5", 16), ("invsqrtlog", 4),
                                      ("invsqrtlog", 16), ("invsqrtlog", 64)])
def test_sup_ratio_lies_in_an_independent_bracket(token, n):
    # A branch and bound over u in [2^-40, 1] on the binomial mixture of exact
    # walk tails (tests/opnorm_bracket.py).  In each of these cases the grid
    # side sets the sup: the u -> 0 limit lies below the bracket.
    psi = parse_generator(token)
    low, high = indicator_ratio_bracket(psi, n)
    assert limsup_tail_sum_ratio(psi, n, 60).value / n < low
    assert low * (1.0 - 1e-12) <= sup_indicator_ratio(psi, n) <= high
    assert n * low * (1.0 - 1e-12) <= lorentz_operator_norm(psi, n) <= n * high


def test_sup_ratio_grid_is_deep_enough():
    # For t^0.9 the sup lies about 5.08e-6 above the u -> 0 limit n^-0.1, at a u
    # that a grid of 8 octaves misses (it reads at most 1e-12 above); the
    # default depth must find it and read what 60 octaves read.
    psi = power(0.9)
    for n in (4, 32, 512):
        s = sup_indicator_ratio(psi, n)
        assert s == sup_indicator_ratio(psi, n, j_max=60), n
        assert s > n**-0.1 * (1.0 + 4e-6), n


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


_RELATION_NS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512)


@pytest.mark.parametrize("token", ["power:0.5", "logpow:2", "invsqrtlog"])
def test_operator_norms_obey_the_semigroup_relations(token):
    # A_n f sums n independent copies of f >= 0, so the true norms do not decrease,
    # ||A_(n+m)|| <= ||A_n|| + ||A_m||, ||A_(nm)|| <= ||A_n|| ||A_m|| and ||A_n|| <= n.
    # The slack is 1e-12 relative; the tightest margins are 6.8e-3 for sums and
    # 1.4e-4 for products, both at logpow:2.  The relations guard the walk law
    # and the ratio, not the search: at these n a grid cut to j_max = 8 passes.
    psi = parse_generator(token)
    norm = {n: lorentz_operator_norm(psi, n) for n in _RELATION_NS}
    slack = 1.0 + 1e-12
    for n, m in zip(_RELATION_NS, _RELATION_NS[1:]):
        assert norm[n] <= norm[m] * slack, (n, m)
    for n in _RELATION_NS:
        assert norm[n] <= n * slack, n
        for m in _RELATION_NS:
            if n + m in norm:
                assert norm[n + m] <= (norm[n] + norm[m]) * slack, (n, m)
            if n * m in norm:
                assert norm[n * m] <= norm[n] * norm[m] * slack, (n, m)


@pytest.mark.parametrize("token", ["power:0.5", "logpow:2", "invsqrtlog"])
def test_classify_certificate_bounds_the_operator_norm(token):
    # the PowerBound branch certifies ||A_n|| <= C n^q for every n; measured
    # ratios at n = 128 and 512 are at most 0.105
    psi = parse_generator(token)
    rep = classify(psi)
    assert rep.branch == "PowerBound" and not rep.inconclusive
    for n in (128, 512):
        assert lorentz_operator_norm(psi, n) <= rep.C * n**rep.q


# Known defect (ROADMAP item 2): for logpow:p, psi(ku) / psi(u) =
# k (1 - log k / log(e/u))^(1/p) -> k as u -> 0, so condition 1 fails, ||A_n|| = n
# and the branch is NormEqualsN.  The u -> 0 limits settle as 1 / |log u|, far
# below the grids the sup and the limit estimators read.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="lorentz_operator_norm(logpow(2.0), 512) reads 473.0176363800324")
def test_opnorm_of_logpow_is_n():
    assert lorentz_operator_norm(logpow(2.0), 512) == pytest.approx(512.0, abs=1e-3)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="classify(logpow(2.0)).branch reads PowerBound")
def test_classify_logpow_is_norm_equals_n():
    assert classify(logpow(2.0)).branch == "NormEqualsN"


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


def test_classify_zero_margin_falls_back_on_norm_measurement(monkeypatch):
    # without the margin, float noise lets a(2) = 2 - 1e-13 pass the strict
    # test; the witness hunt then finds no n with ||A_n|| < n and refuses to
    # certify constants instead of fabricating them
    monkeypatch.setattr(dichotomy, "_MARGIN", 0.0)
    rep = classify(power(1.0))
    assert rep.branch == "NormEqualsN"
    assert rep.failing_condition == "norm-measurement"
    assert rep.inconclusive


def test_classify_validation():
    with pytest.raises(ValueError):
        classify(power(1.0), n_list=())


@pytest.mark.parametrize("psi", [power(1.0), power(0.5)], ids=["power-1", "power-0.5"])
@pytest.mark.parametrize(
    "lists, fragment", [({"n_list": (2, 0)}, "n must be")], ids=["n"],
)
def test_classify_checks_every_probe_before_any_limit(monkeypatch, psi, lists, fragment):
    # the n probes used to be checked only when both limit conditions held
    def no_limit(*args):
        raise AssertionError("computed a limit before checking the probes")

    monkeypatch.setattr(dichotomy, "limsup_dilation_ratio", no_limit)
    monkeypatch.setattr(dichotomy, "limsup_power_ratio", no_limit)
    with pytest.raises(ValueError, match=fragment):
        classify(psi, **lists)


def test_classify_checks_the_grid_depth_before_evaluating_psi():
    def unread(lt):
        raise AssertionError("evaluated psi before checking j_max")

    with pytest.raises(ValueError, match="^need j_max >= 1, got 0$"):
        classify(ConcaveGenerator(unread, log_fn=unread), j_max=0)


def test_classify_takes_numpy_probe_lists():
    want = classify(power(0.5), n_list=(2, 4))
    assert classify(power(0.5), n_list=np.array([2, 4])) == want
    with pytest.raises(ValueError, match="^n_list must be nonempty$"):
        classify(power(0.5), n_list=np.array([], dtype=int))


def _kruglov_rule(monkeypatch, t_grid, threshold=dichotomy._THRESHOLD):
    """Let ``kruglov_check`` probe ``t_grid`` against ``threshold`` for one test."""
    monkeypatch.setattr(dichotomy, "_T_GRID", tuple(t_grid))
    monkeypatch.setattr(dichotomy, "_THRESHOLD", threshold)


def test_kruglov_check_inconclusive(monkeypatch):
    # N = 8: the N/4 partial sum is 1 + 1/2, the N sum is sum_{n <= 8} 1/n!
    _kruglov_rule(monkeypatch, (1.0,), 1e9)
    v = kruglov_check(power(1.0), num_terms=8)
    assert v.inconclusive and not v.finite
    assert v.sup_value == pytest.approx(math.fsum(1 / math.factorial(n) for n in range(1, 9)),
                                        rel=1e-14)
    assert v.N_used == 8 and v.t_argmax == 1.0


def test_kruglov_series_anchors(monkeypatch):
    # on a one-point grid the reported sup is that t's N-term partial sum
    _kruglov_rule(monkeypatch, (1.0,))
    v = kruglov_check(power(1.0), num_terms=30)
    assert v.sup_value == pytest.approx(math.e - 1.0, abs=1e-12)
    v = kruglov_check(power(0.5), num_terms=30)
    assert v.sup_value == pytest.approx(2.469506314521048, abs=1e-9)
    # the slowly varying generator accumulates two digits within 1e4 terms
    _kruglov_rule(monkeypatch, (math.exp(-1.5),), 10.0)
    v = kruglov_check(inv_sqrt_log(), num_terms=10**4)
    assert not v.finite and math.isinf(v.sup_value) and v.N_used <= 10**4
    with pytest.raises(ValueError):
        kruglov_check(power(1.0), num_terms=0)


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
    assert min(dichotomy._T_GRID) <= 1e-300
    assert max(dichotomy._T_GRID) == 1.0


def test_kruglov_check_crossing_counts_a_sum_equal_to_the_threshold(monkeypatch):
    # at t = 1 the partial sums of 1/n! are 1, 1.5, ...: 1.5 is reached at n = 2
    _kruglov_rule(monkeypatch, (1.0,), 1.5)
    v = kruglov_check(power(1.0), num_terms=8)
    assert not v.finite and math.isinf(v.sup_value) and v.N_used == 2


def _kruglov_check_full(phi, t_grid, num_terms, threshold, stabilization_rtol=1e-6):
    """The probe as one N-term array per t: the oracle of the chunked walk."""
    best = -math.inf
    best_t = float(t_grid[0])
    any_unsettled = False
    log_n_fact = log_factorial(np.arange(1, num_terms + 1, dtype=float))
    for t in t_grid:
        t = float(t)
        largs = np.arange(1, num_terms + 1, dtype=float)
        largs *= math.log(t)
        largs -= log_n_fact
        terms = np.exp(np.asarray(phi.log_eval(largs)) - float(phi.log_eval(math.log(t))))
        csum = np.cumsum(terms)
        crossed = np.nonzero(csum >= threshold)[0]
        if crossed.size:
            return KruglovVerdict(finite=False, sup_value=math.inf,
                                  N_used=int(crossed[0]) + 1, t_argmax=t)
        full = float(csum[-1])
        quarter = float(csum[num_terms // 4 - 1])
        if abs(full - quarter) > stabilization_rtol * max(1.0, abs(full)):
            any_unsettled = True
        if full > best:
            best, best_t = full, t
    if any_unsettled:
        return KruglovVerdict(finite=False, sup_value=best, N_used=num_terms,
                              t_argmax=best_t, inconclusive=True)
    return KruglovVerdict(finite=True, sup_value=best, N_used=num_terms, t_argmax=best_t)


_KRUGLOV_GENERATORS = {
    **{tok: parse_generator(tok) for tok in
       ("logpow:1", "logpow:2", "power:1", "power:0.5", "invsqrtlog", "example7", "gauss")},
    "table": table([(1e-3, 0.02), (0.05, 0.3), (0.4, 0.8), (1.0, 1.0)]),
    # phi(t) = (1 + log(1/t))^-2: increasing, with terms ~ (n log n)^-2 that
    # never underflow, so a stop on a small but nonzero term would show
    "logdecay": ConcaveGenerator(lambda t: np.log(np.e / t) ** -2.0,
                                 log_fn=lambda lt: -2.0 * np.log1p(-np.asarray(lt))),
}
_C = _KRUGLOV_CHUNK
# The crossing, the N/4 checkpoint and the stop fall on and off chunk edges.
# Threshold 1e9 makes the small-N probes inconclusive; at 2^20 it adds only the
# no-crossing walk of the slowly varying generator, which 4C + 3 terms cover.
_KRUGLOV_CASES = [(n, thr) for n in (4, 5, 8, _C - 1, _C, _C + 1, 4 * _C + 3)
                  for thr in (1e3, 1e9)] + [(2**20, 1e3)]
_KRUGLOV_GRIDS = (dichotomy._T_GRID, (1.0,), (0.01,), (5e-324,))


@pytest.mark.parametrize("token", list(_KRUGLOV_GENERATORS))
def test_kruglov_check_matches_full_array_oracle(monkeypatch, token):
    phi = _KRUGLOV_GENERATORS[token]
    for t_grid in _KRUGLOV_GRIDS:
        for num_terms, threshold in _KRUGLOV_CASES:
            want = _kruglov_check_full(phi, t_grid, num_terms, threshold)
            _kruglov_rule(monkeypatch, t_grid, threshold)
            got = kruglov_check(phi, num_terms=num_terms)
            assert repr(got) == repr(want), (t_grid, num_terms, threshold)


@pytest.mark.parametrize("phi, rule", [
    (power(1.0), None),  # every t stops within its first chunk
    (inv_sqrt_log(), ((1.0,), 1e9)),  # no stop: 256 chunks
], ids=["stops", "walks-to-the-end"])
def test_kruglov_check_memory_does_not_grow_with_terms(monkeypatch, traced_peak, phi, rule):
    if rule is not None:
        _kruglov_rule(monkeypatch, *rule)
    # a few chunk-sized arrays; one 2^22-term array alone is 32 MB
    assert traced_peak(kruglov_check, phi, num_terms=2**22) < 16 * 8 * _KRUGLOV_CHUNK


def test_kruglov_check_first_crossing_in_grid_order_wins(monkeypatch):
    # At threshold 100, invsqrtlog crosses at n = 56966 for t = 1, 24483 for
    # t = 0.5 and 5584 for t = 0.01, in the fourth, second and first chunks.
    # The t's are walked in grid order, so the verdict is that of the first t
    # in grid order that crosses at all, not of the first crossing in n.
    phi = inv_sqrt_log()
    alone = {}
    for t in (1.0, 0.5, 0.01):
        _kruglov_rule(monkeypatch, (t,), 100.0)
        alone[t] = kruglov_check(phi)
    assert [alone[t].N_used // _KRUGLOV_CHUNK for t in alone] == [3, 1, 0]
    for grid in ((1.0, 0.5, 0.01), (0.5, 1.0, 0.01), (0.01, 1.0)):
        _kruglov_rule(monkeypatch, grid, 100.0)
        assert kruglov_check(phi) == alone[grid[0]]
