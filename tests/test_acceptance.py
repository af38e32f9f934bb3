"""Acceptance gate: one check per advertised guarantee, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from rispaces import (
    Lorentz,
    Lpq,
    Marcinkiewicz,
    Orlicz,
    SamplerSpec,
    StepFunction,
    classify,
    exp_lp,
    gamma_iid_endpoint,
    gaussian_selfsimilarity_check,
    growth_table,
    indicator_ratio,
    inv_sqrt_log,
    kruglov_check,
    logpow,
    lorentz_operator_norm,
    mc_iid_sum_norm,
    power,
    rademacher_sum_norm,
    signed_indicator_sum_expectation,
    signed_indicator_sum_tail,
    space_norm,
)


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _enumerated_tails(n, u):
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


def test_criterion_1_exact_combinatorics():
    t0 = time.time()
    checked = 0
    for n in range(1, 9):
        for u in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            oracle = _enumerated_tails(n, u)
            for s in range(1, n + 1):
                assert signed_indicator_sum_tail(n, u, s) == oracle[s]
                checked += 1
    dt = time.time() - t0
    _report(1, dt < 5.0, f"{checked} exact tails match 3^n enumeration in {dt:.2f}s (< 5s)")


def test_criterion_2_extreme_tail_equality():
    ok = True
    for n in range(1, 21):
        for u in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
            ok = ok and signed_indicator_sum_tail(n, u, n) == Fraction(2, 2**n) * u**n
    _report(2, ok, "tail at s = n equals 2^(1-n) u^n exactly for n <= 20")


def test_criterion_3_linear_generator_degeneracy():
    norms = {n: lorentz_operator_norm(power(1.0), n) for n in (2, 8, 32)}
    lower_ok = all(v >= n * (1.0 - 1e-3) for n, v in norms.items())
    branch = classify(power(1.0)).branch
    ok = lower_ok and branch == "NormEqualsN"
    _report(
        3,
        ok,
        f"||A_n|| >= n(1-1e-3) at n=2,8,32 (got {[f'{v:.6f}' for v in norms.values()]}) "
        f"and classify -> {branch}",
    )


def test_criterion_4_power_bound_branch_and_algebra():
    details = []
    ok = True
    for psi, name in ((power(0.5), "power(1/2)"), (inv_sqrt_log(), "slow-log")):
        rep = classify(psi)
        branch_ok = (
            rep.branch == "PowerBound"
            and rep.q is not None
            and 0.5 <= rep.q < 1.0
            and rep.C is not None
            and math.isfinite(rep.C)
        )
        formula_C = (
            (math.sqrt(2.0) + 1.0)
            * rep.witness_n0**rep.q
            * max(rep.opnorms[s] for s in range(1, rep.witness_n0 + 1))
        )
        branch_ok = branch_ok and abs(rep.C - formula_C) <= 1e-9 * formula_C
        sizes = (2, 4, 8, 16)
        norm = {}
        for n in sorted({*sizes, *(a + b for a in sizes for b in sizes),
                         *(a * b for a in sizes for b in sizes if a * b <= 256)}):
            norm[n] = lorentz_operator_norm(psi, n)
        algebra_ok = True
        for a in sizes:
            for b in sizes:
                algebra_ok = algebra_ok and norm[a + b] <= (norm[a] + norm[b]) * (1 + 1e-6)
                if a * b <= 256:
                    algebra_ok = algebra_ok and norm[a * b] <= norm[a] * norm[b] * (1 + 1e-6)
        ok = ok and branch_ok and algebra_ok
        details.append(f"{name}: q={rep.q:.4f} C={rep.C:.4f} algebra={'ok' if algebra_ok else 'BAD'}")
    _report(4, ok, "; ".join(details))


def test_criterion_5_gaussian_self_similarity():
    t0 = time.time()
    ratios = {n: gaussian_selfsimilarity_check(n, 2**16) for n in (2, 4, 16)}
    dt = time.time() - t0
    ok = all(abs(r / math.sqrt(n) - 1.0) <= 0.01 for n, r in ratios.items()) and dt < 60.0
    _report(
        5,
        ok,
        f"ratios {[f'{r:.5f}' for r in ratios.values()]} vs sqrt(n) within 1% "
        f"at grid 2^16 in {dt:.1f}s (< 60s)",
    )


def test_criterion_6_exponential_orlicz_exponents():
    t0 = time.time()
    ns = [2**j for j in range(4, 15)]
    details = []
    ok = True
    for p in (1.0, 2.0, 4.0, 8.0):
        fit = growth_table(Marcinkiewicz(logpow(p)), ns=ns)
        target_q = max(0.5, 1.0 - 1.0 / p)
        endpoint = gamma_iid_endpoint(fit)
        target_e = 1.0 / target_q
        ok = ok and abs(fit.q - target_q) <= 0.05 and abs(endpoint - target_e) <= 0.1
        details.append(f"p={p:g}: q={fit.q:.3f} (target {target_q}), 1/q={endpoint:.3f}")
    dt = time.time() - t0
    _report(6, ok and dt < 120.0, "; ".join(details) + f"; {dt:.1f}s (< 120s)")


def test_criterion_7_kruglov_criterion():
    fin = kruglov_check(power(1.0))
    div = kruglov_check(inv_sqrt_log())
    ok = (
        fin.finite
        and abs(fin.sup_value - (math.e - 1.0)) <= 1e-6
        and not div.finite
        and not div.inconclusive
        and div.N_used < 10**6
    )
    _report(
        7,
        ok,
        f"power(1) finite sup={fin.sup_value:.8f} (e-1 within 1e-6); "
        f"slow-log divergent, crossed 1e3 at N={div.N_used} < 1e6",
    )


def test_criterion_8_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(2024)

    # equimeasurability of rearrange, exact arithmetic
    equi_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 7))
        cuts = sorted({Fraction(int(x), 64) for x in rng.integers(1, 64, size=k - 1)})
        bps = [Fraction(0), *cuts, Fraction(1)]
        vals = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(0, 9, size=len(bps) - 1),
                                                         rng.integers(1, 5, size=len(bps) - 1))]
        f = StepFunction(bps, vals)
        r = f.rearrange()
        for s in (Fraction(0), Fraction(1, 2), Fraction(3, 2), Fraction(3)):
            equi_ok = equi_ok and r.measure_above(s) == f.measure_above(s)

    # normalized indicator ratio stays in (0, 1]
    gens = [power(1.0), power(0.5), logpow(2.0), inv_sqrt_log()]
    g_ok = True
    for _ in range(1000):
        psi = gens[int(rng.integers(0, len(gens)))]
        n = int(rng.integers(1, 65))
        u = float(np.exp(rng.uniform(np.log(1e-12), 0.0)))
        g = indicator_ratio(psi, n, u)
        g_ok = g_ok and 0.0 < g <= 1.0 + 1e-12

    # strict expectation inequality E|S_n| < n u
    e_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 50))
        u = float(rng.uniform(0.02, 1.0))
        e_ok = e_ok and 0.0 < signed_indicator_sum_expectation(n, u) < n * u

    # homogeneity and triangle at 1e-10
    spaces = [Lorentz(power(0.5)), Marcinkiewicz(logpow(2.0)), Orlicz(exp_lp(2.0)), Lpq(2.0, 1.0)]
    ht_ok = True
    for _ in range(10):
        k1, k2 = rng.integers(2, 8, size=2)
        f = StepFunction(np.concatenate(([0.0], np.sort(rng.random(k1 - 1)), [1.0])),
                         rng.random(k1) * 3)
        g = StepFunction(np.concatenate(([0.0], np.sort(rng.random(k2 - 1)), [1.0])),
                         rng.random(k2) * 3)
        c = float(rng.uniform(0.2, 5.0))
        for sp in spaces:
            nf, ng = space_norm(f, sp), space_norm(g, sp)
            ht_ok = ht_ok and abs(space_norm(f.scale(c), sp) - c * nf) <= 1e-10 * max(1.0, c * nf)
            ht_ok = ht_ok and space_norm(f + g, sp) <= nf + ng + 1e-10

    # Monte Carlo vs exact within 3 standard errors (m = trials: lossless
    # compression; coarser m biases tail-weighted norms, see decision ledger)
    mc_ok = True
    for sp in spaces:
        for n in (4, 16, 64):
            exact = rademacher_sum_norm(n, sp)
            vals = [mc_iid_sum_norm(SamplerSpec("rademacher", seed=s), n, sp, trials=20_000, m=20_000)
                    for s in range(6)]
            se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
            mc_ok = mc_ok and abs(float(np.mean(vals)) - exact) <= 3.0 * se

    dt = time.time() - t0
    ok = equi_ok and g_ok and e_ok and ht_ok and mc_ok and dt < 600.0
    _report(
        8,
        ok,
        f"equimeasurability={'ok' if equi_ok else 'BAD'}, g in (0,1] x1000={'ok' if g_ok else 'BAD'}, "
        f"strict E|S|<nu x20={'ok' if e_ok else 'BAD'}, homog/triangle 1e-10={'ok' if ht_ok else 'BAD'}, "
        f"MC vs exact 3se={'ok' if mc_ok else 'BAD'}; {dt:.1f}s (< 600s)",
    )


def test_criterion_9_lpq_consistency():
    triples = [
        (Fraction(1, 4), 2.0, 1.0),
        (Fraction(1, 2), 2.0, 1.0),
        (Fraction(3, 4), 2.0, 2.0),
        (Fraction(1, 8), 1.5, 1.2),
        (Fraction(1, 3), 1.5, 1.0),
        (Fraction(2, 3), 3.0, 1.0),
        (Fraction(1, 16), 4.0, 2.0),
        (Fraction(5, 8), 2.5, 1.5),
        (Fraction(1), 2.0, 1.0),
        (Fraction(9, 16), 4.0, 4.0),
    ]
    exact_ok = all(
        abs(space_norm(StepFunction.indicator(u), Lpq(p, q)) - float(u) ** (1.0 / p))
        <= 1e-12 * float(u) ** (1.0 / p)
        for u, p, q in triples
    )
    fit = growth_table(
        Lpq(1.5, 1.2),
        ns=[16, 32, 64, 128, 256],
        mode="mc",
        sampler=SamplerSpec("signed_indicator", u=0.5, seed=11),
        trials=20_000,
        m=2048,
    )
    ok = exact_ok and fit.q <= 0.72 and not fit.degenerate
    _report(
        9,
        ok,
        f"10 indicator norms equal u^(1/p) (1e-12); mc growth in Lpq(1.5,1.2) "
        f"fits q={fit.q:.3f} <= 0.72",
    )
