import math
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from rispaces import (
    Lorentz,
    Lpq,
    Marcinkiewicz,
    SamplerSpec,
    StepFunction,
    custom_sampler,
    fit_growth,
    gamma_iid_endpoint,
    gaussian_law,
    gaussian_selfsimilarity_check,
    growth_table,
    logpow,
    mc_iid_sum_norm,
    parse_sampler,
    power,
    rademacher,
    rademacher_sum_norm,
    signed_indicator,
    space_norm,
    walk_distribution,
)
from rispaces import experiments
from rispaces.experiments import _draw_sums, _lattice_norm, _rng_for, _row_sums, fftconvolve
from rispaces.gaussian import erfc_inverse, upper_tail
from rispaces.generators import gauss
from test_norms import ALL_SPACES


# ------------------------------------------------------------------- samplers


def test_sampler_validation():
    with pytest.raises(ValueError):
        signed_indicator(0.0)
    with pytest.raises(ValueError):
        signed_indicator(1.5)
    with pytest.raises(ValueError):
        custom_sampler([1.0, 2.0])
    with pytest.raises(ValueError):
        custom_sampler([])
    custom_sampler([-2.0, -1.0, 1.0, 2.0])
    # the type checks its own law: a direct construction meets the helpers' checks
    refused = [
        (dict(kind="weird"), "unknown sampler kind 'weird'"),
        (dict(kind="signed_indicator"), r"u must lie in \(0, 1\]"),
        (dict(kind="custom"), "needs at least one quantile"),
        (dict(kind="custom", quantiles=()), "needs at least one quantile"),
        (dict(kind="custom", quantiles=(math.inf,)), "quantiles must be finite"),
        (dict(kind="custom", quantiles=(0.0, 5.0)), "law must be symmetric"),
        # a field the kind never reads made two specs of one law compare unequal
        (dict(kind="rademacher", u=7.0), "^a rademacher sampler takes no u: only signed_"),
        (dict(kind="gaussian", quantiles=(1.0, -1.0)),
         "^a gaussian sampler takes no quantiles: only custom reads it$"),
        (dict(kind="signed_indicator", u=0.5, quantiles=(1.0, -1.0)),
         "^a signed_indicator sampler takes no quantiles"),
    ] + [(dict(kind="signed_indicator", u=u), r"u must lie in \(0, 1\]")
         for u in (0.0, 5.0, math.nan)]
    for kwargs, message in refused:
        with pytest.raises(ValueError, match=message):
            SamplerSpec(**kwargs)
    assert SamplerSpec(kind="custom", quantiles=(2.0, -2.0)) == custom_sampler([-2.0, 2.0])


def test_sampler_refuses_a_bad_seed():
    # NumPy refuses these only at the first draw, or fails there with a TypeError
    for seed in (-5, 1.5, True, "3", None):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            rademacher(seed)
    with pytest.raises(ValueError, match="got -5"):
        parse_sampler("rademacher", -5)
    assert rademacher(np.int64(3)).seed == 3


def test_parse_sampler(tmp_path):
    assert parse_sampler("rademacher").kind == "rademacher"
    s = parse_sampler("signed:0.25", seed=3)
    assert s.kind == "signed_indicator" and s.u == 0.25 and s.seed == 3
    assert parse_sampler("gauss").kind == "gaussian"
    p = tmp_path / "law.csv"
    p.write_text("-1.5\n-0.5\n0.5\n1.5\n")
    c = parse_sampler(f"custom:{p}")
    assert c.quantiles == (-1.5, -0.5, 0.5, 1.5)
    with pytest.raises(ValueError):
        parse_sampler("weird")


def test_custom_file_may_start_with_a_header(tmp_path):
    # the custom: file is read by the table's rules: a first row with no number in it
    # is a header, and a row with no text is skipped
    p = tmp_path / "law.csv"
    p.write_text("atom\n-1.5\n\n , \n1.5\n")
    assert parse_sampler(f"custom:{p}").quantiles == (-1.5, 1.5)


def test_draws_deterministic_and_independent_of_batching():
    s = signed_indicator(0.5, seed=7)
    a = _draw_sums(s, 8, 3000)
    b = _draw_sums(s, 8, 3000)
    assert np.array_equal(a, b)
    # a different n keys a different stream
    c = _draw_sums(s, 9, 3000)
    assert not np.array_equal(a[:100], c[:100])


def test_draw_distributions_match_laws():
    n, trials = 1, 200_000
    r = _draw_sums(rademacher(seed=1), n, trials)
    assert set(np.unique(r)) == {-1.0, 1.0}
    assert abs(r.mean()) < 4.0 / math.sqrt(trials)
    s = _draw_sums(signed_indicator(0.25, seed=2), n, trials)
    assert abs(float(np.mean(s == 0.0)) - 0.75) < 0.005
    g = _draw_sums(gaussian_law(seed=3), n, trials)
    assert abs(g.std() - 1.0) < 0.01
    c = _draw_sums(custom_sampler([-2.0, -1.0, 1.0, 2.0], seed=4), n, trials)
    assert set(np.unique(c)) == {-2.0, -1.0, 1.0, 2.0}
    assert abs(float(np.mean(np.abs(c) == 2.0)) - 0.5) < 0.005


# The draws as NumPy's samplers make them, one float per draw: the route the
# raw-word Rademacher decoding and the counted signed draws replaced, kept
# here as their oracle.


def _old_draw_block(spec, rng, shape):
    if spec.kind == "rademacher":
        return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    if spec.kind == "signed_indicator":
        roll = rng.random(size=shape)
        half = spec.u / 2.0
        return np.where(roll < half, 1.0, np.where(roll > 1.0 - half, -1.0, 0.0))
    raise AssertionError(spec.kind)


def _old_draw_sums(spec, n, trials, chunk=2**22):
    rng = _rng_for(spec, n)
    out = np.empty(trials)
    rows_per_chunk = max(1, chunk // n)
    done = 0
    while done < trials:
        c = min(rows_per_chunk, trials - done)
        out[done : done + c] = _old_draw_block(spec, rng, (c, n)).sum(axis=1)
        done += c
    return out


SIGN_LAWS = [rademacher(seed=21)] + [
    signed_indicator(u, seed=22) for u in (1.0, 0.5, 1.0 / 3.0, 1e-9)
]


@pytest.mark.parametrize("n", [1, 2, 7, 513, 1024, 4095])
def test_sign_draws_match_numpy_samplers(monkeypatch, n):
    for spec in SIGN_LAWS:
        for trials in (1000, 1001):
            want = _old_draw_sums(spec, n, trials)
            # the chunk sets memory only: odd sizes split rows and words anywhere
            for chunk in (experiments._MC_CHUNK, 99, 1501, 4097):
                monkeypatch.setattr(experiments, "_MC_CHUNK", chunk)
                got = _draw_sums(spec, n, trials)
                monkeypatch.undo()
                assert np.array_equal(got, want), (spec.label(), n, trials, chunk)


def test_sign_draw_thresholds_at_the_edges():
    # u = 1: random() == 0.5 draws 0, the only value neither comparison takes,
    # while the largest double below 1 draws -1 and 0.0 draws +1; a seeded
    # stream gives exactly 0.5 with chance 2^-53 per draw, so a stub feeds them
    rolls = SimpleNamespace(random=lambda shape: np.reshape([0.5, 1.0 - 2.0**-53, 0.0], shape))
    assert _row_sums(signed_indicator(1.0), rolls, 3, 1).tolist() == [0, -1, 1]
    # u = 1e-17: 1 - u/2 rounds to 1, so no draw can be -1
    assert 1.0 - 1e-17 / 2.0 == 1.0
    spec = signed_indicator(1e-17, seed=1)
    assert np.array_equal(_draw_sums(spec, 4, 1000), _old_draw_sums(spec, 4, 1000))


# -------------------------------------------------------------- exact norms


def test_rademacher_sum_norm_small_is_exact_law_norm():
    sp = Lorentz(power(1.0))
    for n in (1, 2, 5, 16):
        direct = space_norm(walk_distribution(n), sp)
        assert rademacher_sum_norm(n, sp) == pytest.approx(direct, rel=1e-12)


def test_rademacher_sum_norm_routes_agree_at_cap():
    # the layered route must continue the exact route smoothly across n = 64
    sp = Marcinkiewicz(logpow(2.0))
    v63 = rademacher_sum_norm(63, sp)
    v64 = rademacher_sum_norm(64, sp)
    v65 = rademacher_sum_norm(65, sp)
    assert v63 < v64 < v65
    assert (v65 - v64) < 2.0 * (v64 - v63) + 1e-6


def test_rademacher_sum_norm_validation():
    with pytest.raises(ValueError):
        rademacher_sum_norm(0, Lorentz(power(1.0)))
    with pytest.raises(ValueError):
        rademacher_sum_norm(2**20 + 1, Lorentz(power(1.0)))


# -------------------------------------------------------------- Monte Carlo


def test_mc_matches_exact_within_three_standard_errors():
    # m = trials keeps the quantile compression lossless (the empirical
    # rearrangement itself); coarser m smears the sample maximum over 1/m and
    # biases tail-weighted norms upward beyond any statistical tolerance
    for sp in ALL_SPACES:
        for n in (4, 16, 64):
            exact = rademacher_sum_norm(n, sp)
            vals = [
                mc_iid_sum_norm(rademacher(seed=s), n, sp, trials=20_000, m=20_000)
                for s in range(6)
            ]
            mean = float(np.mean(vals))
            se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
            assert abs(mean - exact) <= 3.0 * se


def test_mc_custom_two_atom_law_matches_rademacher():
    # custom:[-1, 1] is the Rademacher law; same protocol and tolerance as above
    for sp in ALL_SPACES:
        for n in (4, 16):
            exact = rademacher_sum_norm(n, sp)
            vals = [
                mc_iid_sum_norm(custom_sampler([-1.0, 1.0], seed=s), n, sp,
                                trials=20_000, m=20_000)
                for s in range(6)
            ]
            mean = float(np.mean(vals))
            se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
            assert abs(mean - exact) <= 3.0 * se


def test_mc_deterministic():
    sp = Lpq(2.0, 1.0)
    a = mc_iid_sum_norm(rademacher(seed=5), 8, sp, trials=2000, m=256)
    b = mc_iid_sum_norm(rademacher(seed=5), 8, sp, trials=2000, m=256)
    assert a == b


def test_mc_validation():
    sp = Lorentz(power(1.0))
    with pytest.raises(ValueError):
        mc_iid_sum_norm(rademacher(), 4, sp, trials=500)
    with pytest.raises(ValueError):
        mc_iid_sum_norm(rademacher(), 4, sp, trials=2000, m=16)


# --------------------------------------------------- Gaussian self-similarity


def test_selfsimilarity_ratio_is_sqrt_n():
    assert gaussian_selfsimilarity_check(1, 2**12) == 1.0
    for n in (2, 4):
        r = gaussian_selfsimilarity_check(n, 2**12)
        assert r == pytest.approx(math.sqrt(n), rel=1e-3)


def test_selfsimilarity_at_sixteen_keeps_its_bits():
    # Recorded before the lattice fold, the FFT products and the clipping ran
    # in place.  The ratio prices an even lattice (one variable, 2^16 cells)
    # and an odd one (the sum, 2^20 - 15 cells), so both folds are pinned.
    assert repr(gaussian_selfsimilarity_check(16)) == "3.9999671964023635"


_OWN_PEAK_KIB = (
    "print([l for l in open('/proc/self/status') if l.startswith('VmHWM:')][0].split()[1])"
)


def _own_peak_mib(code: str, env) -> float:
    # the child's own high-water mark: wait4's ru_maxrss would start at ours
    proc = subprocess.run(
        [sys.executable, "-c", code + "\n" + _OWN_PEAK_KIB],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_selfsimilarity_at_sixteen_peak_memory(child_env):
    # Above a child that only loads the package and SciPy, the check peaked
    # 42 MiB higher while each squaring kept its input lattice through the
    # inverse transform, 34 MiB higher once the input was freed first, and
    # 33.3 MiB higher once the lattice edges went and the one-variable lattice
    # was priced after the last transform.  Since the Gaussian law loads no
    # SciPy, the base loads the package alone: 33.9 MiB higher.
    base = _own_peak_mib("import rispaces", child_env)
    check = _own_peak_mib(
        "from rispaces import gaussian_selfsimilarity_check\n"
        "gaussian_selfsimilarity_check(16)",
        child_env,
    )
    assert check - base <= 38.0


def test_fftconvolve_takes_its_first_operand_from_a_list():
    rng = np.random.default_rng(3)
    a, b = rng.random(100), rng.random(37)
    handed = [a.copy()]
    got = fftconvolve(handed, b)
    assert handed == []
    np.testing.assert_array_equal(got, fftconvolve(a, b))
    handed = [a.copy()]
    np.testing.assert_array_equal(fftconvolve(handed), fftconvolve(a, a))
    assert handed == []


@pytest.mark.parametrize("na, nb", [(1, 1), (1, 6), (2, 2), (3, 2), (7, 7), (64, 33), (1000, 17)])
def test_fftconvolve_matches_direct_convolution(na, nb):
    rng = np.random.default_rng(na * 1000 + nb)
    a, b = rng.random(na), rng.random(nb)
    a, b = a / a.sum(), b / b.sum()  # probability vectors, as in the self-similarity check
    want = np.convolve(a, b)
    got = fftconvolve(a, b)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13
    assert np.max(np.abs(fftconvolve(a, a) - np.convolve(a, a))) <= 1e-13


def _selfsimilarity_by_sequential_convolution(n: int, grid_size: int) -> float:
    # the route before binary powering: n - 1 direct products, each clipped
    space = Marcinkiewicz(gauss())
    L = float(erfc_inverse(1.0 / grid_size))
    edges = np.linspace(-L, L, grid_size + 1)
    pmf = np.diff(0.5 * upper_tail(-edges))
    tail_mass = 0.5 * float(upper_tail(L))
    pmf[0] += tail_mass
    pmf[-1] += tail_mass
    pmf /= pmf.sum()
    conv = pmf
    for _ in range(n - 1):
        conv = np.convolve(conv, pmf)
        conv[conv < conv.max() * 1e-13] = 0.0
        conv = conv / conv.sum()
    h = edges[1] - edges[0]
    return _lattice_norm(conv, h, space) / _lattice_norm(pmf, h, space)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_selfsimilarity_binary_powering_matches_sequential_route(n):
    want = _selfsimilarity_by_sequential_convolution(n, 2**12)
    assert gaussian_selfsimilarity_check(n, 2**12) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("space", [Marcinkiewicz(gauss()), Lorentz(power(0.5))],
                         ids=["marcinkiewicz-gauss", "lorentz-power-0.5"])
def test_lattice_layer_below_the_logs_resolution_is_dropped(space):
    # the two middle cells grow the cumulative tail by one ulp, which its log does
    # not see: that layer has no measure at the log's resolution and goes, as it
    # does from a step function, so the lattice prices as if the cells were empty
    a = 0.5e-3
    b = np.nextafter(2 * a, 1.0) - 2 * a
    assert np.log(2 * a + b) == np.log(2 * a)
    got = _lattice_norm(np.array([a, b / 2, b / 2, a]), 1.0, space)
    assert got == _lattice_norm(np.array([a, 0.0, 0.0, a]), 1.0, space)


def test_import_does_not_load_scipy_signal(child_env):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rispaces; print('scipy.signal' in sys.modules)"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


_SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def test_no_command_loads_scipy(child_env):
    # the Gaussian law's erfc and erfcinv are the package's own, so neither the
    # import nor any command, the Gaussian ones included, loads SciPy
    script = (
        "import sys, contextlib, io\n"
        "import rispaces\n"
        f"print({_SCIPY_LOADED})\n"
        "from rispaces.cli import main\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv.split())\n"
        f"    print(code, {_SCIPY_LOADED})\n"
        "rispaces.gaussian_selfsimilarity_check(4)\n"
        f"print({_SCIPY_LOADED})\n"
    )
    commands = [
        "growth --space orlicz:np:2 --ns 16,32,64,128",
        "opnorm --psi power:0.5 --n 32",
        "kruglov --psi logpow:2 --max-terms 4096",
        "norm --space marcinkiewicz:gauss --indicator 1/4",
        "mc --sampler gauss --space marcinkiewicz:gauss --n 16 --trials 2000",
    ]
    proc = subprocess.run(
        [sys.executable, "-c", script, *commands],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", *["0 False"] * len(commands), "False"]


def test_selfsimilarity_grid_validation():
    with pytest.raises(ValueError):
        gaussian_selfsimilarity_check(2, 512)
    with pytest.raises(ValueError):
        gaussian_selfsimilarity_check(0, 2**12)


# ------------------------------------------------------------------ fits


def test_fit_growth_recovers_synthetic_power_law():
    fit = fit_growth([(n, 3.0 * n**0.7) for n in (2, 4, 8, 16, 32, 64)])
    assert fit.q == pytest.approx(0.7, abs=1e-12)
    assert fit.C == pytest.approx(3.0, rel=1e-12)
    assert fit.residual < 1e-12
    assert not fit.degenerate


def test_fit_growth_linear():
    fit = fit_growth([(n, float(n)) for n in (2, 4, 8, 16, 32)], burn_in=0)
    assert fit.q == pytest.approx(1.0, abs=1e-13)
    assert fit.C == pytest.approx(1.0, rel=1e-13)


def test_fit_growth_flags_degenerate_sequences():
    fit = fit_growth([(2, 1.0), (4, 2.0), (8, 1.0), (16, 2.0)], burn_in=0)
    assert fit.degenerate


def test_fit_growth_validation():
    with pytest.raises(ValueError):
        fit_growth([(4, 1.0), (2, 2.0)], burn_in=0)
    with pytest.raises(ValueError):
        fit_growth([(2, 1.0), (4, 0.0)], burn_in=0)
    with pytest.raises(ValueError):
        fit_growth([(2, 1.0), (4, 2.0)], burn_in=2)


@pytest.mark.parametrize("fit, pairs", [
    (lambda b: fit_growth([(2, 1.0), (8, 2.0), (16, 3.0)], burn_in=b), 3),
    (lambda b: growth_table(Lpq(2.0, 1.0), [2, 8, 16, 32], burn_in=b), 4),
], ids=["fit_growth", "growth_table"])
def test_a_burn_in_that_leaves_one_pair_has_its_own_message(fit, pairs):
    # a burn-in that is no integer >= 0 reads otherwise (test_numeric's integer sites)
    with pytest.raises(ValueError, match="^need at least two pairs after burn-in$"):
        fit(pairs - 1)
    assert fit(pairs - 2).burn_in == pairs - 2


def test_fit_growth_names_the_first_value_that_is_not_positive():
    with pytest.raises(ValueError, match=r"^values must be positive, got 0\.0 at n = 4$"):
        fit_growth([(2, 1.0), (4, 0.0), (8, -1.0)], burn_in=0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"^values must be finite, got {bad!r} at n = 4$"):
            fit_growth([(2, 1.0), (4, bad), (8, 3.0)], burn_in=0)


def test_growth_table_exact_sqrt_scale():
    fit = growth_table(Marcinkiewicz(logpow(1.0)), ns=[2**j for j in range(4, 11)])
    assert fit.q == pytest.approx(0.5, abs=0.05)
    assert not fit.degenerate
    assert gamma_iid_endpoint(fit) == pytest.approx(2.0, abs=0.1)


def test_growth_table_validation():
    sp = Lorentz(power(1.0))
    with pytest.raises(ValueError):
        growth_table(sp, ns=[4, 8, 16])
    with pytest.raises(ValueError):
        growth_table(sp, ns=[4, 4, 8, 16])
    with pytest.raises(ValueError):
        growth_table(sp, ns=[4, 5, 6, 7])
    with pytest.raises(ValueError):
        growth_table(sp, ns=[4, 8, 16, 32], mode="mc")
    with pytest.raises(ValueError, match="unknown mode 'x'"):
        growth_table(sp, ns=[4, 8, 16, 32], mode="x")


def test_gamma_endpoint_validation():
    fit = fit_growth([(n, float(n) ** 1.5) for n in (2, 4, 8, 16)], burn_in=0)
    with pytest.raises(ValueError):
        gamma_iid_endpoint(fit)


# ------------------------------------------------------------ disjoint sums


def test_disjoint_sum_additive_measure():
    f1 = StepFunction([Fraction(0), Fraction(1, 4), Fraction(1)], [Fraction(1), Fraction(0)])
    f2 = StepFunction(
        [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(0)],
    )
    # equal-height blocks on touching intervals merge into one indicator
    got = space_norm(f1 + f2, Lorentz(power(1.0)))
    assert got == pytest.approx(0.5, rel=1e-13)
    got_psi = space_norm(f1 + f2, Lorentz(power(0.5)))
    assert got_psi == pytest.approx(math.sqrt(0.5), rel=1e-13)


def test_disjoint_sum_lp_block_scaling():
    # k disjoint unit-height blocks of measure 1/8 each: L_p norm (k/8)^(1/p)
    blocks = []
    for i in range(4):
        a, b = Fraction(i, 8), Fraction(i + 1, 8)
        blocks.append(
            StepFunction(
                [Fraction(0), a, b, Fraction(1)] if i else [Fraction(0), b, Fraction(1)],
                [Fraction(0), Fraction(1), Fraction(0)] if i else [Fraction(1), Fraction(0)],
            )
        )
    got = space_norm(sum(blocks[1:], blocks[0]), Lpq(2.0, 2.0))
    assert got == pytest.approx(math.sqrt(0.5), rel=1e-12)
