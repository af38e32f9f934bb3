"""Workloads of the rispaces benchmark: command lists, seeded inputs and output oracles.

A workload is a fixed list of commands.  Each command runs as a fresh child
process: either the CLI (``python -m rispaces.cli ARGS --format json``) or, for
``gaussian_selfsimilarity_check``, which has no CLI command, a one-line driver.
The workload seed sets every ``--seed`` value and the generated step file; the
amount of work does not depend on it.

Every command carries an oracle.  Closed forms are used where they exist
(indicator norms, criterion-6 exponents, the Kruglov series at t = 1, the
classifier's constants, sqrt(n) for Gaussian sums, an independent NumPy pricing
of the step file).  Otherwise outputs are compared with values recorded on the
seed commit (``reference.json``, written by ``record.py``), and Monte Carlo
outputs with the exact law priced by the exact route, never with recorded
Monte Carlo bytes.  Tolerances are stated next to each check.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

SIZES = ("full", "small")

# gaussian_selfsimilarity_check has no CLI command; this is its untraced driver.
SELFSIM_DRIVER = (
    "import sys; from rispaces import gaussian_selfsimilarity_check as g; "
    "print(repr(g(int(sys.argv[1]))))"
)

# A recorded exact value may move by this much when a later change reorders
# floating-point work on the same exact route (e.g. a new root finder that
# keeps the 1e-12 modular contract).
RECORDED_RTOL = 1e-9
# Search outputs (sup over u, fitted exponents) may move by more when the
# search itself is replaced.
SEARCH_RTOL = 1e-6


@dataclass
class Command:
    id: str
    kind: str  # "cli" or "selfsim"
    args: List[str]
    check: Callable  # check(output, ref) -> list of problems
    seeded: bool = False  # arguments or input files depend on the workload seed

    def parse(self, stdout: bytes):
        text = stdout.decode()
        return json.loads(text) if self.kind == "cli" else float(text)


# ------------------------------------------------------------------ oracles


def _near(problems, label, got, want, rel):
    if not (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= rel * abs(want)):
        problems.append(f"{label}: got {got!r}, want {want!r} (rel tol {rel:g})")


def _recorded(ref, key):
    if ref is None or "payload" not in ref:
        raise LookupError(f"no recorded value for {key}")
    return ref["payload"][key]


def check_opnorm(out, ref):
    """||A_n|| = n * sup ratio, the ratio in (0, 1], and the recorded value."""
    p = []
    n, value, sup = out["n"], out["opnorm"], out["sup_ratio"]
    if not 0.0 < sup <= 1.0:
        p.append(f"sup ratio {sup!r} outside (0, 1]")
    _near(p, "opnorm vs n * sup ratio", value, n * sup, 1e-12)
    _near(p, "opnorm vs seed", value, _recorded(ref, "opnorm"), SEARCH_RTOL)
    return p


def check_classify(kruglov_divergent: bool):
    """PowerBound branch; q and C recomputed from their formulas; Kruglov verdict."""

    def check(out, ref):
        p = []
        if out["branch"] != "PowerBound" or out["inconclusive"]:
            return [f"branch {out['branch']!r}, inconclusive={out['inconclusive']}"]
        norms = {int(k): v for k, v in out["opnorms"].items()}
        n0, q, C = out["witness_n0"], out["q"], out["C"]
        if not (n0 in norms and norms[n0] < n0):
            p.append(f"witness n0={n0} does not measure below n0")
        if not 0.5 <= q < 1.0:
            p.append(f"q={q!r} outside [1/2, 1)")
        _near(p, "q formula", q, max(0.5, math.log(norms[n0]) / math.log(n0)), 1e-12)
        c_formula = (math.sqrt(2.0) + 1.0) * n0**q * max(norms[s] for s in range(1, n0 + 1))
        _near(p, "C formula", C, c_formula, 1e-9)
        _near(p, "q vs seed", q, _recorded(ref, "q"), SEARCH_RTOL)
        _near(p, "C vs seed", C, _recorded(ref, "C"), SEARCH_RTOL)
        kv = out["kruglov"]
        if kruglov_divergent and not (
            kv and not kv["finite"] and not kv["inconclusive"] and kv["sup_value"] == "inf"
        ):
            p.append(f"Kruglov verdict {kv!r}, want divergent")
        return p

    return check


def kruglov_series_at_one(p: float) -> float:
    """sum_n phi(1/n!) / phi(1) for phi(t) = t log(e/t)^(1/p): closed-form terms."""
    total, n = 0.0, 1
    while True:
        lf = math.lgamma(n + 1.0)
        term = math.exp(-lf) * (1.0 + lf) ** (1.0 / p)
        total += term
        if term < 1e-18 * total:
            return total
        n += 1


def check_kruglov_logpow(p_param: float, terms: int):
    """logpow generators pass the series criterion; sup at t = 1 is a closed-form sum."""
    want = kruglov_series_at_one(p_param)

    def check(out, ref):
        p = []
        if not out["finite"] or out["inconclusive"] or out["N_used"] != terms:
            p.append(f"verdict finite={out['finite']} inconclusive={out['inconclusive']} "
                     f"N={out['N_used']}, want finite with N={terms}")
        if out["t_argmax"] != 1.0:
            p.append(f"t_argmax {out['t_argmax']!r}, want 1.0")
        _near(p, "sup at t = 1", out["sup_value"], want, 1e-9)
        return p

    return check


def check_growth_exact(ns: List[int], target_q: Optional[float] = None):
    """Exact growth table: recorded values; criterion 6 exponent when a target is given."""

    def check(out, ref):
        p = []
        pairs = out["pairs"]
        if [n for n, _ in pairs] != ns or out["degenerate"]:
            return [f"table sizes {[n for n, _ in pairs]} degenerate={out['degenerate']}"]
        for (n, v), (_, w) in zip(pairs, _recorded(ref, "pairs")):
            _near(p, f"value at n={n} vs seed", v, w, RECORDED_RTOL)
        if target_q is not None:
            q = out["q"]
            if abs(q - target_q) > 0.05 or abs(1.0 / q - 1.0 / target_q) > 0.1:
                p.append(f"q={q!r} vs criterion-6 target {target_q} (0.05; 1/q within 0.1)")
        return p

    return check


def check_closed_form(want: float):
    def check(out, ref):
        p = []
        _near(p, "norm vs closed form", out["norm"], want, 1e-10)
        return p

    return check


def check_mc(lo: float, hi: float, exact: Optional[float] = None):
    """Monte Carlo norm over the exact norm of the same law, minus 1, in [lo, hi]."""

    def check(out, ref):
        want = exact if exact is not None else ref["exact"]
        err = out["norm"] / want - 1.0
        if not lo <= err <= hi:
            return [f"mc {out['norm']!r} vs exact {want!r}: relative error {err:+.4f} "
                    f"outside [{lo:+g}, {hi:+g}]"]
        return []

    return check


def check_growth_mc(ns: List[int], tol: float, max_q: Optional[float]):
    """Each Monte Carlo value within tol of the exact signed-indicator law; criterion 9."""

    def check(out, ref):
        p = []
        pairs = out["pairs"]
        if [n for n, _ in pairs] != ns or out["degenerate"]:
            return [f"table sizes {[n for n, _ in pairs]} degenerate={out['degenerate']}"]
        for n, v in pairs:
            want = ref["exact"][str(n)]
            if abs(v / want - 1.0) > tol:
                p.append(f"n={n}: mc {v!r} vs exact {want!r} beyond {tol:g}")
        if max_q is not None and out["q"] > max_q:
            p.append(f"fitted q={out['q']!r} above criterion-9 limit {max_q}")
        return p

    return check


def check_selfsim(n: int):
    def check(out, ref):
        if abs(out / math.sqrt(n) - 1.0) > 0.01:
            return [f"ratio {out!r} vs sqrt({n}) beyond 1%"]
        return []

    return check


# ------------------------------------------------------------- step file input


def make_step_file(path: Path, seed: int, pieces: int):
    """Float step function with exponential values on uniform random cuts."""
    rng = np.random.default_rng(seed)
    bp = np.concatenate(([0.0], np.sort(rng.random(pieces - 1)), [1.0]))
    values = rng.exponential(1.0, size=pieces)
    path.write_text(json.dumps({"breakpoints": bp.tolist(), "values": values.tolist()}))
    return bp, values


def orlicz_exp_norm(bp, values, p: float) -> float:
    """Luxemburg norm for M(u) = e^(u^p) - 1, by bisection on log lambda."""
    lengths = np.diff(bp)

    def modular(lam):
        with np.errstate(over="ignore"):  # inf just means lambda is far too small
            return float(np.sum(lengths * np.expm1((values / lam) ** p)))

    lo, hi = float(np.max(values)) * 1e-3, float(np.max(values)) * 1e3
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if modular(mid) > 1.0 else (lo, mid)
    return math.sqrt(lo * hi)


def marcinkiewicz_logpow_norm(bp, values, p: float) -> float:
    """sup_tau int_0^tau f* / phi(tau), phi(t) = t log(e/t)^(1/p); attained at breakpoints."""
    order = np.argsort(-values, kind="stable")  # decreasing rearrangement
    v, lengths = values[order], np.diff(bp)[order]
    T, running = np.cumsum(lengths), np.cumsum(v * lengths)
    keep = lengths > 0
    phi = T[keep] * (1.0 - np.log(T[keep])) ** (1.0 / p)
    return float(np.max(running[keep] / phi))


def check_step(oracle: Callable[[], float]):
    def check(out, ref):
        p = []
        _near(p, "step norm vs NumPy oracle", out["norm"], oracle(), 1e-9)
        return p

    return check


# ----------------------------------------------------------------- workloads


def _cli(cid, args, check, seeded=False):
    return Command(cid, "cli", [*args, "--format", "json"], check, seeded)


def _ns(lo: int, hi: int, step: int = 1) -> List[int]:
    return [2**j for j in range(lo, hi + 1, step)]


def operator(seed: int, size: str, workdir: Path) -> List[Command]:
    """Sup searches over u on the O(n^2) walk-tail matrix, classifier, Kruglov arrays."""
    n = 512 if size == "full" else 48
    terms = 2**20 if size == "full" else 2**14
    return [
        _cli("opnorm-power0.5", ["opnorm", "--psi", "power:0.5", "--n", str(n)], check_opnorm),
        _cli("opnorm-logpow2", ["opnorm", "--psi", "logpow:2", "--n", str(n)], check_opnorm),
        _cli("classify-invsqrtlog-kruglov", ["classify", "--psi", "invsqrtlog", "--with-kruglov"],
             check_classify(kruglov_divergent=True)),
        _cli("classify-power0.5", ["classify", "--psi", "power:0.5"],
             check_classify(kruglov_divergent=False)),
        _cli("kruglov-logpow2", ["kruglov", "--psi", "logpow:2", "--max-terms", str(terms)],
             check_kruglov_logpow(2.0, terms)),
    ]


# norm of the indicator of (0, 1/4] in each space family, in closed form
INDICATOR_NORMS = {
    "lorentz:power:0.5": 0.25**0.5,  # psi(u)
    "marcinkiewicz:logpow:2": 1.0 / math.sqrt(1.0 + math.log(4.0)),  # u / phi(u)
    "orlicz:np:2": 1.0 / math.sqrt(math.log(5.0)),  # 1 / M^{-1}(1/u)
    "lpq:2:1": 0.25**0.5,  # u^(1/p)
}


def _indicator_norm(space: str) -> Command:
    return _cli(f"norm-indicator-{space.split(':')[0]}",
                ["norm", "--space", space, "--indicator", "1/4"],
                check_closed_form(INDICATOR_NORMS[space]))


def growth(seed: int, size: str, workdir: Path) -> List[Command]:
    """Exact norm-vs-n tables priced from log-tail layers; no search, no sampling."""
    full = size == "full"
    orlicz_ns = _ns(12, 18, 2) if full else _ns(8, 14, 2)
    marc_ns = _ns(4, 14) if full else _ns(4, 10)
    big_ns = _ns(14, 20, 2) if full else _ns(8, 14, 2)
    cmds = [_cli("growth-orlicz-np2", ["growth", "--space", "orlicz:np:2", "--ns", _join(orlicz_ns)],
                 check_growth_exact(orlicz_ns))]
    for p in (1, 2, 4, 8):
        target = max(0.5, 1.0 - 1.0 / p) if full else None
        cmds.append(_cli(f"growth-marcinkiewicz-logpow{p}",
                         ["growth", "--space", f"marcinkiewicz:logpow:{p}", "--ns", _join(marc_ns)],
                         check_growth_exact(marc_ns, target)))
    for space in ("lorentz:power:0.5", "lpq:2:1"):
        cmds.append(_cli(f"growth-{space.replace(':', '-')}",
                         ["growth", "--space", space, "--ns", _join(big_ns)],
                         check_growth_exact(big_ns)))
    return cmds + [_indicator_norm(s) for s in ("orlicz:np:2", "marcinkiewicz:logpow:2")]


def sampling(seed: int, size: str, workdir: Path) -> List[Command]:
    """Monte Carlo draws, sort-compression, FFT convolution, step-file pricing."""
    full = size == "full"
    seeds = [random.Random(f"{seed}:{i}").randrange(1, 2**31) for i in range(4)]
    rad_n, gauss_n, signed_n = (1024, 64, 256) if full else (64, 16, 32)
    trials = 100_000 if full else 20_000
    growth_ns = [16, 32, 64, 128, 256] if full else [8, 16, 32, 64]
    growth_trials, growth_m = (20_000, 2048) if full else (5_000, 512)
    step_path = workdir / f"step-{size}-{seed}.json"
    bp, values = make_step_file(step_path, seed, 100_000 if full else 2_000)
    return [
        # m = trials: lossless compression.  The norm of exp(L^2) and of the
        # Gaussian Marcinkiewicz space is set by the sample maximum, so the
        # error is skewed upwards; the band is wide above and tight below.
        _cli("mc-rademacher-orlicz",
             ["mc", "--space", "orlicz:np:2", "--sampler", "rademacher", "--n", str(rad_n),
              "--trials", str(trials), "--m", str(trials), "--seed", str(seeds[0])],
             check_mc(-0.05, 0.20), seeded=True),
        _cli("mc-gauss-marcinkiewicz",
             ["mc", "--space", "marcinkiewicz:gauss", "--sampler", "gauss", "--n", str(gauss_n),
              "--trials", str(trials), "--m", str(trials), "--seed", str(seeds[1])],
             # sum of n standard normals = sqrt(2n) X with X ~ N(0, 1/2), whose norm is 1
             check_mc(-0.05, 0.35, exact=math.sqrt(2.0 * gauss_n)), seeded=True),
        _cli("growth-mc-signed-lpq",
             ["growth", "--space", "lpq:1.5:1.2", "--mode", "mc", "--sampler", "signed:0.5",
              "--ns", _join(growth_ns), "--trials", str(growth_trials), "--m", str(growth_m),
              "--seed", str(seeds[2])],
             check_growth_mc(growth_ns, 0.05, 0.72 if full else None), seeded=True),
        _cli("mc-signed-lpq",
             ["mc", "--space", "lpq:2:1", "--sampler", "signed:0.5", "--n", str(signed_n),
              "--trials", str(trials), "--seed", str(seeds[3])],
             check_mc(-0.05, 0.05), seeded=True),
        Command("selfsim-gauss", "selfsim", [str(16 if full else 4)], check_selfsim(16 if full else 4)),
        _cli("norm-step-orlicz", ["norm", "--space", "orlicz:np:2", "--step", str(step_path)],
             check_step(lambda: orlicz_exp_norm(bp, values, 2.0)), seeded=True),
        _cli("norm-step-marcinkiewicz",
             ["norm", "--space", "marcinkiewicz:logpow:2", "--step", str(step_path)],
             check_step(lambda: marcinkiewicz_logpow_norm(bp, values, 2.0)), seeded=True),
        _indicator_norm("lorentz:power:0.5"),
        _indicator_norm("lpq:2:1"),
    ]


def _join(ns: List[int]) -> str:
    return ",".join(str(n) for n in ns)


WORKLOADS: Dict[str, Callable[[int, str, Path], List[Command]]] = {
    "operator": operator,
    "growth": growth,
    "sampling": sampling,
}
