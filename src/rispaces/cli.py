"""Command line front end.

Subcommands mirror the library: ``norm`` prices a step function, ``opnorm``
measures one averaged-operator norm, ``classify`` runs the growth dichotomy,
``growth`` fits norm-vs-n tables, ``kruglov`` probes the compound-Poisson
series, and ``mc`` prices a Monte Carlo i.i.d. sum.

Output is deterministic byte for byte: floats render with repr, JSON sorts
its keys, and every random draw is seeded (flag, config file, or the
RISPACES_SEED environment variable, in that order of precedence).  Exit codes:
0 on a conclusive result, 1 when a verdict is inconclusive, a fit is
degenerate or a numerical search does not converge, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .dichotomy import (
    CLASSIFY_GRID,
    DEFAULT_KRUGLOV_T_GRID,
    classify,
    kruglov_check,
    sup_indicator_ratio,
)
from .generators import GridConfig, parse_generator
from .experiments import growth_table, mc_iid_sum_norm, parse_sampler
from .norms import parse_space, space_label, space_norm
from .stepfn import StepFunction

__all__ = ["main"]


def _fmt(x: float) -> str:
    return repr(float(x))


def _jsonable(x):
    """The JSON form of a report: dataclasses become dicts of their fields,
    dict keys strings, tuples lists, and an infinite float the string "inf"."""
    if dataclasses.is_dataclass(x):
        return {f.name: _jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def _int_list(text: str) -> List[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _float_list(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated floats, got {text!r}") from None


def _parse_measure(text: str):
    # "1/4" stays an exact rational; "0.25" goes through the float path
    try:
        return Fraction(text) if "/" in text else float(text)
    except ZeroDivisionError:
        raise ValueError(f"measure {text!r} divides by zero") from None


def _default_seed() -> int:
    return int(os.environ.get("RISPACES_SEED", "0"))


def parse_config_file(path: str) -> Dict[str, str]:
    """Flat ``key = value`` file; blank lines and # comments ignored."""
    cfg: Dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


# one experiment file can back both commands; each reads only its own keys
_CONFIG_KEYS = {"space", "sampler", "ns", "n", "mode", "trials", "m", "seed", "burn_in"}


def _merged_config(args: argparse.Namespace) -> Dict[str, str]:
    cfg = parse_config_file(args.config) if args.config else {}
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return cfg


# Caps on the values that size memory, flag or config key alike, checked before
# any compute: Monte Carlo sums, draw chunks and quantile pieces, walk laws
# (O(n) floats each), limit grids (O(j_max)) and Kruglov log-factorials.
_CAPS = {"n": 2**20, "ns": 2**20, "n_list": 2**20, "trials": 10**7, "m": 10**7,
         "j_max": 10**5, "max_terms": 2**22}


def _check_caps(**sizes) -> None:
    for key, value in sizes.items():
        cap = _CAPS[key]
        for v in value if isinstance(value, list) else [value]:
            if v > cap:
                raise ValueError(f"{key} = {v} is past its cap of {cap}")


def _pick(flag, cfg: Dict[str, str], key: str, conv, default):
    if flag is not None:
        return flag
    if key in cfg:
        return conv(cfg[key])
    return default


# ------------------------------------------------------------------- handlers


def _cmd_norm(args) -> Tuple[dict, List[str], Optional[List[List[str]]], int]:
    space = parse_space(args.space)
    if (args.indicator is None) == (args.step is None):
        raise ValueError("provide exactly one of --indicator or --step")
    if args.indicator is not None:
        f = StepFunction.indicator(_parse_measure(args.indicator))
    else:
        with open(args.step) as fh:
            f = StepFunction.from_json_dict(json.load(fh))
    value = space_norm(f, space)
    payload = {"command": "norm", "space": space_label(space), "norm": value}
    return payload, [_fmt(value)], None, 0


def _cmd_mc(args) -> Tuple[dict, List[str], Optional[List[List[str]]], int]:
    cfg = _merged_config(args)
    space = parse_space(_pick(args.space, cfg, "space", str, None) or _bad("--space"))
    token = _pick(args.sampler, cfg, "sampler", str, None) or _bad("--sampler")
    seed = _pick(args.seed, cfg, "seed", int, _default_seed())
    n = _pick(args.n, cfg, "n", int, None)
    if n is None:
        _bad("--n")
    trials = _pick(args.trials, cfg, "trials", int, 100_000)
    m = _pick(args.m, cfg, "m", int, 4096)
    _check_caps(n=n, trials=trials, m=m)
    sampler = parse_sampler(token, seed)
    value = mc_iid_sum_norm(sampler, n, space, trials=trials, m=m)
    payload = {
        "command": "mc",
        "space": space_label(space),
        "sampler": sampler.label(),
        "n": n,
        "trials": trials,
        "m": m,
        "seed": seed,
        "norm": value,
    }
    return payload, [_fmt(value)], None, 0


def _bad(flag: str):
    raise ValueError(f"{flag} is required (flag or config file)")


def _cmd_opnorm(args) -> Tuple[dict, List[str], Optional[List[List[str]]], int]:
    psi = parse_generator(args.psi)
    _check_caps(n=args.n)
    sup = sup_indicator_ratio(psi, args.n, j_max=args.j_max)
    value = args.n * sup  # lorentz_operator_norm, without a second search
    payload = {
        "command": "opnorm",
        "psi": args.psi,
        "n": args.n,
        "j_max": args.j_max,
        "opnorm": value,
        "sup_ratio": sup,
    }
    lines = [
        f"||A_n|| = {_fmt(value)}   (n = {args.n}, psi = {args.psi})",
        f"sup ratio = {_fmt(sup)}   [u-grid j <= {args.j_max} + golden refine]",
    ]
    return payload, lines, None, 0


def _grid_from_args(args) -> GridConfig:
    g = CLASSIFY_GRID
    j_max = args.j_max if args.j_max is not None else g.j_max
    window = args.window if args.window is not None else g.window
    return GridConfig(j_min=g.j_min, j_max=j_max, window=window, tol=g.tol)


def _estimate_line(label: str, est) -> str:
    status = "converged" if est.converged else "NOT converged"
    return (
        f"  {label} = {_fmt(est.value)}   [{status}; window {est.window}, "
        f"grid j <= {est.j_max}]"
    )


def _cmd_classify(args) -> Tuple[dict, List[str], Optional[List[List[str]]], int]:
    psi = parse_generator(args.psi)
    grid = _grid_from_args(args)
    _check_caps(n_list=args.n_list, j_max=grid.j_max)
    report = classify(
        psi,
        k_list=tuple(args.k_list),
        l_list=tuple(args.l_list),
        n_list=tuple(args.n_list),
        margin=args.margin,
        grid=grid,
        with_kruglov=args.with_kruglov,
    )
    payload = {"command": "classify", "psi": args.psi}
    payload.update(_jsonable(report))
    lines = [
        f"branch: {report.branch}"
        + (" (INCONCLUSIVE)" if report.inconclusive else ""),
        f"decision margin: {_fmt(report.margin)}   "
        f"grid: j <= {grid.j_max}, window {grid.window}, tol {_fmt(grid.tol)}",
        "dilation ratios a(k), strict bound k - margin:",
    ]
    for k, est in sorted(report.a_estimates.items()):
        lines.append(_estimate_line(f"a({k})", est))
    lines.append("power ratios c(l), strict bound 1 - margin:")
    for l, est in sorted(report.c_estimates.items()):
        lines.append(_estimate_line(f"c({l})", est))
    if report.opnorms:
        lines.append("operator norms:")
        for n, v in sorted(report.opnorms.items()):
            gap = "< n" if v < n else "= n"
            lines.append(f"  ||A_{n}|| = {_fmt(v)}   [{gap}]")
    if report.branch == "PowerBound":
        lines.append(
            f"power bound: ||A_n|| <= C n^q with q = {_fmt(report.q)}, "
            f"C = {_fmt(report.C)}  (witness n0 = {report.witness_n0})"
        )
    else:
        lines.append(f"failed strictness: {report.failing_condition} condition")
    if report.kruglov is not None:
        lines.extend(_kruglov_lines(report.kruglov, threshold=1e3))
    return payload, lines, None, 1 if report.inconclusive else 0


def _kruglov_lines(verdict, threshold: float) -> List[str]:
    if verdict.inconclusive:
        head = "series probe: INCONCLUSIVE (neither stabilized nor crossed)"
    elif verdict.finite:
        head = "series probe: finite"
    else:
        head = "series probe: divergent"
    detail = (
        f"  sup = {'inf' if math.isinf(verdict.sup_value) else _fmt(verdict.sup_value)}"
        f" at t = {_fmt(verdict.t_argmax)}   [N = {verdict.N_used} terms, "
        f"threshold {_fmt(threshold)}]"
    )
    return [head, detail]


def _cmd_kruglov(args) -> Tuple[dict, List[str], Optional[List[List[str]]], int]:
    phi = parse_generator(args.psi)
    _check_caps(max_terms=args.max_terms)
    t_grid = DEFAULT_KRUGLOV_T_GRID if args.t_grid is None else tuple(args.t_grid)
    verdict = kruglov_check(
        phi, t_grid=t_grid, num_terms=args.max_terms, threshold=args.threshold
    )
    payload = {"command": "kruglov", "psi": args.psi, "threshold": args.threshold}
    payload.update(_jsonable(verdict))
    return (
        payload,
        _kruglov_lines(verdict, args.threshold),
        None,
        1 if verdict.inconclusive else 0,
    )


def _cmd_growth(args) -> Tuple[dict, List[str], Optional[List[List[str]]], int]:
    cfg = _merged_config(args)
    space = parse_space(_pick(args.space, cfg, "space", str, None) or _bad("--space"))
    mode = _pick(args.mode, cfg, "mode", str, "exact")
    ns = _pick(args.ns, cfg, "ns", _int_list, None)
    if ns is None:
        _bad("--ns")
    seed = _pick(args.seed, cfg, "seed", int, _default_seed())
    trials = _pick(args.trials, cfg, "trials", int, 100_000)
    m = _pick(args.m, cfg, "m", int, 4096)
    burn_in = _pick(args.burn_in, cfg, "burn_in", int, 2)
    if mode == "mc":
        _check_caps(ns=ns, trials=trials, m=m)
    token = _pick(args.sampler, cfg, "sampler", str, None)
    sampler = parse_sampler(token, seed) if token else None
    fit = growth_table(
        space, ns, mode=mode, sampler=sampler, trials=trials, m=m, burn_in=burn_in
    )
    payload = {
        "command": "growth",
        "space": space_label(space),
        "mode": mode,
        "sampler": None if sampler is None else sampler.label(),
        "seed": seed,
    }
    payload.update(_jsonable(fit))
    width = max(len(str(n)) for n, _ in fit.pairs)
    lines = [f"{'n'.rjust(width)}  value"]
    for n, v in fit.pairs:
        lines.append(f"{str(n).rjust(width)}  {_fmt(v)}")
    lines.append(
        f"fit: value ~ C * n^q with q = {_fmt(fit.q)}, C = {_fmt(fit.C)}   "
        f"[residual {_fmt(fit.residual)}, burn-in {fit.burn_in}]"
    )
    lines.append("status: " + ("DEGENERATE (power fit unreliable)" if fit.degenerate else "ok"))
    rows = [["n", "value", "fit_q", "fit_C", "residual"]]
    for n, v in fit.pairs:
        rows.append([str(n), _fmt(v), _fmt(fit.q), _fmt(fit.C), _fmt(fit.residual)])
    return payload, lines, rows, 1 if fit.degenerate else 0


# ------------------------------------------------------------------ plumbing


class _Parser(argparse.ArgumentParser):
    """Usage errors as one ``<prog>: error: <message>`` line and exit 2, no usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rispaces",
        description="Norms, operator growth, and series criteria for "
        "rearrangement-invariant function spaces on (0, 1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", help="write the report to this file instead of stdout")

    p = sub.add_parser("norm", help="norm of a step function in a space")
    p.add_argument("--space", required=True, help="e.g. lorentz:power:0.5, orlicz:np:2, lpq:2:1")
    p.add_argument("--indicator", help="measure of an indicator input, e.g. 0.25 or 1/4")
    p.add_argument("--step", help="JSON file holding a step function")
    common(p)

    p = sub.add_parser("opnorm", help="norm of the n-fold averaged operator")
    p.add_argument("--psi", required=True, help="generator token, e.g. power:0.5")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j-max", type=int, default=40, help="u-grid depth in octaves")
    common(p)

    p = sub.add_parser("classify", help="growth dichotomy for a generator")
    p.add_argument("--psi", required=True)
    p.add_argument("--k-list", type=_int_list, default=[2, 3, 4])
    p.add_argument("--l-list", type=_int_list, default=[2, 3])
    p.add_argument("--n-list", type=_int_list, default=[2, 4, 8, 16, 32, 64])
    p.add_argument("--margin", type=float, default=1e-3)
    p.add_argument("--j-max", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--with-kruglov", action="store_true")
    common(p)

    p = sub.add_parser("kruglov", help="compound-Poisson series probe")
    p.add_argument("--psi", required=True)
    p.add_argument("--t-grid", type=_float_list, default=None)
    p.add_argument("--max-terms", type=int, default=1_048_576)
    p.add_argument("--threshold", type=float, default=1e3,
                   help="divergence bound on the partial sums; finite and > 1, "
                   "since the first term is 1")
    common(p)

    p = sub.add_parser("growth", help="norm-vs-n table and power fit")
    p.add_argument("--space")
    p.add_argument("--ns", type=_int_list, help="comma-separated sizes, e.g. 16,32,64,128")
    p.add_argument("--mode", choices=("exact", "mc"))
    p.add_argument("--sampler", help="rademacher | signed:U | gauss | custom:CSV")
    p.add_argument("--trials", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, help="defaults to RISPACES_SEED or 0")
    p.add_argument("--burn-in", type=int)
    p.add_argument("--config", help="flat key=value experiment file")
    common(p)

    p = sub.add_parser("mc", help="Monte Carlo norm of an i.i.d. sum")
    p.add_argument("--space")
    p.add_argument("--sampler")
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="flat key=value experiment file")
    common(p)

    return parser


_HANDLERS = {
    "norm": _cmd_norm,
    "opnorm": _cmd_opnorm,
    "classify": _cmd_classify,
    "kruglov": _cmd_kruglov,
    "growth": _cmd_growth,
    "mc": _cmd_mc,
}


def _render(payload, lines, rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        if rows is None:
            raise ValueError("csv output is only available for growth tables")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, lines, rows, code = _HANDLERS[args.command](args)
        text = _render(payload, lines, rows, args.format)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # numerical non-convergence
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
