"""Command line front end.

Subcommands mirror the library: ``norm`` prices a step function, ``opnorm`` measures one
averaged-operator norm, ``classify`` runs the growth dichotomy, ``growth`` fits norm-vs-n
tables, ``kruglov`` probes the compound-Poisson series, and ``mc`` prices a Monte Carlo
i.i.d. sum.  The library returns values and records; this module alone spells how a report
names them, such as its ``space`` and ``sampler`` labels, which the package does not export.
A handler returns a report as its payload, the JSON, and its lines, the text or growth's CSV;
``main`` adds the payload's ``command`` key and writes one of the two.

Every report goes to stdout, byte for byte deterministic: floats render with repr, JSON sorts
its keys, and every random draw is seeded (the last ``--seed``, typed or read from an ``@FILE``,
else 0).  Exit codes: 0 on a conclusive result, 1 when a verdict is inconclusive, a fit is
degenerate or a numerical search does not converge, 2 on usage or input errors and on an
internal error, which names its type.  The parser is the one source of every value a command
reads, and checks each before any token is read; a default is its library call's.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import math
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import dichotomy, experiments, generators  # each report reads the rule its call applied
from ._numeric import Inconclusive
from .dichotomy import classify, kruglov_check, sup_indicator_ratio
from .generators import parse_generator
from .experiments import growth_table, mc_iid_sum_norm, parse_sampler
from .norms import Lorentz, Lpq, Marcinkiewicz, parse_space, space_norm
from .stepfn import StepFunction

__all__ = ["main"]


def _fmt(x: float) -> str:
    return repr(float(x))


def _jsonable(x):
    """The JSON form of a report: a record (a NamedTuple) becomes the dict of its
    fields, tested before the tuple it also is; dict keys become strings, other
    tuples lists, and an infinite float the string "inf"."""
    if hasattr(x, "_asdict"):
        return {k: _jsonable(v) for k, v in x._asdict().items()}
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def _default(fn, param: str):
    """The default that ``fn`` declares for ``param``: an option feeding ``fn`` states none."""
    return inspect.signature(fn).parameters[param].default


def _int_list(key: str):
    """The type of a comma-separated list option, each item capped at ``_CAPS[key]``."""
    def parse(text: str) -> list:
        try:
            return [_capped(key)(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated integers, got {text!r}") from None
    return parse


def _seed(text: str) -> int:
    # NumPy seeds are non-negative; a --seed typed or read from an @FILE comes here
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _measure(text: str):
    # "1/4" stays an exact rational; "0.25" goes through the float path
    try:
        return Fraction(text) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a measure such as 0.25 or 1/4, got {text!r}") from None


# Caps on the values that size memory, each checked by its option's type, so
# before any token is read: Monte Carlo sums, draw chunks and quantile pieces,
# walk laws (O(n) floats each) and limit grids (O(j_max)); the Kruglov probe
# sums in bounded chunks, so its term cap bounds time only, as does classify's
# n-list cap, since its witness loop prices ||A_s|| for every s <= n0.
_CAPS = {"n": 2**20, "ns": 2**20, "n_list": 2**10, "trials": 10**7, "m": 10**7,
         "j_max": 10**5, "max_terms": 2**22}


def _capped(key: str):
    """The type of an integer option whose values stop at ``_CAPS[key]``."""
    def capped(text: str) -> int:
        value = int(text)
        if value > _CAPS[key]:
            raise argparse.ArgumentTypeError(f"{value} is past its cap of {_CAPS[key]}")
        return value
    capped.__name__ = "int"  # a token that is no integer reads "invalid int value"
    return capped


def _space_label(space) -> str:
    """The canonical token of a space: ``parse_space`` builds only these four families."""
    if isinstance(space, Lorentz):
        return f"lorentz:{space.psi.label}"
    if isinstance(space, Marcinkiewicz):
        return f"marcinkiewicz:{space.phi.label}"
    if isinstance(space, Lpq):
        return f"lpq:{space.p:g}:{space.q:g}"
    return f"orlicz:Np:{space.M.p:g}"


def _sampler_label(spec) -> str:  # a custom law of N atoms reads custom[N]
    if spec.kind == "signed_indicator":
        return f"signed:{spec.u:g}"
    return f"custom[{len(spec.quantiles)}]" if spec.kind == "custom" else spec.kind


# ------------------------------------------------------------------- handlers


def _cmd_norm(args) -> Tuple[dict, List[str], int]:
    space = parse_space(args.space)
    if args.indicator is not None:
        f = StepFunction.indicator(args.indicator)
    else:
        with open(args.step, encoding="utf-8-sig") as fh:
            f = StepFunction.from_json_dict(json.load(fh))
    value = space_norm(f, space)
    payload = {"space": _space_label(space), "norm": value}
    return payload, [_fmt(value)], 0


def _cmd_mc(args) -> Tuple[dict, List[str], int]:
    space = parse_space(args.space)
    sampler = parse_sampler(args.sampler, args.seed)
    value = mc_iid_sum_norm(sampler, args.n, space, trials=args.trials, m=args.m)
    payload = {"space": _space_label(space), "sampler": _sampler_label(sampler),
               "n": args.n, "trials": args.trials, "m": args.m, "seed": args.seed, "norm": value}
    return payload, [_fmt(value)], 0


def _cmd_opnorm(args) -> Tuple[dict, List[str], int]:
    psi = parse_generator(args.psi)
    sup = sup_indicator_ratio(psi, args.n, j_max=args.j_max)
    value = args.n * sup  # lorentz_operator_norm, without a second search
    payload = {"psi": args.psi, "n": args.n, "j_max": args.j_max, "opnorm": value, "sup_ratio": sup}
    lines = [
        f"||A_n|| = {_fmt(value)}   (n = {args.n}, psi = {args.psi})",
        f"sup ratio = {_fmt(sup)}   [u-grid j <= {args.j_max} + golden refine]",
    ]
    return payload, lines, 0


def _estimate_line(label: str, est, j_max: int) -> str:
    status = "converged" if est.converged else "NOT converged"
    return (
        f"  {label} = {_fmt(est.value)}   [{status}; window {generators._WINDOW}, "
        f"grid j <= {j_max}]"
    )


def _cmd_classify(args) -> Tuple[dict, List[str], int]:
    psi = parse_generator(args.psi)
    report = classify(psi, n_list=args.n_list, j_max=args.j_max)
    kruglov = kruglov_check(psi) if args.with_kruglov else None
    payload = {"psi": args.psi, "kruglov": _jsonable(kruglov), "margin": dichotomy._MARGIN}
    payload.update(_jsonable(report))
    for est in (*payload["a_estimates"].values(), *payload["c_estimates"].values()):
        est.update(window=generators._WINDOW, j_max=args.j_max, grid_min=2.0**-args.j_max)
    lines = [
        f"branch: {report.branch}"
        + (" (INCONCLUSIVE)" if report.inconclusive else ""),
        f"decision margin: {_fmt(dichotomy._MARGIN)}   "
        f"grid: j <= {args.j_max}, window {generators._WINDOW}, tol {_fmt(generators._TOL)}",
        "dilation ratios a(k), strict bound k - margin:",
    ]
    for k, est in sorted(report.a_estimates.items()):
        lines.append(_estimate_line(f"a({k})", est, args.j_max))
    lines.append("power ratios c(l), strict bound 1 - margin:")
    for l, est in sorted(report.c_estimates.items()):
        lines.append(_estimate_line(f"c({l})", est, args.j_max))
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
    if kruglov is not None:
        lines.extend(_kruglov_lines(kruglov))
    return payload, lines, 1 if report.inconclusive else 0


def _kruglov_lines(verdict) -> List[str]:
    if verdict.inconclusive:
        head = "series probe: INCONCLUSIVE (neither stabilized nor crossed)"
    elif verdict.finite:
        head = "series probe: finite"
    else:
        head = "series probe: divergent"
    detail = (
        f"  sup = {_fmt(verdict.sup_value)}"
        f" at t = {_fmt(verdict.t_argmax)}   [N = {verdict.N_used} terms, "
        f"threshold {_fmt(dichotomy._THRESHOLD)}]"
    )
    return [head, detail]


def _cmd_kruglov(args) -> Tuple[dict, List[str], int]:
    phi = parse_generator(args.psi)
    verdict = kruglov_check(phi, num_terms=args.max_terms)
    payload = {"psi": args.psi, "threshold": dichotomy._THRESHOLD}
    payload.update(_jsonable(verdict))
    lines = _kruglov_lines(verdict)
    return payload, lines, 1 if verdict.inconclusive else 0


def _cmd_growth(args) -> Tuple[dict, List[str], int]:
    space = parse_space(args.space)
    # exact mode prices the walk law: like --trials and --m, --sampler goes unread
    mc = args.mode == "mc"
    sampler = parse_sampler(args.sampler, args.seed) if mc and args.sampler else None
    fit = growth_table(space, args.ns, mode=args.mode, sampler=sampler,
                       trials=args.trials, m=args.m)
    payload = {
        "space": _space_label(space),
        "mode": args.mode,
        "sampler": None if sampler is None else _sampler_label(sampler),
        "seed": args.seed,
        "burn_in": experiments._BURN_IN,
    }
    payload.update(_jsonable(fit))
    width = max(len(str(n)) for n, _ in fit.pairs)
    lines = [f"{'n'.rjust(width)}  value"]
    for n, v in fit.pairs:
        lines.append(f"{str(n).rjust(width)}  {_fmt(v)}")
    lines.append(
        f"fit: value ~ C * n^q with q = {_fmt(fit.q)}, C = {_fmt(fit.C)}   "
        f"[residual {_fmt(fit.residual)}, burn-in {experiments._BURN_IN}]"
    )
    lines.append("status: " + ("DEGENERATE (power fit unreliable)" if fit.degenerate else "ok"))
    if args.format == "csv":  # no cell holds a comma, a quote or a newline, so a join is CSV
        fit_cells = f"{_fmt(fit.q)},{_fmt(fit.C)},{_fmt(fit.residual)}"
        lines = ["n,value,fit_q,fit_C,residual"]
        lines += [f"{n},{_fmt(v)},{fit_cells}" for n, v in fit.pairs]
    return payload, lines, 1 if fit.degenerate else 0


# ------------------------------------------------------------------ plumbing


class _Parser(argparse.ArgumentParser):
    """Usage errors as one ``<prog>: error: <message>`` line and exit 2; no option prefixes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def _read_args_from_files(self, arg_strings):
        # argparse's reader decodes in the locale's encoding and makes only an OSError
        # a usage error; here an @FILE is UTF-8, BOM or not, and one that fails is one error line.
        # It holds one argument a line; blank lines and # comments hold none, and a
        # line naming another @FILE is refused, so no file can name itself
        args = []
        for arg in arg_strings:
            if not arg.startswith("@"):
                args.append(arg)
                continue
            try:
                with open(arg[1:], encoding="utf-8-sig") as fh:
                    lines = fh.read().splitlines()
            except OSError as exc:
                self.error(str(exc))
            except UnicodeDecodeError as exc:
                self.error(f"cannot decode argument file {arg[1:]!r}: {exc}")
            for line in map(str.strip, lines):
                if line.startswith("@"):
                    self.error(f"an argument file cannot name another argument file: {line}")
                if line and not line.startswith("#"):
                    args.append(line)
        return args


def _build_parser() -> argparse.ArgumentParser:
    """The parser; ``@FILE`` reads arguments from FILE as if typed in its place."""
    parser = _Parser(
        prog="rispaces",
        fromfile_prefix_chars="@",
        description="Norms, operator growth, and series criteria for "
        "rearrangement-invariant function spaces on (0, 1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(run=run)

    p = sub.add_parser("norm", help="norm of a step function in a space")
    p.add_argument("--space", required=True, help="e.g. lorentz:power:0.5, orlicz:np:2, lpq:2:1")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--indicator", type=_measure,
                     help="measure of an indicator input, e.g. 0.25 or 1/4")
    one.add_argument("--step", help="JSON file holding a step function")
    common(p, _cmd_norm)

    p = sub.add_parser("opnorm", help="norm of the n-fold averaged operator")
    p.add_argument("--psi", required=True, help="generator token, e.g. power:0.5")
    p.add_argument("--n", type=_capped("n"), required=True)
    p.add_argument("--j-max", type=int, default=_default(sup_indicator_ratio, "j_max"),
                   help="u-grid depth in octaves")
    common(p, _cmd_opnorm)

    p = sub.add_parser("classify", help="growth dichotomy for a generator")
    p.add_argument("--psi", required=True)
    p.add_argument("--n-list", type=_int_list("n_list"),
                   default=_default(classify, "n_list"))
    p.add_argument("--j-max", type=_capped("j_max"), default=_default(classify, "j_max"))
    p.add_argument("--with-kruglov", action="store_true")
    common(p, _cmd_classify)

    p = sub.add_parser("kruglov", help="compound-Poisson series probe")
    p.add_argument("--psi", required=True)
    p.add_argument("--max-terms", type=_capped("max_terms"),
                   default=_default(kruglov_check, "num_terms"))
    common(p, _cmd_kruglov)

    def experiment(p, call, sampler_required):
        p.add_argument("--space", required=True)
        p.add_argument("--sampler", required=sampler_required,
                       help="rademacher | signed:U | gauss | custom:CSV")
        p.add_argument("--trials", type=_capped("trials"), default=_default(call, "trials"))
        p.add_argument("--m", type=_capped("m"), default=_default(call, "m"))
        p.add_argument("--seed", type=_seed, default=_default(parse_sampler, "seed"))

    p = sub.add_parser("growth", help="norm-vs-n table and power fit")
    p.add_argument("--ns", type=_int_list("ns"), required=True,
                   help="comma-separated sizes, e.g. 16,32,64,128")
    p.add_argument("--mode", choices=("exact", "mc"), default=_default(growth_table, "mode"))
    experiment(p, growth_table, sampler_required=False)
    common(p, _cmd_growth, formats=("text", "json", "csv"))

    p = sub.add_parser("mc", help="Monte Carlo norm of an i.i.d. sum")
    p.add_argument("--n", type=_capped("n"), required=True)
    experiment(p, mc_iid_sum_norm, sampler_required=True)
    common(p, _cmd_mc)

    return parser


# built once, at import, so each default comes from the library call's own signature
# even where a caller later stands a stub in for the call
_PARSER = _build_parser()


def _render(payload, lines, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        # the process entry: freezing the import-time heap spares it the collections at
        # exit (about 30 ms a command); a caller passing argv keeps its collector as is
        gc.freeze()
    args = _PARSER.parse_args(argv)
    try:
        payload, lines, code = args.run(args)
        payload["command"] = args.command
        sys.stdout.write(_render(payload, lines, args.format))
    except (ValueError, OSError, RecursionError) as exc:  # RecursionError: a step file too deep
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Inconclusive as exc:  # raised on purpose: a search or draw without an answer
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # anything else is an internal error, named by its type
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
