"""Per-layer spans for the traced benchmark run, recorded from outside the package.

Run as a child process, one command per process:

    python perfbench/tracer.py OUT CMD_ID cli ARGS...     # rispaces.cli.main(ARGS)
    python perfbench/tracer.py OUT CMD_ID selfsim N       # gaussian_selfsimilarity_check(N)

It imports rispaces, replaces each traced function in every rispaces module
that holds a reference to it (so a call is caught where its caller looks the
name up), runs the command, and writes the spans to OUT as JSON lines:
``{"name", "start", "end", "parent", "cmd", "attrs"}``.  ``parent`` is the
index of the enclosing span, or -1.  Spans stay in memory until the command
ends.  Targets that no longer exist are listed on one ``{"missing": [...]}``
line, so the benchmark can report them instead of silently reading zero.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time


class Recorder:
    """Collects spans of one process; single-threaded, like the CLI it wraps."""

    def __init__(self, cmd_id: str):
        self.cmd_id = cmd_id
        self.spans = []
        self.stack = []

    def wrap(self, fn, name, attrs=None, prepare=None):
        """Return fn recording one span per call.

        ``name`` is a string or ``name(bound_args)``; ``prepare(bound_args)`` may
        swap arguments before the call and returns per-call state;
        ``attrs(bound_args, result, state)`` returns the span's counters.
        """
        sig = inspect.signature(fn) if (callable(name) or attrs or prepare) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            state = prepare(bound) if prepare else None
            if bound is not None:
                args, kwargs = bound.args, bound.kwargs
            label = name(bound) if callable(name) else name
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                extra = attrs(bound, result, state) if attrs and result is not None else {}
                self.spans[idx] = (label, t0, t1, parent, extra)

        return traced

    def dump(self, path: str, missing) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, extra in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": t0, "end": t1, "parent": parent,
                         "cmd": self.cmd_id, "attrs": extra}
                    )
                    + "\n"
                )
            if missing:
                fh.write(json.dumps({"missing": sorted(missing)}) + "\n")


class _CountingYoung:
    """Stands in for an OrliczFunction and counts modular evaluations (log_fn calls)."""

    def __init__(self, M):
        self._M = M
        self.evals = 0

    def log_fn(self, u):
        self.evals += 1
        return self._M.log_fn(u)

    def __getattr__(self, attr):
        return getattr(self._M, attr)


def _family(space) -> str:
    return type(space).__name__.lower()


def _count_orlicz(bound):
    """Swap an Orlicz space for a copy whose Young function counts its evaluations."""
    space = bound.arguments["space"]
    if type(space).__name__ != "Orlicz":
        return None
    counter = _CountingYoung(space.M)
    bound.arguments["space"] = dataclasses.replace(space, M=counter)
    return counter


def _with_modular(extra):
    def attrs(bound, result, counter):
        out = extra(bound, result)
        if counter is not None:
            out["modular_evals"] = counter.evals
        return out

    return attrs


def _size(x) -> int:
    import numpy as np

    return int(np.size(x))


# (home module, attribute, span name, options).  The span name is the metric
# prefix: "<module>.<function>", with the leading underscore of private module
# names dropped so that every metric name starts with a letter.
FUNCTIONS = [
    ("walks", "signed_indicator_sum_log_tails", "walks.signed_indicator_sum_log_tails",
     dict(attrs=lambda b, r, s: {"computed_bytes": 8 * (int(b.arguments["n"]) + 1) ** 2})),
    ("walks", "walk_abs_layers", "walks.walk_abs_layers",
     dict(attrs=lambda b, r, s: {"layers": _size(r[0])})),
    ("walks", "walk_distribution", "walks.walk_distribution", {}),
    ("dichotomy", "sup_indicator_ratio", "dichotomy.sup_indicator_ratio", {}),
    ("dichotomy", "indicator_ratio", "dichotomy.indicator_ratio", {}),
    ("dichotomy", "classify", "dichotomy.classify", {}),
    ("dichotomy", "kruglov_check", "dichotomy.kruglov_check", {}),
    ("generators", "limsup_dilation_ratio", "generators.limsup_dilation_ratio", {}),
    ("generators", "limsup_power_ratio", "generators.limsup_power_ratio", {}),
    ("generators", "limsup_tail_sum_ratio", "generators.limsup_tail_sum_ratio", {}),
    ("_search", "golden_max", "search.golden_max", {}),
    ("_search", "golden_max_vec", "search.golden_max_vec", {}),
    ("norms", "space_norm", None,
     dict(name=lambda b: "norms.space_norm." + _family(b.arguments["space"]),
          prepare=_count_orlicz,
          attrs=_with_modular(lambda b, r: {"pieces": int(b.arguments["f"].num_pieces)}))),
    ("norms", "space_norm_from_layers", None,
     dict(name=lambda b: "norms.space_norm_from_layers." + _family(b.arguments["space"]),
          prepare=_count_orlicz,
          attrs=_with_modular(lambda b, r: {"layers": _size(b.arguments["values"])}))),
    ("stepfn", "quantile_from_samples", "stepfn.quantile_from_samples",
     dict(attrs=lambda b, r, s: {"samples": _size(b.arguments["samples"])})),
    ("experiments", "mc_iid_sum_norm", "experiments.mc_iid_sum_norm",
     dict(attrs=lambda b, r, s: {"draws": int(b.arguments["trials"]) * int(b.arguments["n"])})),
    ("experiments", "growth_table", "experiments.growth_table", {}),
    ("experiments", "rademacher_sum_norm", "experiments.rademacher_sum_norm", {}),
    ("experiments", "gaussian_selfsimilarity_check", "experiments.gaussian_selfsimilarity_check", {}),
    ("experiments", "fftconvolve", "experiments.fftconvolve",
     dict(attrs=lambda b, r, s: {"points": _size(r)})),
    ("gaussian", "erfc_inverse_log", "gaussian.erfc_inverse_log", {}),
]

# (home module, class, method, span name, options)
METHODS = [
    ("stepfn", "StepFunction", "rearrange", "stepfn.StepFunction.rearrange", {}),
    ("stepfn", "StepFunction", "from_json_dict", "stepfn.StepFunction.from_json_dict", {}),
    ("generators", "ConcaveGenerator", "log_eval", "generators.log_eval",
     dict(attrs=lambda b, r, s: {"points": _size(b.arguments["lt"])})),
]


def _module(home: str):
    try:
        return importlib.import_module(f"rispaces.{home}")
    except ImportError:
        return None


def install(rec: Recorder):
    """Wrap every target; returns the names of targets that were not found."""
    import rispaces  # noqa: F401  (loads every submodule)

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "rispaces" or name.startswith("rispaces."))]
    missing = []
    replace = {}
    for home, attr, span, opts in FUNCTIONS:
        original = getattr(_module(home), attr, None)
        if original is None:
            missing.append(f"{home}.{attr}")
            continue
        wrapped = rec.wrap(original, span or opts["name"], opts.get("attrs"), opts.get("prepare"))
        replace[id(original)] = (original, wrapped)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])
    for home, cls_name, meth, span, opts in METHODS:
        cls = getattr(_module(home), cls_name, None)
        raw = None if cls is None else cls.__dict__.get(meth)
        if raw is None:
            missing.append(f"{home}.{cls_name}.{meth}")
            continue
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(rec.wrap(raw.__func__, span, **opts)))
        else:
            setattr(cls, meth, rec.wrap(raw, span, **opts))
    return missing


def main(argv) -> int:
    out, cmd_id, kind, *rest = argv
    rec = Recorder(cmd_id)
    missing = install(rec)
    try:
        if kind == "cli":
            from rispaces import cli

            return rec.wrap(cli.main, "cli.main")(rest)
        if kind == "selfsim":
            from rispaces import experiments

            print(repr(experiments.gaussian_selfsimilarity_check(int(rest[0]))))
            return 0
        raise SystemExit(f"unknown command kind {kind!r}")
    finally:
        sys.stdout.flush()
        rec.dump(out, missing)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
