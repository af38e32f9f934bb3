"""Benchmark of the rispaces command line: end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload operator --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run it from the root of a source checkout; it needs no install (children get
``PYTHONPATH=src``).  The load is a closed loop: one child process at a time,
each a cold ``python -m rispaces.cli ...`` (or the one-line driver of
``gaussian_selfsimilarity_check``), with thread pools pinned to one thread.

``--trace 0`` times one pass over the workload's command list, with nine cold
``import rispaces`` children spread among its commands; ``setup_s`` is their
median wall time.  Per command it reads wall time, user+sys CPU and peak RSS
of the child with ``os.wait4``.  ``wall_s`` and ``cpu_s`` are sums over the
list; ``peak_rss_mb`` is the largest.  The work per run is fixed; ``--seconds``
(default: BENCHMARK.json's ``run_seconds``) is its nominal length on the
reference machine and is printed next to the measured one.  Every output is
checked by its oracle (see ``workloads.py``); an unexpected exit code or a
failed check counts in ``failed``, so ``failed / attempted`` is the failure
ratio and its base.

``--trace 1`` reports the per-layer metrics instead: an ``-X importtime``
child, one untraced pass and one traced pass, where each child runs through
``tracer.py``, which wraps the public functions of each module and records
spans.  ``trace.overhead_s`` is the traced minus the untraced pass wall time.

The last line of standard output is the JSON result; earlier lines starting
with ``#`` describe the environment and each command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

import workloads  # perfbench/ is on sys.path as the script's directory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 9  # cold imports per run, spread among the workload's commands
IMPORT_ARGV = [sys.executable, "-c", "import rispaces"]
DEADLINE_S = 165.0  # every run ends well inside 180 s, children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# What each per-layer metric should move.  BENCHMARK.json lists the metrics
# and their units; its keys are fixed, so the map lives here.
_GROWTH, _SAMPLING, _OPERATOR = "wall_s on growth", "wall_s on sampling", "wall_s on operator"
MOVES = {
    "import.rispaces.s": "setup_s on every workload",
    "import.scipy_signal.s": "setup_s on every workload",
    "import.scipy_special.s": "setup_s on every workload",
    "cli.main.s": "wall_s minus start-up, every workload",
    "cli.stdout_changed": "informative: stdout bytes differing from the seed",
    "walks.signed_indicator_sum_log_tails.calls": "wall_s, cpu_s on operator",
    "walks.signed_indicator_sum_log_tails.s": "wall_s, cpu_s on operator",
    "walks.signed_indicator_sum_log_tails.computed_bytes":
        "peak_rss_mb on operator (computed: the (n+1) x n temporary, 8(n+1)^2 per call)",
    "walks.walk_abs_layers.calls": _GROWTH,
    "walks.walk_abs_layers.s": _GROWTH,
    "walks.walk_abs_layers.layers": _GROWTH,
    "walks.walk_distribution.calls": _GROWTH,
    "walks.walk_distribution.s": _GROWTH,
    "dichotomy.sup_indicator_ratio.calls": _OPERATOR,
    "dichotomy.sup_indicator_ratio.s": _OPERATOR,
    "dichotomy.sup_indicator_ratio.per_opnorm": "wall_s on operator (ideal 1)",
    "dichotomy.indicator_ratio.calls": _OPERATOR,
    "dichotomy.indicator_ratio.s": _OPERATOR,
    "dichotomy.classify.calls": _OPERATOR,
    "dichotomy.classify.s": _OPERATOR,
    "dichotomy.kruglov_check.calls": "wall_s, peak_rss_mb on operator",
    "dichotomy.kruglov_check.s": "wall_s, peak_rss_mb on operator",
    **{f"generators.limsup_{g}_ratio.{stat}": _OPERATOR
       for g in ("dilation", "power", "tail_sum") for stat in ("calls", "s")},
    "generators.log_eval.calls": _OPERATOR,
    "generators.log_eval.points": _OPERATOR,
    "search.golden_max.calls": _OPERATOR,
    "search.golden_max.s": _OPERATOR,
    "search.golden_max_vec.calls": "wall_s on growth and sampling",
    "search.golden_max_vec.s": "wall_s on growth and sampling",
    **{f"norms.space_norm_from_layers.{fam}.{stat}": _GROWTH
       for fam in ("lorentz", "marcinkiewicz", "orlicz", "lpq") for stat in ("calls", "s", "layers")},
    **{f"norms.space_norm.{fam}.{stat}": _SAMPLING
       for fam in ("lorentz", "marcinkiewicz", "orlicz", "lpq") for stat in ("calls", "s", "pieces")},
    "norms.orlicz.modular_evals": _GROWTH,
    "stepfn.quantile_from_samples.calls": _SAMPLING,
    "stepfn.quantile_from_samples.s": _SAMPLING,
    "stepfn.quantile_from_samples.samples": _SAMPLING,
    "stepfn.StepFunction.rearrange.calls": _SAMPLING,
    "stepfn.StepFunction.rearrange.s": _SAMPLING,
    "stepfn.StepFunction.from_json_dict.s": _SAMPLING,
    "experiments.mc_iid_sum_norm.calls": "wall_s, peak_rss_mb on sampling",
    "experiments.mc_iid_sum_norm.s": "wall_s, peak_rss_mb on sampling",
    "experiments.mc_iid_sum_norm.self_s": "wall_s on sampling (draw time)",
    "experiments.mc.draws": "wall_s, peak_rss_mb on sampling",
    "experiments.growth_table.calls": _GROWTH,
    "experiments.growth_table.s": _GROWTH,
    "experiments.rademacher_sum_norm.calls": _GROWTH,
    "experiments.rademacher_sum_norm.s": _GROWTH,
    "experiments.gaussian_selfsimilarity_check.calls": _SAMPLING,
    "experiments.gaussian_selfsimilarity_check.s": _SAMPLING,
    "experiments.fftconvolve.calls": _SAMPLING,
    "experiments.fftconvolve.s": _SAMPLING,
    "experiments.fftconvolve.points": _SAMPLING,
    "gaussian.erfc_inverse_log.calls": _SAMPLING,
    "gaussian.erfc_inverse_log.s": _SAMPLING,
    "trace.overhead_s": "none: cost of tracing",
}

# Per-layer work the self-check requires: ">0" where the workload should
# exercise the layer, "0" where it must not.
EXPECT_CALLS = {
    "walks.signed_indicator_sum_log_tails.calls": {"operator": ">0", "growth": "0", "sampling": "0"},
    "walks.walk_abs_layers.calls": {"operator": "0", "growth": ">0", "sampling": "0"},
    "walks.walk_distribution.calls": {"operator": "0", "growth": ">0", "sampling": "0"},
    "dichotomy.sup_indicator_ratio.calls": {"operator": ">0", "growth": "0", "sampling": "0"},
    "dichotomy.indicator_ratio.calls": {"operator": ">0", "growth": "0", "sampling": "0"},
    "dichotomy.classify.calls": {"operator": ">0", "growth": "0", "sampling": "0"},
    "dichotomy.kruglov_check.calls": {"operator": ">0", "growth": "0", "sampling": "0"},
    "generators.limsup_tail_sum_ratio.calls": {"operator": ">0", "growth": "0", "sampling": "0"},
    "generators.log_eval.calls": {"operator": ">0", "growth": ">0", "sampling": ">0"},
    "search.golden_max.calls": {"operator": ">0", "growth": "0", "sampling": "0"},
    "search.golden_max_vec.calls": {"operator": "0", "growth": ">0", "sampling": ">0"},
    "norms.space_norm_from_layers.orlicz.calls": {"operator": "0", "growth": ">0", "sampling": "0"},
    "norms.space_norm.orlicz.calls": {"operator": "0", "growth": ">0", "sampling": ">0"},
    "norms.orlicz.modular_evals": {"operator": "0", "growth": ">0", "sampling": ">0"},
    "stepfn.quantile_from_samples.calls": {"operator": "0", "growth": "0", "sampling": ">0"},
    "stepfn.StepFunction.from_json_dict.s": {"operator": "0", "growth": "0", "sampling": ">0"},
    "experiments.mc_iid_sum_norm.calls": {"operator": "0", "growth": "0", "sampling": ">0"},
    "experiments.growth_table.calls": {"operator": "0", "growth": ">0", "sampling": ">0"},
    "experiments.rademacher_sum_norm.calls": {"operator": "0", "growth": ">0", "sampling": "0"},
    "experiments.fftconvolve.calls": {"operator": "0", "growth": "0", "sampling": ">0"},
    "gaussian.erfc_inverse_log.calls": {"operator": "0", "growth": "0", "sampling": ">0"},
    "cli.main.s": {"operator": ">0", "growth": ">0", "sampling": ">0"},
}


# ------------------------------------------------------------------ children


def child_env() -> dict:
    """Inherited environment minus Python and rispaces settings, plus the pins."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "RISPACES_")) and k not in THREAD_VARS}
    env.update({var: "1" for var in THREAD_VARS})
    # every Monte Carlo command passes --seed; RISPACES_SEED stays fixed because
    # some reports (growth tables) print it even in exact mode
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", RISPACES_SEED="0")
    return env


class Runner:
    """Runs children one at a time and accounts for each with os.wait4."""

    def __init__(self, env: dict, start: float):
        self.env = env
        self.start = start

    def run(self, argv) -> dict:
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.start))
        with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
            out.seek(0)
            err.seek(0)
            return {
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
                "code": proc.returncode,
                "stdout": out.read(),
                "stderr": err.read(),
            }


def command_argv(cmd, trace_file=None):
    py = sys.executable
    if trace_file is not None:
        return [py, str(HERE / "tracer.py"), str(trace_file), cmd.id, cmd.kind, *cmd.args]
    if cmd.kind == "cli":
        return [py, "-m", "rispaces.cli", *cmd.args]
    return [py, "-c", workloads.SELFSIM_DRIVER, *cmd.args]


def evaluate(cmd, res: dict, ref) -> list:
    """Problems with one command's result: exit code, then its oracle."""
    if res["code"] != 0:
        tail = res["stderr"].decode(errors="replace").strip().splitlines()[-1:]
        return [f"exit code {res['code']}: {' '.join(tail)}"]
    try:
        return cmd.check(cmd.parse(res["stdout"]), ref)
    except (ValueError, LookupError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return [f"output not checkable: {exc!r}"]


def run_command(runner, cmd, refs, trace_file=None) -> dict:
    res = runner.run(command_argv(cmd, trace_file))
    res["id"] = cmd.id
    res["problems"] = evaluate(cmd, res, refs.get(cmd.id))
    if trace_file is not None:
        res["spans"], res["missing"], bad = read_trace(trace_file)
        res["problems"] += bad
    return res


def run_pass(runner, cmds, refs, traced: bool) -> list:
    return [run_command(runner, cmd, refs, WORK / f"trace-{i}.jsonl" if traced else None)
            for i, cmd in enumerate(cmds)]


# -------------------------------------------------------------------- spans


def read_trace(path: Path):
    """(spans, missing targets, problems) from one child's JSON-lines trace."""
    spans, missing, problems = [], [], []
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return [], [], [f"no trace written: {exc}"]
    for lineno, line in enumerate(lines, 1):
        try:
            rec = json.loads(line)
        except ValueError:
            problems.append(f"trace line {lineno} does not parse")
            continue
        if "missing" in rec:
            missing.extend(rec["missing"])
        elif {"name", "start", "end", "parent", "cmd", "attrs"} <= rec.keys():
            spans.append(rec)
        else:
            problems.append(f"trace line {lineno} lacks span fields")
    return spans, missing, problems


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def nesting_problems(spans) -> list:
    problems = []
    for i, s in enumerate(spans):
        p = s["parent"]
        if p < 0:
            continue
        if not (0 <= p < i):
            problems.append(f"span {i} ({s['name']}) has parent index {p}")
            continue
        par = spans[p]
        if not (par["start"] <= s["start"] <= s["end"] <= par["end"]) or par["cmd"] != s["cmd"]:
            problems.append(f"span {i} ({s['name']}) is not inside its parent {par['name']}")
    return problems


def layer_metrics(traced_rows, cmds) -> dict:
    """Totals over one traced pass, keyed by per-layer metric name."""
    m = defaultdict(float)
    opnorm_cmds = sum(1 for c in cmds if c.kind == "cli" and c.args[0] == "opnorm")
    opnorm_sups = 0
    for cmd, row in zip(cmds, traced_rows):
        spans = row["spans"]
        for s, self_s in zip(spans, self_times(spans)):
            name = s["name"]
            m[f"{name}.calls"] += 1
            m[f"{name}.s"] += s["end"] - s["start"]
            m[f"{name}.self_s"] += self_s
            for key, value in s["attrs"].items():
                if key == "modular_evals":
                    m["norms.orlicz.modular_evals"] += value
                elif key == "draws":
                    m["experiments.mc.draws"] += value
                else:
                    m[f"{name}.{key}"] += value
            if name == "dichotomy.sup_indicator_ratio" and cmd.args[0] == "opnorm":
                opnorm_sups += 1
    m["dichotomy.sup_indicator_ratio.per_opnorm"] = opnorm_sups / opnorm_cmds if opnorm_cmds else 0.0
    return m


def import_seconds(entries, package: str) -> float:
    """Cumulative import time of a package and its submodules from -X importtime lines.

    The package itself may have no line (scipy loads subpackages lazily), so
    the outermost lines of its submodules are summed.  Children are printed
    before their parent, one more indent level deep.
    """
    total, inside = 0.0, None
    for depth, name, cumulative_us in reversed(entries):
        if inside is not None and depth <= inside:
            inside = None
        if inside is None and (name == package or name.startswith(package + ".")):
            total += cumulative_us / 1e6
            inside = depth
    return total


def import_metrics(runner) -> tuple:
    """Import times of rispaces, scipy.signal and scipy.special, in s."""
    res = runner.run([sys.executable, "-X", "importtime", "-c", "import rispaces"])
    entries = []
    for line in res["stderr"].decode(errors="replace").splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            field = parts[2].rstrip()
            entries.append((len(field) - len(field.lstrip()), field.strip(), int(parts[1])))
    metrics = {
        "import.rispaces.s": import_seconds(entries, "rispaces"),
        "import.scipy_signal.s": import_seconds(entries, "scipy.signal"),
        "import.scipy_special.s": import_seconds(entries, "scipy.special"),
    }
    ok = res["code"] == 0 and metrics["import.rispaces.s"] > 0
    return metrics, [] if ok else ["import of rispaces failed"]


# ------------------------------------------------------------------- results


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "child_env": {**{k: v for k, v in child_env().items()
                         if k in THREAD_VARS or k in ("PYTHONHASHSEED", "RISPACES_SEED")},
                      "PYTHONPATH": "src of the checkout"},
        "load": "closed loop, one child process at a time",
    }


def describe(rows, label) -> None:
    for r in rows:
        status = "ok" if not r["problems"] else "FAIL " + "; ".join(r["problems"])
        print(f"# {label} {r['id']}: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
              f"rss {r['rss_mb']:.1f} MB, exit {r['code']}: {status}")


def load_refs(size: str) -> dict:
    return json.loads((HERE / "reference.json").read_text())[size]


# ---------------------------------------------------------------------- modes


def measure(runner, cmds, refs, seconds: float) -> tuple:
    """End-to-end metrics over one pass, with SETUP_REPEATS cold imports among its commands.

    The work per run is fixed, so the estimator never changes with noise.  The
    imports are spread evenly over the pass, so that setup_s and wall_s see the
    same stretch of machine time.
    """
    imports_before = Counter(k * len(cmds) // SETUP_REPEATS for k in range(SETUP_REPEATS))
    setup, rows = [], []
    t0 = time.perf_counter()
    for i, cmd in enumerate(cmds):
        setup += [runner.run(IMPORT_ARGV) for _ in range(imports_before[i])]
        rows.append(run_command(runner, cmd, refs))
    describe(rows, "pass")
    print(f"# measured one pass and {len(setup)} cold imports "
          f"in {time.perf_counter() - t0:.1f} s (nominal {seconds:g} s)")
    metrics = {
        "setup_s": statistics.median(r["wall_s"] for r in setup),
        "wall_s": sum(r["wall_s"] for r in rows),
        "cpu_s": sum(r["cpu_s"] for r in rows),
        "peak_rss_mb": max(r["rss_mb"] for r in rows),
    }
    failed = sum(1 for r in setup if r["code"] != 0) + sum(1 for r in rows if r["problems"])
    return metrics, len(setup) + len(rows), failed


def trace_run(runner, cmds, refs) -> tuple:
    """Per-layer metrics: import profile, one untraced pass, one traced pass."""
    imports, import_problems = import_metrics(runner)
    plain = run_pass(runner, cmds, refs, False)
    traced = run_pass(runner, cmds, refs, True)
    for a, b in zip(plain, traced):
        if a["stdout"] != b["stdout"]:
            b["problems"].append("stdout differs between the traced and untraced child")
    describe(plain, "untraced")
    describe(traced, "traced")
    layers = layer_metrics(traced, cmds)
    changed = sum(1 for cmd, r in zip(cmds, plain) if not cmd.seeded and
                  hashlib.sha256(r["stdout"]).hexdigest() != refs.get(cmd.id, {}).get("stdout_sha256"))
    metrics = {m["name"]: float(layers.get(m["name"], 0.0)) for m in BENCH["per_layer"]}
    metrics.update(imports)
    metrics["cli.stdout_changed"] = float(changed)
    metrics["trace.overhead_s"] = sum(r["wall_s"] for r in traced) - sum(r["wall_s"] for r in plain)
    rows = plain + traced
    failed = sum(1 for r in rows if r["problems"]) + (1 if import_problems else 0)
    detail = {"plain": plain, "traced": traced,
              "missing": sorted({m for r in traced for m in r["missing"]})}
    return metrics, len(rows) + 1, failed, detail


def self_check() -> int:
    """Reduced sizes, every workload: trace and oracle invariants, then layer coverage."""
    failures = []
    start = time.perf_counter()
    for name in workloads.WORKLOADS:
        runner = Runner(child_env(), time.perf_counter())
        cmds = workloads.WORKLOADS[name](0, "small", WORK)
        metrics, attempted, failed, detail = trace_run(runner, cmds, load_refs("small"))
        problems = [f"{r['id']}: {p}" for r in detail["plain"] + detail["traced"] for p in r["problems"]]
        for r in detail["traced"]:
            problems += [f"{r['id']}: {p}" for p in nesting_problems(r["spans"])]
            problems += [f"{r['id']}: span {s['name']} self time {t:.3g} s < 0"
                         for s, t in zip(r["spans"], self_times(r["spans"])) if t < 0]
        if detail["missing"]:
            problems.append(f"tracer targets not found: {detail['missing']}")
        for metric, per_workload in EXPECT_CALLS.items():
            got, want = metrics[metric], per_workload[name]
            if (want == "0") != (got == 0):
                problems.append(f"{metric} = {got:g}, want {want}")
        for p in problems:
            failures.append(f"{name}: {p}")
        print(f"{'PASS' if not problems else 'FAIL'} {name}: {attempted} commands, "
              f"{failed} failed, trace overhead {metrics['trace.overhead_s']:.2f} s")
    for f in failures:
        print("FAIL", f)
    print(f"self-check {'passed' if not failures else 'FAILED'} in {time.perf_counter() - start:.0f} s")
    return 0 if not failures else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"],
                    help="nominal length of a run; the work per run is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true", help="fast check at reduced sizes")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rispaces" / "cli.py").is_file():
        print(f"error: no rispaces sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    start = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    try:
        env = child_env()
        runner = Runner(env, start)
        # bytecode is written once here, untimed, as an installed package would have it
        runner.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")])
        if args.self_check:
            return self_check()
        cmds = workloads.WORKLOADS[args.workload](args.seed, "full", WORK)
        refs = load_refs("full")
        if args.trace:
            metrics, attempted, failed, _ = trace_run(runner, cmds, refs)
            units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        else:
            metrics, attempted, failed = measure(runner, cmds, refs, args.seconds)
            units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        print("# environment " + json.dumps(environment(), sort_keys=True))
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        print(json.dumps(result))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
