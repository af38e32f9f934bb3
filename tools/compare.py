"""Check this checkout against its parent: the same work, then the benchmark in pairs.

Usage: ``python3 tools/compare.py PARENT_CHECKOUT LABEL [--pairs N] [--first-seed S]``
on Linux (the harness reads the CPU affinity, each child ``/proc/self/status``).
PARENT_CHECKOUT must hold ``perfbench/run.py`` and ``src/rispaces``.  Both ``src``
trees are byte-compiled once first, so no run pays for bytecode.  Then:

1. Same work (about 47 s on 2 vCPU).  Per side, with that side's ``src`` on
   ``PYTHONPATH`` and the harness's child environment, 144 children run two at a
   time, their files in a temporary directory: ``RUNS`` runs of each of the 23
   commands of ``perfbench/workloads.py`` at full size and seed 0, the 6 that the
   seed changes (``Command.seeded``) at seed 7, and one pass per workload at seed 0
   under this checkout's ``perfbench/tracer.py``.  Each untraced child runs under a
   ``-c`` wrapper that writes its own ``VmHWM`` to stderr at exit (``ru_maxrss``
   starts at the forking harness's size); ``run`` cuts it off.  It prints each
   seed-0 command's median peak in MiB on each side beside that side's spread
   (max - min), each of the 29 commands whose exit code, stdout or stderr differs,
   each of the 135 traced counts (``COUNTED`` per workload) that differs, and how
   many of each differ.
2. Pairs (about 6 minutes for 10 pairs on 2 vCPU).  Per workload, N pairs (default
   10) of each checkout's own ``perfbench/run.py --workload W --seed S --trace 0``
   at seeds S, S + 1, ... (default 21), the parent first in even pairs.  Per
   end-to-end metric of ``BENCHMARK.json`` it prints both medians, the parent's
   quartile spread (IQR), the pairs this checkout won (ties count for neither) and
   the first verdict that holds: ``gain`` (``loss``) if this checkout (the parent)
   won at least 9 of 10 pairs and the medians differ by more than the IQR;
   ``unresolved`` if the IQR exceeds the bound, read as a fraction of the parent's
   median; ``past bound`` if this checkout's median is worse by more than the
   bound; else ``within bound``.  A run with no result drops its pair; per workload
   it also prints the failed operations and the runs that exited non-zero.

Noise, seen on 2 vCPU against a second copy of one commit: a command's median peak
moved by up to 0.35 MiB, and growth's ``wall_s`` came 0.035 s from reading ``loss``.
The peaks of ``norm-step-orlicz`` and ``norm-step-marcinkiewicz`` sit at about
40.7 MiB or at 41.2-41.5 MiB, and a change that only imports one more small module
moves them to the upper level, so a +0.5 to +0.75 MiB row on those two is noise too.
A peak row inside its spreads, or a verdict that close to its line, is noise; peaks
are not judged.  Both sections go to ``BENCH_<LABEL>.json`` at the root of this
checkout, under ``same_work`` and ``workloads``, and the host under ``environment``
(the harness's ``environment()``: Python and NumPy versions, CPU count and model,
the children's pins; and ``numpy_exp_kernel``, the CPU class of NumPy's float64
``exp``), since only points from one machine compare.  Each side's size,
the measure of a simplicity change, goes under ``size``: its source lines (``wc -l
src/rispaces/*.py``), test lines (``wc -l tests/*.py``), exported names (``len(rispaces.__all__)``) and CLI options (each
subcommand's destinations but ``--help``, from ``rispaces.cli._build_parser()``), the
last two read by a child with that side's ``src``.  It exits 1 if a command or traced
count differs, a peak is missing or a run failed, 2 on a usage error, else 0.  It
uses the standard library and, for the kernel class, NumPy (as the workload module does).
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench  # noqa: E402  (perfbench/ is not a package)
import workloads  # noqa: E402

RUNS = 5  # peak samples of each seed-0 command on each side
# The per-layer metrics that count work (unit not s) but cli.stdout_changed: it counts
# stdouts unlike perfbench/reference.json, which the command comparison already covers.
COUNTED = [m["name"] for m in bench.BENCH["per_layer"]
           if m["unit"] != "s" and m["name"] != "cli.stdout_changed"]

# ``python -c WRAPPER -m MODULE ARGS`` (or ``-c CODE ARGS``) runs the child as
# ``python -m MODULE ARGS`` would, then reports its own peak as the last line of stderr.
WRAPPER = """\
import atexit, runpy, sys
def report():
    with open('/proc/self/status') as fh:
        kib = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))
    sys.stderr.write(f'\\nVmHWM {kib}\\n')
atexit.register(report)
mode, target, *args = sys.argv[1:]
sys.argv = ['-c', *args]  # run_module puts the module's path first, as -m does
if mode == '-m':
    runpy.run_module(target, run_name='__main__', alter_sys=True)
else:
    exec(target, {'__name__': '__main__'})
"""


def env(checkout: Path) -> dict:
    """The harness's child environment with the checkout's src and no bytecode writes."""
    return {**bench.child_env(), "PYTHONPATH": str(checkout / "src"),
            "PYTHONDONTWRITEBYTECODE": "1"}


def numpy_exp_kernel() -> str:
    """The CPU class of NumPy's float64 ``exp`` (``X86_V4`` for AVX-512), which sets the
    last bits of some pinned outputs; ``"unknown"`` on NumPy < 2.0, which cannot tell."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return "unknown"
    return opt_func_info(func_name="exp")["exp"]["dd"]["current"]


# a child that prints [exported names, CLI options], options null where the CLI does not import
SIZE = """\
import argparse, json, rispaces
try:
    from rispaces.cli import _build_parser
except ImportError:
    options = None
else:
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = len({(name, a.dest) for name, p in sub.choices.items() for a in p._actions
                   if not isinstance(a, argparse._HelpAction)})
print(json.dumps([len(rispaces.__all__), options]))
"""


def _lines(folder: Path) -> int:
    """The newline count of the folder's ``*.py`` files, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in folder.glob("*.py"))


def size(checkout: Path) -> dict:
    """The checkout's source and test lines, exported names and CLI options; ``exports``
    and ``options`` are None if its package does not import, ``options`` if its CLI does not."""
    proc = subprocess.run([sys.executable, "-c", SIZE], cwd=checkout, env=env(checkout),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)
    exports, options = json.loads(proc.stdout) if proc.returncode == 0 else (None, None)
    return {"source_lines": _lines(checkout / "src" / "rispaces"),
            "test_lines": _lines(checkout / "tests"), "exports": exports, "options": options}


def commands(workdir: Path) -> list:
    """(workload, seed, command): every command at seed 0, the seeded ones at 7."""
    return [(name, seed, cmd) for name, build in workloads.WORKLOADS.items()
            for seed in (0, 7) for cmd in build(seed, "full", workdir) if seed == 0 or cmd.seeded]


def run(checkout: Path, cmd) -> tuple:
    """The command's exit code, stdout, own stderr and own peak in MiB (None if it
    reported none), run as the harness's child with the checkout's src."""
    py, *rest = bench.command_argv(cmd)
    proc = subprocess.run([py, "-c", WRAPPER, *rest], cwd=checkout, env=env(checkout),
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=600)
    stderr, peak = proc.stderr, None
    head, line, kib = stderr.rpartition(b"\nVmHWM ")
    if line and kib.endswith(b"\n") and kib[:-1].isdigit():
        stderr, peak = head, int(kib) / 1024
    return proc.returncode, proc.stdout, stderr, peak


def sample(checkout: Path, cmd, times: int) -> tuple:
    """The first run's exit code, stdout and stderr, and the peaks of ``times`` runs
    (None if any reported none)."""
    results = [run(checkout, cmd) for _ in range(times)]
    peaks = [peak for *_, peak in results]
    return results[0][:3], None if None in peaks else peaks


def counted(checkout: Path, cmds) -> dict:
    """{metric: value} of one traced pass over ``cmds`` with the checkout's src."""
    runner = bench.Runner(env(checkout), time.perf_counter())
    with tempfile.TemporaryDirectory(dir=bench.WORK) as tmp:
        rows = [bench.run_command(runner, cmd, refs={}, trace_file=Path(tmp) / f"{i}.jsonl")
                for i, cmd in enumerate(cmds)]
    metrics = bench.layer_metrics(rows, cmds)
    return {m: metrics.get(m, 0.0) for m in COUNTED}


def same_work(sides: dict) -> dict:
    """Run and print the same-work section of ``sides``: its record, whose ``commands_differing``,
    ``counts_differing`` and ``peaks_missing`` list what makes the tool exit 1."""
    with tempfile.TemporaryDirectory() as tmp:
        bench.WORK = Path(tmp)
        todo = commands(bench.WORK)
        with ThreadPoolExecutor(2) as pool:
            # the whole-workload traced passes first, so the short jobs fill in behind
            traced = {side: [(name, pool.submit(counted, checkout, [
                cmd for n, seed, cmd in todo if n == name and seed == 0]))
                for name in workloads.WORKLOADS] for side, checkout in sides.items()}
            jobs = [(name, seed, cmd.id, {side: pool.submit(
                sample, checkout, cmd, RUNS if seed == 0 else 1)
                for side, checkout in sides.items()}) for name, seed, cmd in todo]
            results = [(name, seed, cid, {side: job.result() for side, job in pair.items()})
                       for name, seed, cid, pair in jobs]
    record = {"commands": {}, "peaks_missing": []}
    print(f"{'command':<36} {'here MiB':>9} {'spread':>6} {'parent MiB':>10} {'spread':>6} "
          f"{'diff':>7}")
    for name, seed, cid, result in results:
        label = f"{name} seed {seed} {cid}"
        (here, here_peaks), (there, there_peaks) = result["head"], result["parent"]
        parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"), here, there)
                 if a != b]
        record["commands"][label] = {"differs": parts, **{
            side: {"code": code, "stdout": out.decode(errors="backslashreplace"),
                   "stderr": err.decode(errors="backslashreplace"), "peaks_mib": peaks}
            for side, ((code, out, err), peaks) in result.items()}}
        if seed != 0:
            continue
        if here_peaks is None or there_peaks is None:
            record["peaks_missing"].append(label)
            print(f"{name + ' ' + cid:<36} reported no peak")
            continue
        mid_here, mid_there = statistics.median(here_peaks), statistics.median(there_peaks)
        print(f"{name + ' ' + cid:<36} {mid_here:9.2f} {max(here_peaks) - min(here_peaks):6.2f} "
              f"{mid_there:10.2f} {max(there_peaks) - min(there_peaks):6.2f} "
              f"{mid_here - mid_there:+7.2f}")
    record["commands_differing"] = [k for k, v in record["commands"].items() if v["differs"]]
    for label in record["commands_differing"]:
        print(f"{label}: differs in {', '.join(record['commands'][label]['differs'])}")
    record["counts"] = {side: {f"{name} {metric}": value for name, job in passes
                               for metric, value in job.result().items()}
                        for side, passes in traced.items()}
    here, there = record["counts"]["head"], record["counts"]["parent"]
    record["counts_differing"] = [key for key in here if here[key] != there[key]]
    for key in record["counts_differing"]:
        print(f"trace {key}: {here[key]!r} here, {there[key]!r} in {sides['parent']}")
    print(f"{len(record['commands_differing'])} of {len(todo)} commands differ")
    print(f"{len(record['counts_differing'])} of {len(here)} traced counts differ", flush=True)
    return record


def bench_run(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``checkout``: its result, or why it has none."""
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--trace", "0"], cwd=checkout, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=600)
    except subprocess.TimeoutExpired:  # run.py ends its own runs inside 180 s
        return {"code": None, "error": "no result in 600 s"}
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        return {"code": proc.returncode, "error": proc.stderr.strip()[-500:]}
    return {"code": proc.returncode, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def summarize(parent: list, head: list, metrics: list) -> dict:
    """{metric: medians, parent IQR, wins and verdict} of paired runs: ``parent[i]``
    and ``head[i]`` are the {metric: value} of pair i, ``metrics`` the end-to-end
    entries of BENCHMARK.json."""
    summary = {}
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        a, b = [r[name] for r in parent], [r[name] for r in head]
        q1, _, q3 = statistics.quantiles(a, n=4)
        iqr, med_a, med_b = q3 - q1, statistics.median(a), statistics.median(b)
        won = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        lost = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        worse = sign * (med_b - med_a)  # > 0 when this checkout's median is worse
        if 10 * won >= 9 * len(a) and -worse > iqr:
            verdict = "gain"
        elif 10 * lost >= 9 * len(a) and worse > iqr:
            verdict = "loss"
        elif iqr > bound * abs(med_a):
            verdict = "unresolved"
        elif worse > bound * abs(med_a):
            verdict = "past bound"
        else:
            verdict = "within bound"
        summary[name] = {"parent_median": med_a, "head_median": med_b, "parent_iqr": iqr,
                         "pairs": len(a), "won": won, "verdict": verdict}
    return summary


def table(summary: dict) -> list:
    """The summary as aligned text lines, one per metric."""
    lines = [f"  {'metric':<12} {'parent':>10} {'here':>10} {'parent IQR':>10} "
             f"{'won':>6}  verdict"]
    for name, s in summary.items():
        lines.append(f"  {name:<12} {s['parent_median']:10.3f} {s['head_median']:10.3f} "
                     f"{s['parent_iqr']:10.3f} {s['won']:>3}/{s['pairs']:<2}  {s['verdict']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="the other checkout, read as the parent")
    ap.add_argument("label", help="names the result file, BENCH_<LABEL>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=21)
    args = ap.parse_args(argv)
    if not sys.platform.startswith("linux"):
        ap.error(f"needs Linux, for the CPU affinity and /proc/self/status; not {sys.platform}")
    parent = args.parent.resolve()
    for need in ("perfbench/run.py", "src/rispaces"):
        if not (parent / need).exists():
            ap.error(f"{parent} has no {need}")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, to give the parent a spread")
    sides = {"parent": parent, "head": ROOT}
    for checkout in sides.values():
        compileall.compile_dir(checkout / "src", quiet=1)
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    report = {"label": args.label, "seeds": list(seeds),
              "environment": {**bench.environment(), "numpy_exp_kernel": numpy_exp_kernel()},
              "size": {side: size(checkout) for side, checkout in sides.items()},
              "same_work": same_work(sides), "workloads": {}}
    print("size (source lines, test lines, exported names, options): " + "; ".join(
        f"{side} {n['source_lines']}, {n['test_lines']}, {n['exports']}, {n['options']}"
        for side, n in report["size"].items()))
    failed = sum(len(report["same_work"][key])
                 for key in ("commands_differing", "counts_differing", "peaks_missing"))
    for workload in bench.BENCH["workloads"]:
        name, runs = workload["name"], []
        for i, seed in enumerate(seeds):
            order = ["parent", "head"] if i % 2 == 0 else ["head", "parent"]
            pair = {side: bench_run(sides[side], name, seed) for side in order}
            runs.append({"seed": seed, "first": order[0], **pair})
        done = [r for r in runs if all("metrics" in r[side] for side in sides)]
        summary = summarize([r["parent"]["metrics"] for r in done],
                            [r["head"]["metrics"] for r in done],
                            bench.BENCH["end_to_end"]) if len(done) > 1 else {}
        report["workloads"][name] = {"runs": runs, "summary": summary}
        counts = {side: (sum(r[side].get("failed", 0) for r in runs),
                         sum(r[side].get("attempted", 0) for r in runs)) for side in sides}
        broken = sum(r[side]["code"] != 0 or "metrics" not in r[side]
                     for r in runs for side in sides)
        failed += broken
        print(f"{name}: {len(done)} of {len(runs)} pairs, seeds {seeds[0]}-{seeds[-1]}; "
              f"failed operations: parent {counts['parent'][0]} of {counts['parent'][1]}, "
              f"here {counts['head'][0]} of {counts['head'][1]}; runs failed: {broken}")
        print("\n".join(table(summary)), flush=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
