"""Compare the benchmark of this checkout with another's, in alternated pairs.

Usage: ``python3 tools/compare.py PARENT_CHECKOUT LABEL [--pairs N] [--first-seed S]``.

For each workload of ``BENCHMARK.json`` it runs N pairs (default 10) of
``python3 perfbench/run.py --workload W --seed S --trace 0``, one run in
PARENT_CHECKOUT and one here, at seeds S, S + 1, ... (default 21).  The parent
runs first in even pairs and this checkout in odd ones, so neither side always
meets the machine in the state the other left.  Each run is its checkout's own
harness on its own ``src``, as the benchmark runs them, one at a time.  Per
workload and end-to-end metric of ``BENCHMARK.json`` it prints both medians,
the parent's quartile spread (IQR), the pairs this checkout won (ties count for
neither) and a verdict, the first that holds of:

- ``gain`` (``loss``): this checkout (the parent) won at least 9 of 10 pairs,
  and the medians differ by more than the parent's IQR;
- ``unresolved``: the parent's IQR exceeds the metric's bound;
- ``past bound``: this checkout's median is worse than the parent's by more
  than the bound;
- ``within bound``.

A bound is read as a fraction of the parent's median.  A run that prints no
result drops its pair from the medians; per workload it also prints the failed
operations each side's runs report and the runs that exited non-zero.  Every
run and the summary go to ``BENCH_<LABEL>.json`` at the root of this checkout.
An A/A run, with a second copy of one commit as PARENT_CHECKOUT, should show
no ``gain`` and no ``loss``.  It exits 1 if a run failed, 2 on a usage error,
else 0.  It uses the standard library only: about 6 minutes for 10 pairs of
the three workloads on 2 vCPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


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
        a, b = [run[name] for run in parent], [run[name] for run in head]
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
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        ap.error(f"{parent} has no perfbench/run.py")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, to give the parent a spread")
    sides = {"parent": parent, "head": ROOT}
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    report, failed = {"label": args.label, "seeds": list(seeds), "workloads": {}}, 0
    for workload in BENCH["workloads"]:
        name, runs = workload["name"], []
        for i, seed in enumerate(seeds):
            order = ["parent", "head"] if i % 2 == 0 else ["head", "parent"]
            pair = {side: bench_run(sides[side], name, seed) for side in order}
            runs.append({"seed": seed, "first": order[0], **pair})
        done = [r for r in runs if all("metrics" in r[side] for side in sides)]
        summary = summarize([r["parent"]["metrics"] for r in done],
                            [r["head"]["metrics"] for r in done],
                            BENCH["end_to_end"]) if len(done) > 1 else {}
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
