"""Adds one labelled point to the benchmark trajectory (perfbench/trajectory.json).

    python3 perfbench/trajectory.py LABEL

For every workload it makes ten untraced runs, each with another seed, and one
traced run, with BENCHMARK.json's ``run_seconds``, exactly as the benchmark's
own command line would, and
records per end-to-end metric the median, the quartiles and the spread (the
distance between the quartiles as a share of the median), plus the traced
per-layer metrics.  A point is comparable with another only when both were
measured on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

PATH = run.HERE / "trajectory.json"
RUNS = 10


def one_run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(run.BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return result


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("label")
    args = ap.parse_args()
    point = {"label": args.label, "environment": run.environment(), "workloads": {}}
    for workload in run.workloads.WORKLOADS:
        results = [one_run(workload, seed, 0) for seed in range(1, RUNS + 1)]
        e2e = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in results])
               for m in run.BENCH["end_to_end"]}
        traced = one_run(workload, 1, 1)
        point["workloads"][workload] = {
            "end_to_end": e2e,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(workload, {k: round(v["median"], 4) for k, v in e2e.items()},
              "spreads", {k: round(v["spread"], 4) for k, v in e2e.items()}, flush=True)
    points = json.loads(PATH.read_text()) if PATH.exists() else []
    points = [p for p in points if p["label"] != args.label] + [point]
    PATH.write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
