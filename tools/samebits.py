"""Byte-compare the benchmark's workload outputs of this checkout and another,
and compare the work each does.

Usage: ``python3 tools/samebits.py OTHER_CHECKOUT``.  It runs every command of
``perfbench/workloads.py`` at full size, at workload seeds 0 and 7, once with
this checkout's ``src`` on ``PYTHONPATH`` and once with OTHER_CHECKOUT's, as
the child command and environment of ``perfbench/run.py`` (thread pools pinned
to one thread, ``PYTHONHASHSEED=0``, ``RISPACES_SEED=0``).  The step files the
workloads read are written once, to a temporary directory, and both sides read
the same ones.  It prints one line for each command whose exit code, stdout or
stderr differs.

Then, in each checkout, it runs ``perfbench/run.py --trace 1 --seed 0`` for
every workload, and prints each per-layer metric whose unit in
``BENCHMARK.json`` is not ``s`` (call, layer and evaluation counts, bytes,
ratios) and whose value differs between the two.  That run writes the
harness's bytecode and work files into OTHER_CHECKOUT, as it does in this one.

It prints a count of each kind, and exits 1 if anything differs, 0 if nothing
does.  It uses the standard library only (the workload module it imports uses
NumPy) and runs two children at a time: about 40 s on 2 vCPU.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench  # noqa: E402  (perfbench/ is not a package)
import workloads  # noqa: E402

SEEDS = (0, 7)
# the traced metrics that count work rather than time it
COUNTED = [m["name"] for m in bench.BENCH["per_layer"] if m["unit"] != "s"]


def run(checkout: Path, cmd) -> tuple:
    # the harness's child command and environment, with the checkout's src and
    # no bytecode written into it
    env = {**bench.child_env(), "PYTHONPATH": str(checkout / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(bench.command_argv(cmd), cwd=checkout, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def counted_metrics(checkout: Path) -> dict:
    """{"workload metric": value} of the counted metrics of one checkout, from one
    ``--trace 1 --seed 0`` run of the checkout's own harness per workload."""
    values = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name,
                               "--seed", "0", "--trace", "1"], cwd=checkout,
                              stdin=subprocess.DEVNULL, capture_output=True, timeout=600)
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        values.update({f"{name} {m}": metrics.get(m, {}).get("value") for m in COUNTED})
    return values


def main(args) -> int:
    if len(args) != 1:
        print("usage: samebits.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    other = Path(args[0]).resolve()
    if not (other / "src" / "rispaces").is_dir():
        print(f"samebits.py: {other} has no src/rispaces", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        commands = [(f"{name} seed {seed} {cmd.id}", cmd)
                    for name, build in workloads.WORKLOADS.items() for seed in SEEDS
                    for cmd in build(seed, "full", Path(tmp))]
        with ThreadPoolExecutor(2) as pool:
            jobs = [(label, pool.submit(run, ROOT, cmd), pool.submit(run, other, cmd))
                    for label, cmd in commands]
            differ = 0
            for label, here, there in jobs:
                parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"),
                                                    here.result(), there.result()) if a != b]
                if parts:
                    differ += 1
                    print(f"{label}: differs in {', '.join(parts)}")
    with ThreadPoolExecutor(2) as pool:
        here, there = pool.map(counted_metrics, (ROOT, other))
    moved = [key for key in here if here[key] != there[key]]
    for key in moved:
        print(f"trace {key}: {here[key]!r} here, {there[key]!r} in {other}")
    print(f"{differ} of {len(commands)} commands differ")
    print(f"{len(moved)} of {len(here)} traced counts differ")
    return 1 if differ or moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
