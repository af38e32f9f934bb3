"""Check that this checkout and another do the same work: the same output bytes,
the same traced counts and each command's own peak memory.

Usage: ``python3 tools/samebits.py OTHER_CHECKOUT``.  It byte-compiles both
``src`` trees (``compileall``), as the benchmark's first child leaves its
checkout: a child that compiles the package peaks about 0.3 MiB higher.  It
runs every command of ``perfbench/workloads.py`` at full size and workload
seeds 0 and 7, with this checkout's ``src`` on ``PYTHONPATH`` and with
OTHER_CHECKOUT's, as ``perfbench/run.py``'s child command and environment.
Both sides read the same step files, written once to a temporary directory.
On Linux each child runs under a ``-c`` wrapper that writes its own ``VmHWM``
to stderr at exit (the harness's ``ru_maxrss`` starts at the size of the
harness that forked the child), and ``run`` cuts that line off again.  It
prints, in order:

1. each command whose exit code, stdout or stderr differs;
2. each seed-0 command's peak here and there and their difference, in MiB, the
   median of ``RUNS`` runs per side, the first of which is the byte run;
3. each per-layer metric whose ``BENCHMARK.json`` unit is not ``s`` and whose
   value differs, from one ``perfbench/run.py --trace 1 --seed 0`` run per
   workload in each checkout (which writes the harness's bytecode and work
   files into OTHER_CHECKOUT, as it does here);
4. the counts of differing commands and traced counts.

It exits 1 if a command or traced count differs or a peak is missing, else 0,
and 2 on a usage error; peaks are reported, not judged.  Off Linux there is no
``/proc/self/status``: the children run unwrapped, section 2 is one line that
says so, and bytes and counts are still compared.  It uses the standard library
only (the workload module uses NumPy), two children at a time: about 60 s on
2 vCPU.
"""

from __future__ import annotations

import json
import statistics
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
RUNS = 5  # peak samples of each seed-0 command on each side
LINUX = sys.platform.startswith("linux")
# the traced metrics that count work rather than time it
COUNTED = [m["name"] for m in bench.BENCH["per_layer"] if m["unit"] != "s"]

# ``python -c WRAPPER -m MODULE ARGS`` or ``python -c WRAPPER -c CODE ARGS`` runs
# the child as ``python -m MODULE ARGS`` or ``python -c CODE ARGS`` would, then
# reports its own peak as the last line of stderr.
WRAPPER = """\
import atexit, runpy, sys
def report():
    with open('/proc/self/status') as fh:
        kib = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))
    sys.stderr.write(f'\\nVmHWM {kib}\\n')
atexit.register(report)
mode, target = sys.argv[1:3]
if mode == '-m':
    sys.argv = [target, *sys.argv[3:]]
    runpy.run_module(target, run_name='__main__', alter_sys=True)
else:
    sys.argv = ['-c', *sys.argv[3:]]
    exec(compile(target, '<string>', 'exec'), {'__name__': '__main__'})
"""


def run(checkout: Path, cmd) -> tuple:
    """The command's exit code, stdout, own stderr and own peak in MiB (None off
    Linux or if it reported none), run as the harness's child with the
    checkout's src and no bytecode written into it."""
    py, *rest = bench.command_argv(cmd)
    env = {**bench.child_env(), "PYTHONPATH": str(checkout / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([py, "-c", WRAPPER, *rest] if LINUX else [py, *rest], cwd=checkout,
                          env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=600)
    stderr, peak = proc.stderr, None
    head, line, kib = stderr.rpartition(b"\nVmHWM ")
    if LINUX and line and kib.endswith(b"\n") and kib[:-1].isdigit():
        stderr, peak = head, int(kib) / 1024
    return proc.returncode, proc.stdout, stderr, peak


def sample(checkout: Path, cmd, times: int) -> tuple:
    """The first run's exit code, stdout and stderr, and the median peak of
    ``times`` runs (None if any reported none)."""
    results = [run(checkout, cmd) for _ in range(times)]
    peaks = [peak for *_, peak in results]
    return results[0][:3], None if None in peaks else statistics.median(peaks)


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
    for checkout in (ROOT, other):
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(checkout / "src")],
                       check=True)
    with tempfile.TemporaryDirectory() as tmp:
        commands = [(name, seed, cmd) for name, build in workloads.WORKLOADS.items()
                    for seed in SEEDS for cmd in build(seed, "full", Path(tmp))]
        with ThreadPoolExecutor(2) as pool:
            jobs = [(name, seed, cmd.id,
                     *(pool.submit(sample, side, cmd, RUNS if LINUX and seed == 0 else 1)
                       for side in (ROOT, other))) for name, seed, cmd in commands]
            traced = [pool.submit(counted_metrics, side) for side in (ROOT, other)]
            differ, rows = 0, []
            for name, seed, cid, here, there in jobs:
                (here, here_peak), (there, there_peak) = here.result(), there.result()
                parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"),
                                                    here, there) if a != b]
                if parts:
                    differ += 1
                    print(f"{name} seed {seed} {cid}: differs in {', '.join(parts)}")
                if seed == 0:
                    rows.append((f"{name} {cid}", here_peak, there_peak))
    missing = 0
    if LINUX:
        print(f"{'command':<36} {'here MiB':>9} {'there MiB':>9} {'diff':>7}")
        for label, here, there in rows:
            if here is None or there is None:
                missing += 1
                print(f"{label:<36} reported no peak")
            else:
                print(f"{label:<36} {here:9.2f} {there:9.2f} {here - there:+7.2f}")
    else:
        print("peaks not read: there is no /proc/self/status off Linux")
    here, there = (job.result() for job in traced)
    moved = [key for key in here if here[key] != there[key]]
    for key in moved:
        print(f"trace {key}: {here[key]!r} here, {there[key]!r} in {other}")
    print(f"{differ} of {len(commands)} commands differ")
    print(f"{len(moved)} of {len(here)} traced counts differ")
    return 1 if differ or moved or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
