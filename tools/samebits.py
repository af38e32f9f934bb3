"""Check that this checkout and another do the same work: the same output bytes,
the same traced counts and each command's own peak memory.

Usage: ``python3 tools/samebits.py OTHER_CHECKOUT``.  It byte-compiles both
``src`` trees, as the benchmark's first child leaves its checkout (compiling
costs a child about 0.3 MiB of peak).  Per side, with that side's ``src`` on
``PYTHONPATH`` and the harness's child environment, it runs 144 children, two
at a time: ``RUNS`` runs of each of the 23 commands of ``perfbench/workloads.py``
at full size and seed 0, the 6 that the seed changes (``Command.seeded``) at
seed 7, and one traced pass per workload at seed 0 under this checkout's
``perfbench/tracer.py``.  Step, output and trace files go in a temporary
directory: OTHER_CHECKOUT gets only ``src`` bytecode.  On Linux each untraced
child runs under a ``-c`` wrapper that writes its own ``VmHWM`` to stderr at exit
(``ru_maxrss`` starts at the forking harness's size); ``run`` cuts it off.  It prints:

1. each of the 29 commands whose exit code, stdout or stderr differs;
2. each seed-0 command's median peak of ``RUNS`` runs here and there, in MiB;
3. each of the 135 traced counts (``COUNTED`` per workload) that differs;
4. the counts of differing commands and traced counts.

It exits 1 if a command or traced count differs or a peak is missing, else 0,
and 2 on a usage error; peaks are reported, not judged.  Read a peak row against
two spreads, both measured on 2 vCPU.  Within one copy, five runs of a command
spread 0.02-0.32 MiB for 21 of the 23 commands, and up to about 1 MiB for
``norm-step-orlicz`` and ``norm-step-marcinkiewicz``, whose peaks sit on two
levels.  Between copies of the same tree, a command's median moves by up to
0.35 MiB.  Off Linux the children run unwrapped and section 2 is one line that
says so.  It uses the standard library only (the workload module uses NumPy):
about 47 s on 2 vCPU.
"""

from __future__ import annotations

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
LINUX = sys.platform.startswith("linux")
# The per-layer metrics that count work (unit not s) but cli.stdout_changed: it counts
# stdouts unlike perfbench/reference.json, which section 1 already compares.
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
mode, target = sys.argv[1:3]
if mode == '-m':
    sys.argv = [target, *sys.argv[3:]]
    runpy.run_module(target, run_name='__main__', alter_sys=True)
else:
    sys.argv = ['-c', *sys.argv[3:]]
    exec(compile(target, '<string>', 'exec'), {'__name__': '__main__'})
"""


def env(checkout: Path) -> dict:
    """The harness's child environment with the checkout's src and no bytecode writes."""
    return {**bench.child_env(), "PYTHONPATH": str(checkout / "src"),
            "PYTHONDONTWRITEBYTECODE": "1"}


def commands(workdir: Path) -> list:
    """(workload, seed, command): every command at seed 0, the seeded ones at 7."""
    return [(name, seed, cmd) for name, build in workloads.WORKLOADS.items()
            for seed in (0, 7) for cmd in build(seed, "full", workdir) if seed == 0 or cmd.seeded]


def run(checkout: Path, cmd) -> tuple:
    """The command's exit code, stdout, own stderr and own peak in MiB (None off Linux
    or if it reported none), run as the harness's child with the checkout's src."""
    py, *rest = bench.command_argv(cmd)
    proc = subprocess.run([py, "-c", WRAPPER, *rest] if LINUX else [py, *rest], cwd=checkout,
                          env=env(checkout), stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=600)
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


def counted(checkout: Path, cmds) -> dict:
    """{metric: value} of one traced pass over ``cmds`` with the checkout's src."""
    runner = bench.Runner(env(checkout), time.perf_counter())
    with tempfile.TemporaryDirectory(dir=bench.WORK) as tmp:
        rows = [bench.run_command(runner, cmd, refs={}, trace_file=Path(tmp) / f"{i}.jsonl")
                for i, cmd in enumerate(cmds)]
    metrics = bench.layer_metrics(rows, cmds)
    return {m: metrics.get(m, 0.0) for m in COUNTED}


def main(args) -> int:
    if len(args) != 1:
        print("usage: samebits.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    other = Path(args[0]).resolve()
    if not (other / "src" / "rispaces").is_dir():
        print(f"samebits.py: {other} has no src/rispaces", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"),
                    str(other / "src")], check=True)
    with tempfile.TemporaryDirectory() as tmp:
        bench.WORK = Path(tmp)
        todo = commands(bench.WORK)
        with ThreadPoolExecutor(2) as pool:
            # the whole-workload traced passes first, so the short jobs fill in behind
            traced = [[(name, pool.submit(counted, side, [cmd for n, seed, cmd in todo
                                                          if n == name and seed == 0]))
                       for name in workloads.WORKLOADS] for side in (ROOT, other)]
            jobs = [(name, seed, cmd.id,
                     *(pool.submit(sample, side, cmd, RUNS if LINUX and seed == 0 else 1)
                       for side in (ROOT, other))) for name, seed, cmd in todo]
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
    here, there = ({f"{name} {metric}": value for name, job in side
                    for metric, value in job.result().items()} for side in traced)
    moved = [key for key in here if here[key] != there[key]]
    for key in moved:
        print(f"trace {key}: {here[key]!r} here, {there[key]!r} in {other}")
    print(f"{differ} of {len(todo)} commands differ")
    print(f"{len(moved)} of {len(here)} traced counts differ")
    return 1 if differ or moved or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
