"""Compare each benchmark command's own peak memory in this checkout and another.

Usage: ``python3 tools/peakmem.py OTHER_CHECKOUT``.  ``perfbench/run.py``
reads a child's peak as ``ru_maxrss`` from ``os.wait4``, which on Linux starts
at the resident size of the harness that forked it, so a command whose own
peak lies below that reads the harness's.  This tool reads the child's own
high-water mark instead.  It runs every command of ``perfbench/workloads.py``
at full size and workload seed 0, once with this checkout's ``src`` on
``PYTHONPATH`` and once with OTHER_CHECKOUT's, with the command line and
environment of ``perfbench/run.py``'s children, each under a short ``-c``
wrapper that writes the child's ``VmHWM`` from ``/proc/self/status`` to stderr
at exit.  The step files the workloads read are written once, to a temporary
directory, and both sides read the same ones.  Both ``src`` trees are
byte-compiled first (``compileall``, into their ``__pycache__``), as the
benchmark's first child leaves its checkout: a child that compiles the package
peaks about 0.3 MiB higher.

It prints one row per command: its peak here, there and the difference, in
MiB, the median of ``RUNS`` runs on each side.  It exits 1 if a command fails
or reports no peak, and 2 off Linux.  It uses the standard library only (the
workload module it imports uses NumPy) and runs two children at a time.
"""

from __future__ import annotations

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

SEED = 0
RUNS = 5

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


def peak_mib(checkout: Path, cmd):
    """The command's own peak in MiB, or None if it failed or reported none."""
    py, *rest = bench.command_argv(cmd)
    env = {**bench.child_env(), "PYTHONPATH": str(checkout / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([py, "-c", WRAPPER, *rest], cwd=checkout, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=600)
    last = proc.stderr.decode(errors="replace").rstrip().rpartition("\n")[2].split()
    if proc.returncode != 0 or len(last) != 2 or last[0] != "VmHWM":
        return None
    return int(last[1]) / 1024


def median_peak(checkout: Path, cmd):
    peaks = [peak_mib(checkout, cmd) for _ in range(RUNS)]
    return None if None in peaks else statistics.median(peaks)


def main(args) -> int:
    if len(args) != 1:
        print("usage: peakmem.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    if not sys.platform.startswith("linux"):
        print("peakmem.py: reads /proc/self/status, so it runs on Linux only", file=sys.stderr)
        return 2
    other = Path(args[0]).resolve()
    if not (other / "src" / "rispaces").is_dir():
        print(f"peakmem.py: {other} has no src/rispaces", file=sys.stderr)
        return 2
    for checkout in (ROOT, other):
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(checkout / "src")],
                       check=True)
    failed = 0
    print(f"{'command':<36} {'here MiB':>9} {'there MiB':>9} {'diff':>7}")
    with tempfile.TemporaryDirectory() as tmp:
        commands = [(f"{name} {cmd.id}", cmd) for name, build in workloads.WORKLOADS.items()
                    for cmd in build(SEED, "full", Path(tmp))]
        with ThreadPoolExecutor(2) as pool:
            jobs = [(label, pool.submit(median_peak, ROOT, cmd),
                     pool.submit(median_peak, other, cmd)) for label, cmd in commands]
            for label, here, there in jobs:
                here, there = here.result(), there.result()
                if here is None or there is None:
                    failed += 1
                    print(f"{label:<36} failed or reported no peak")
                else:
                    print(f"{label:<36} {here:9.2f} {there:9.2f} {here - there:+7.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
