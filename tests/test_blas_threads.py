"""Pinned reports keep their bytes at one and at two BLAS threads.

The Orlicz core's Newton slope is a NumPy ``dot``, and OpenBLAS splits a long dot
over its threads, so its last bits can follow the thread count: a 200,000-term dot
read 50011.66360725788 on one thread and 50011.663607257884 on two.  The benchmark
pins one thread and the test suite runs with none pinned, so the Orlicz reports
pinned in ``test_output_bytes.py`` are rerun here in child interpreters at each
count, against the same recorded hashes.
"""

import json
import subprocess
import sys

import pytest

from test_output_bytes import COMMANDS, EXPECTED, _step_file

IDS = ("norm-step-orlicz", "growth-layers-orlicz-np1", "growth-layers-orlicz-np4",
       "growth-layers-orlicz-odd")

# runs each argv list of argv[1] (JSON) through the CLI and prints its stdout's sha256
CHILD = """\
import contextlib, hashlib, io, json, sys
from rispaces.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_orlicz_reports_keep_their_bytes_at_each_thread_count(tmp_path, child_env, compare,
                                                               threads):
    step = tmp_path / "step.json"
    step.write_text(json.dumps(_step_file()))
    argvs = [[a.format(step=step) for a in dict(COMMANDS)[cid]] + ["--format", "json"]
             for cid in IDS]
    # the variables the benchmark harness pins to 1
    env = {**child_env, **dict.fromkeys(compare.bench.THREAD_VARS, str(threads))}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == [x for cid in IDS for x in ("0", EXPECTED[cid])]
