"""``tools/samebits.py`` runs every benchmark command under a wrapper that reports
the child's own peak on the last line of stderr.  Its byte comparison holds only
if cutting that line leaves exactly what a bare run of the command prints.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SAMEBITS = Path(__file__).resolve().parent.parent / "tools" / "samebits.py"


@pytest.fixture(scope="module")
def samebits():
    spec = importlib.util.spec_from_file_location("samebits", SAMEBITS)
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)  # leaves no bytecode cache in tools/ or perfbench/
    finally:
        sys.dont_write_bytecode = writes_bytecode
        sys.path[:] = path  # it puts perfbench/ first to import the harness
    return module


@pytest.mark.parametrize("args, code", [
    (["norm", "--space", "lpq:2:1", "--indicator", "1/4", "--format", "json"], 0),
    (["norm", "--space", "bogus:1", "--indicator", "1/4"], 2),
])
def test_wrapped_run_prints_what_a_bare_run_prints(samebits, args, code):
    cmd = samebits.workloads.Command("probe", "cli", args, check=None)
    env = {**samebits.bench.child_env(), "PYTHONPATH": str(samebits.ROOT / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    bare = subprocess.run(samebits.bench.command_argv(cmd), cwd=samebits.ROOT, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True)
    *wrapped, peak = samebits.run(samebits.ROOT, cmd)
    assert bare.returncode == code
    assert bare.stdout if code == 0 else bare.stderr  # an empty and a nonempty stderr
    assert wrapped == [bare.returncode, bare.stdout, bare.stderr]
    if samebits.LINUX:
        assert isinstance(peak, float) and peak > 0
