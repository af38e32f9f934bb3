import contextlib
import importlib.util
import io
import os
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings

import rispaces
from rispaces.cli import main

ROOT = Path(__file__).resolve().parent.parent

# Every run draws the same examples, so a property test cannot fail on a run
# that changed nothing; each test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def run_main(*argv):
    """(exit code, stdout, stderr) of ``rispaces.cli.main`` on ``argv``, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this checkout's rispaces."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rispaces.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)``: the peak bytes that tracemalloc sees
    above the start while ``fn(*args, **kwargs)`` runs."""
    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


def _load(path: Path):
    """The module at ``path``, run with no bytecode written and ``sys.path`` restored, and
    registered under its file's stem, as a dataclass in it needs."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = sys.modules[path.stem] = importlib.util.module_from_spec(spec)
    saved_path = list(sys.path)
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)  # leaves no bytecode cache in perfbench/ or tools/
    finally:
        sys.dont_write_bytecode = writes_bytecode
        sys.path[:] = saved_path  # compare puts perfbench/ first to import the harness
    return module


def pytest_report_header():
    # the pinned outputs' last bits depend on the CPU class of NumPy's kernels
    kernel = _load(ROOT / "tools" / "compare.py").numpy_exp_kernel()
    return f"numpy exp kernel: {kernel}"


@pytest.fixture(scope="session")
def tracer():
    return _load(ROOT / "perfbench" / "tracer.py")


@pytest.fixture(scope="session")
def compare():
    return _load(ROOT / "tools" / "compare.py")
