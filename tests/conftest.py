import importlib.util
import os
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings

import rispaces

ROOT = Path(__file__).resolve().parent.parent

# Every run draws the same examples, so a property test cannot fail on a run
# that changed nothing; each test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


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
    """The module at ``path``, run with no bytecode written and ``sys.path`` restored."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    saved_path = list(sys.path)
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)  # leaves no bytecode cache in perfbench/ or tools/
    finally:
        sys.dont_write_bytecode = writes_bytecode
        sys.path[:] = saved_path  # samebits puts perfbench/ first to import the harness
    return module


@pytest.fixture(scope="session")
def tracer():
    return _load(ROOT / "perfbench" / "tracer.py")


@pytest.fixture(scope="session")
def samebits():
    return _load(ROOT / "tools" / "samebits.py")


@pytest.fixture(scope="session")
def compare():
    return _load(ROOT / "tools" / "compare.py")
