"""Every function and method that the benchmark tracer wraps must exist in the package.

``perfbench/tracer.py`` wraps its targets by module and attribute name and
reports a missing one only in a traced benchmark run.  A rename in the package
would otherwise zero that layer's metrics until then; here it fails at once.
A target that still exists but is no longer called where the tracer looks
would zero them too, so one traced command is run as well.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)  # leaves no bytecode cache in perfbench/
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


def test_tracer_targets_resolve_in_the_package(tracer):
    assert tracer.FUNCTIONS and tracer.METHODS
    for home, attr, *_ in tracer.FUNCTIONS:
        target = getattr(importlib.import_module(f"rispaces.{home}"), attr, None)
        assert callable(target), f"rispaces.{home}.{attr}"
    for home, cls_name, meth, *_ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"rispaces.{home}"), cls_name, None)
        # the tracer wraps the method where the class itself defines it
        assert cls is not None and meth in vars(cls), f"rispaces.{home}.{cls_name}.{meth}"


def test_traced_selfsimilarity_records_the_fft_and_the_gaussian_inverse(tmp_path, child_env):
    out = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, "-B", str(TRACER), str(out), "selfsim-gauss", "selfsim", "4"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert not any("missing" in line for line in lines)
    names = {line["name"] for line in lines}
    assert {"experiments.fftconvolve", "gaussian.erfc_inverse_log"} <= names
