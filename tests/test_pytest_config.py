"""The suite's own configuration: pytest must report every test, failures
included, and ``pyproject.toml`` must declare every module the suite imports."""

import ast
import importlib.metadata
import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"

FAIL_THEN_PASS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # Under filterwarnings = error, a warning raised while the hypothesis
    # plugin reports a failure once ended the run with INTERNALERROR.
    path = tmp_path / "test_fail_then_pass.py"
    path.write_text(FAIL_THEN_PASS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(path)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def _normalized(distribution):
    return re.sub(r"[-_.]+", "-", distribution).lower()


def _third_party_imports():
    """Top-level modules imported under tests/ that are neither stdlib nor local."""
    local = {"rispaces"} | {p.stem for p in TESTS.glob("*.py")}
    found = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.partition(".")[0])
    return sorted(found - set(sys.stdlib_module_names) - local)


def test_every_module_the_tests_import_is_declared():
    # `pip install -e ".[test]"` must give every test file what it imports
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {_normalized(re.match(r"[\w.-]+", r).group()) for r in requirements}
    owners = importlib.metadata.packages_distributions()
    undeclared = [m for m in _third_party_imports()
                  if not {_normalized(d) for d in owners.get(m, [m])} & declared]
    assert undeclared == []
