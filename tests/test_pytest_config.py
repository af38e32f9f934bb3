"""The suite's own pytest configuration must report every test, failures included."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

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
