import os

import pytest

import rispaces


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this checkout's rispaces."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rispaces.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
