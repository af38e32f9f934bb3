import os

import pytest
from hypothesis import settings

import rispaces

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
