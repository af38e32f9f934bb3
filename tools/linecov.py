"""Line coverage of ``src/rispaces`` by the test suite, on the standard library only.

Usage: ``python3 tools/linecov.py``.  It runs ``pytest.main(["-q", "tests"])``
in this process under ``sys.settrace``, records every line of the package that
runs, and prints each executable line that never ran as ``file:line: text``,
then their count.  A module's executable lines are the line numbers of its
compiled code objects (``co_lines``), so blank lines, comments and the inside
of a docstring or a multi-line literal are never listed.

Tracing slows the suite down (about 90 s on 2 vCPU, against 55 s), so this is
not part of the tier-1 run.  Only this process is traced: a line that runs only
in a child process, such as those that tests start with ``subprocess`` (the
``if __name__ == "__main__":`` guard of ``cli.py`` is one), is listed too.

The exit status is pytest's, so a failing test is not mistaken for coverage.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rispaces"


def executable_lines(path: Path) -> set:
    """The line numbers of every instruction in the module's code objects."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(args) -> tuple:
    """(pytest's exit status, {file: lines run}) for one in-process pytest run."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None  # no line events outside the package
        # the call event stands for the line of the code object's first instruction
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main() -> int:
    os.chdir(ROOT)
    status, hits = run_traced(["-q", "tests"])
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - hits.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines never ran")
    return status


if __name__ == "__main__":
    sys.exit(main())
