"""Print each line of ``src/dmdk`` that no test under ``tests/`` executes.

    python3 tests/untested_lines.py

Runs pytest on ``tests/`` in this process under the standard library's
``trace`` module, counting the lines of ``src/dmdk`` that execute, then
prints every executable line of ``src/dmdk`` that never ran, as
``file:line: text``, and their count. A line is executable when the
compiler starts one there, so docstrings, blank lines and the continuation
lines of a statement are never listed. ``trace`` does not follow
subprocesses. The command exits with pytest's status.

Its name does not start with ``test_``, so the suite does not collect it: under
``trace`` the suite runs about 3.5 times slower.
"""

from __future__ import annotations

import dis
import os
import sys
import trace
import types
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "dmdk"


def executable_lines(path: Path) -> set[int]:
    """The lines where some code object compiled from ``path`` starts a line."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines |= {line for _, line in dis.findlinestarts(code) if line}  # a module starts at line 0
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


class SourceOnly:
    """``trace``'s ignore test, by file: only frames of ``src/dmdk`` are
    counted, which keeps the run fast. (``ignoredirs`` would not do: ``trace``
    remembers its verdict per module name, so once a package's ``__init__``
    is ignored, every ``__init__`` is.)"""

    def names(self, filename: str | None, modulename: str) -> bool:
        return filename is None or not filename.startswith(f"{SRC}{os.sep}")


class Retrace:
    """A pytest plugin that puts the tracer back after each test that lost it.

    ``trace`` counts lines through a Python callback. A test that recurses
    until ``RecursionError`` can exhaust the stack inside that callback,
    which unsets it for the rest of the run."""

    def __init__(self, tracer: trace.Trace):
        self.tracer = tracer
        self.lost: list[str] = []

    def pytest_runtest_logfinish(self, nodeid: str) -> None:
        if sys.gettrace() is None:
            self.lost.append(nodeid)
            sys.settrace(self.tracer.globaltrace)


def main() -> int:
    import pytest  # imported here, so that importing this module runs nothing

    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = SourceOnly()
    retrace = Retrace(tracer)
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", str(TESTS)], plugins=[retrace])
    ran: dict[Path, set[int]] = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(Path(filename).resolve(), set()).add(line)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran.get(path.resolve(), set())):
            print(f"src/dmdk/{path.name}:{line}: {text[line - 1].strip()}")
            total += 1
    print(f"{total} lines of src/dmdk ran in no test")
    for nodeid in retrace.lost:
        print(f"tracing stopped during {nodeid} and was restarted after it: a line only it runs may be listed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
