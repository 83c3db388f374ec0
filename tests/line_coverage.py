"""Lines of ``src/uniflux`` that a pytest run never reaches.

    python tests/line_coverage.py -m "not slow"    # any pytest arguments
    python tests/line_coverage.py tests/test_analysis.py

Runs pytest in this process, with the arguments given, under
``sys.settrace`` (threads the run starts are traced too; subprocesses are
not), then prints each executable line of the package that no test reached,
as ``module.py:LINE: source``, and the count on stderr. A line is executable
when the compiled module holds an instruction on it; a function's own first
line (its ``def``, or its first decorator) counts as reached when the
function is defined, so it is taken from the module's or class's code, not
from the function's. Exits with pytest's exit code.

Not a test: pytest collects ``test_*.py`` only, and tier-1 does not run it.
"""

from __future__ import annotations

import functools
import os
import pathlib
import sys
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uniflux"


def executable_lines(path: pathlib.Path) -> set[int]:
    """Line numbers that hold an instruction of the compiled module ``path``."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [module]
    while stack:
        code = stack.pop()
        own = {line for _, _, line in code.co_lines() if line}
        if code is not module:
            own.discard(code.co_firstlineno)
        lines |= own
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = os.path.realpath(PACKAGE) + os.sep
    reached: dict[str, set[int]] = {}

    @functools.lru_cache(maxsize=None)
    def lines_of(filename: str) -> set[int] | None:
        path = os.path.realpath(filename)
        return reached.setdefault(path, set()) if path.startswith(prefix) else None

    def trace(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missing = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        seen = reached.get(os.path.realpath(path), set())
        for line in sorted(executable_lines(path) - seen):
            print(f"{path.name}:{line}: {source[line - 1].strip()}")
            missing += 1
    print(f"{missing} executable lines of src/uniflux not reached", file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
