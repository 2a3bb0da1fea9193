"""List the executable lines of src/aq that a test run never reaches.

A pytest plugin, standard library only.  Load it with `-p` from the root
of the repository:

    PYTHONPATH=src python -m pytest -q -p tools.unreached

It traces every line run in `src/aq` by the tests of this process (not by
subprocesses) and, at the end of the session, prints each executable line
below module level that never ran (a def line runs when its function is
called), as `src/aq/<file>:<line>: <source>`, then a count per file and in
all.  It reports whatever the tests' outcome
and deselects nothing.  Tracing slows every line several times over, so
tests that bound a refusal by CPU time can fail under it; read those
without the plugin.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from inspect import CO_OPTIMIZED
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "aq"
_PREFIX = str(SOURCE) + "/"
_reached: set[tuple[str, int]] = set()


def _local(frame, event, arg):
    _reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if not frame.f_code.co_filename.startswith(_PREFIX):
        return None
    _reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _function_lines(code) -> set[int]:
    """Lines with instructions in the functions, methods, lambdas and
    comprehensions inside `code`; module and class bodies, which run at
    import, are walked but not counted."""
    lines = set()
    if code.co_flags & CO_OPTIMIZED:
        lines.update(line for _, _, line in code.co_lines() if line)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _function_lines(const)
    return lines


def executable_lines() -> dict[Path, set[int]]:
    """Per source file, the lines with instructions below module level."""
    return {path: _function_lines(compile(path.read_text(), str(path), "exec"))
            for path in sorted(SOURCE.glob("*.py"))}


def pytest_configure(config):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    write = terminalreporter.write_line
    counts, total = Counter(), 0
    for path, lines in executable_lines().items():
        text = path.read_text().splitlines()
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in _reached:
                write(f"src/aq/{path.name}:{line}: {text[line - 1].strip()}")
                counts[path.name] += 1
    for name, count in counts.most_common():
        write(f"{name}: {count}")
    write(f"unreached: {counts.total()} of {total} executable lines")
