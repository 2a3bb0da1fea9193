"""The differential dump of `tools/diffdump.py` is pinned in `diffdump.txt`.

A change that means to move bytes of the dump rewrites the file in the same
commit, so that its diff shows what moved:

    PYTHONPATH=src python tools/diffdump.py tests/diffdump.txt
"""

import importlib.util
import sys
from pathlib import Path

from shared import suite_report

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).with_name("diffdump.txt")


def _diffdump():
    spec = importlib.util.spec_from_file_location(
        "diffdump", ROOT / "tools" / "diffdump.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _first_difference(expected: list[str], actual: list[str]) -> str | None:
    """Where two dumps first differ: line number, section and both lines."""
    section = "(before the first section)"
    for n, (want, got) in enumerate(zip(expected, actual), start=1):
        if want != got:
            return (f"line {n}, section {section!r}:\n"
                    f"  pinned: {want!r}\n  now:    {got!r}")
        if want.startswith("== "):
            section = want[3:].rstrip("\n")
    if len(expected) != len(actual):
        return (f"line {min(len(expected), len(actual)) + 1}: the pinned "
                f"dump has {len(expected)} lines, this one {len(actual)}")
    return None


def test_the_differential_dump_matches_the_pinned_file(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool extends it
    diffdump = _diffdump()
    # the acceptance gate runs the same suites: read its reports
    monkeypatch.setattr(diffdump, "run_suite", suite_report)
    expected = PINNED.read_text().splitlines(keepends=True)
    difference = _first_difference(
        expected, diffdump.render().splitlines(keepends=True))
    assert difference is None, difference
