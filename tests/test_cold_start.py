"""Importing the library and its command line loads only what a run needs."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# stdlib modules that no part of `aq` reads at import: `inspect` and
# `dataclasses` cost milliseconds on every fresh interpreter, and the
# command line loads `argparse` in `main`
UNUSED = ("inspect", "dataclasses", "argparse")


def test_importing_the_command_line_loads_no_unused_module():
    code = ("import sys, aq, aq.cli; "
            f"print(' '.join(m for m in {UNUSED!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
