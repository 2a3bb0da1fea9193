"""Write the reference outputs that the benchmark compares against.

    PYTHONPATH=src python3 bench/make_reference.py

Writes `bench/reference/readme-<level>.canonical.json` (the `canonical.json`
bytes of the README session at each level) and `bench/reference/suites.json`
(each suite's report).  Run it only on a commit whose outputs are known to
be right; the committed files were made on the commit that added the
benchmark.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from workloads import README_LEVELS, README_SESSION, REFERENCE_DIR


def main() -> int:
    from aq import SUITES, run_suite
    from aq.cli import run_session

    REFERENCE_DIR.mkdir(exist_ok=True)
    for level in README_LEVELS:
        with tempfile.TemporaryDirectory() as out:
            code, _ = run_session(README_SESSION.format(level=level), out)
            if code != 0:
                print(f"README session at level {level} exited {code}",
                      file=sys.stderr)
                return 1
            canonical = (Path(out) / "canonical.json").read_bytes()
        path = REFERENCE_DIR / f"readme-{level}.canonical.json"
        path.write_bytes(canonical)
    reports = {name: run_suite(name) for name in SUITES}
    failing = [name for name, rep in reports.items() if not rep["passed"]]
    if failing:
        print(f"suites not passing: {', '.join(failing)}", file=sys.stderr)
        return 1
    (REFERENCE_DIR / "suites.json").write_text(
        json.dumps(reports, sort_keys=True, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
