"""Write a differential dump: one text file of outputs that a refactor
must leave byte-identical.

Run it at two commits and compare the files:

    PYTHONPATH=src python tools/diffdump.py before.txt   # first commit
    PYTHONPATH=src python tools/diffdump.py after.txt    # second commit
    cmp before.txt after.txt

Sections, in order:
  - the README session's `canonical.json` at levels 5, 7 and 9, under
    degrevlex and under lex;
  - every acceptance suite's report;
  - the `check_surjection` detail of `random_surjections(100, 1105)`;
  - for each corpus target, its reduced Groebner basis and the syzygies
    of its relations over the ambient polynomial ring.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import (README_LEVELS, README_SESSION,  # noqa: E402
                       SURJECTION_CORPUS_SEED, SURJECTION_COUNT, _dumps,
                       check_surjection)

from aq import SUITES, AlgebraMap, PresentedAlgebra, corpus, run_suite  # noqa: E402
from aq.cli import run_session  # noqa: E402
from aq.groebner import SubmoduleEngine, vp_from_poly  # noqa: E402

CORPORA = ("classifier_corpus", "random_surjections", "random_base_extensions",
           "regular_sequence_instances", "non_regular_sequence_instances",
           "hypersurface_instances", "polynomial_extension_instances",
           "hkr_instances", "jacobi_zariski_instances")


def _targets(entry: dict) -> list[tuple[str, PresentedAlgebra]]:
    """The algebras an entry names, directly or as the target of a map."""
    out = []
    for key in sorted(entry):
        value = entry[key]
        if isinstance(value, AlgebraMap):
            out.append((key, value.target))
        elif isinstance(value, PresentedAlgebra):
            out.append((key, value))
    return out


def sections():
    for order in ("degrevlex", "lex"):
        for level in README_LEVELS:
            with tempfile.TemporaryDirectory() as tmp:
                run_session(README_SESSION.format(level=level), tmp, order)
                text = (Path(tmp) / "canonical.json").read_text()
            yield f"readme {order} level {level}", text

    for name in SUITES:
        yield f"suite {name}", _dumps(run_suite(name))

    for case in corpus.random_surjections(SURJECTION_COUNT,
                                          SURJECTION_CORPUS_SEED):
        ok, detail = check_surjection(case["map"], case["points"])
        yield f"surjection {case['name']}", _dumps({"ok": ok, **detail})

    for family in CORPORA:
        for entry in getattr(corpus, family)():
            for key, target in _targets(entry):
                ring = target.ring
                engine = SubmoduleEngine(
                    ring, 1, [vp_from_poly(r, 0) for r in target.relations])
                lines = [f"ring {ring!r}"]
                lines += [f"gb {g}" for g in target.groebner()]
                lines += ["syz " + ", ".join(str(c) for c in row)
                          for row in engine.syzygies()]
                yield (f"corpus {family} {entry['name']} {key}",
                       "\n".join(lines) + "\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: diffdump.py OUT", file=sys.stderr)
        return 2
    with open(argv[0], "w") as fh:
        for title, body in sections():
            fh.write(f"== {title}\n{body}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
