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
    of its relations over the ambient polynomial ring;
  - for each simplicial resolution shape with a known homotopy (bar,
    hypersurface, degree-one cell attachment, tensor of two bars, constant),
    the presentations of pi_1..pi_3, the simplicial identity verdict, and
    the complex `cotangent_from_resolution` builds or its refusal.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import (README_LEVELS, README_SESSION,  # noqa: E402
                       SURJECTION_CORPUS_SEED, SURJECTION_COUNT, _dumps,
                       check_surjection)

from aq import (GF, QQ, SUITES, AlgebraMap, CotangentError,  # noqa: E402
                PresentedAlgebra, bar_construction, constant_extension,
                corpus, cotangent_from_resolution, hypersurface_resolution,
                kill_cycle, run_suite, tensor_resolutions)
from aq.cli import run_session  # noqa: E402
from aq.groebner import SubmoduleEngine, vp_from_poly  # noqa: E402
from aq.simplicial import homotopy_modules  # noqa: E402

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


def _resolutions():
    """Named simplicial resolutions whose homotopy has a closed form."""
    L = 4
    line = corpus.algebra(QQ, ("y",))
    plane = corpus.algebra(QQ, ("x", "y"))
    node = corpus.algebra(QQ, ("x", "y"), ["x*y"])
    cusp = corpus.algebra(QQ, ("x", "y"), ["x^3 - y^2"])
    yield "bar line y", bar_construction(line, "y", L)
    yield "bar node x", bar_construction(node, "x", L)
    for entry in corpus.hypersurface_instances():
        yield (f"hypersurface {entry['name']}",
               hypersurface_resolution(entry["algebra"], entry["element"], L))
    yield "hypersurface cusp x*y + y", hypersurface_resolution(cusp, "x*y + y", L)
    yield "hypersurface GF(3) x^2 - y", hypersurface_resolution(
        corpus.algebra(GF(3), ("x", "y")), "x^2 - y", L)
    yield "kill plane x*y", kill_cycle(constant_extension(plane, L), "x*y", 1)
    yield "kill node x", kill_cycle(constant_extension(node, L), "x", 1)
    for name, base in (("plane", plane), ("node", node)):
        yield f"tensor {name} x y", tensor_resolutions(
            bar_construction(base, "x", L), bar_construction(base, "y", L))
    yield "constant plane", constant_extension(plane, L)


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

    for name, ext in _resolutions():
        pis = homotopy_modules(ext, 3)
        ok, failures = ext.simplicial_identities_hold()
        try:
            complex_ = cotangent_from_resolution(ext).complex.to_json()
        except CotangentError as exc:
            complex_ = {"refused": str(exc)}
        yield f"simplicial {name}", _dumps({
            "pi": {str(n): pis[n].to_json() for n in sorted(pis)},
            "identities": [ok, failures],
            "cotangent": complex_,
        })


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
