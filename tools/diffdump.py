"""Write a differential dump: one text file of outputs that a refactor
must leave byte-identical.

Run it at two commits and compare the files:

    PYTHONPATH=src python tools/diffdump.py before.txt   # first commit
    PYTHONPATH=src python tools/diffdump.py after.txt    # second commit
    cmp before.txt after.txt

The dump is also pinned in `tests/diffdump.txt`, which tier-1
(`tests/test_diffdump.py`) regenerates in process.  A change that means to
move bytes rewrites that file in the same commit, so its diff shows what
moved:

    PYTHONPATH=src python tools/diffdump.py tests/diffdump.txt

Sections, in order:
  - the README session's `canonical.json` at levels 5, 7 and 9, under
    degrevlex and under lex;
  - every acceptance suite's report;
  - the `check_surjection` detail of `random_surjections(100, 1105)`;
  - for each corpus target, its reduced Groebner basis and the syzygies
    of its relations over the ambient polynomial ring;
  - for each corpus map, the degree-<=2 homology and cohomology reports
    with coefficients in the target, the truncation's syzygies, second
    syzygies and Koszul lifts, the residue-field dims in degrees 0..2, the
    dims of Tor_0..Tor_3 (`tor_modules(phi, n_max=3)`), the smooth and lci
    classifications' oracle dicts at the entry's points, and the
    `global_flag` of the smooth, unramified, etale and lci classification
    reports over those points, each written as its refusal where the
    library refuses it;
  - for each `jacobi_zariski_instances()` pair, the right-exact
    Jacobi-Zariski sequence of Kahler differentials (maps, verdict and
    detail), the Jacobian chain rule verdict, and the conormal sequence of
    the first map and the second map's target relations, each written as
    its refusal where the library refuses it;
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

from aq import (GF, QQ, SUITES, AlgebraError, AlgebraMap,  # noqa: E402
                CotangentError, PresentedAlgebra, aq_cohomology, aq_homology,
                bar_construction, classification_report, constant_extension,
                corpus, cotangent_from_resolution, cotangent_trunc2,
                hypersurface_resolution, is_lci_at, is_smooth_at, kill_cycle,
                run_suite, tensor_resolutions, tor_modules)
from aq.cli import run_session  # noqa: E402
from aq.groebner import SubmoduleEngine, vp_from_poly  # noqa: E402
from aq.kahler import (conormal_sequence,  # noqa: E402
                       jacobi_zariski_right_exact, jacobian_chain_rule_holds)
from aq.simplicial import homotopy_modules  # noqa: E402

CORPORA = ("classifier_corpus", "random_surjections", "random_base_extensions",
           "regular_sequence_instances", "non_regular_sequence_instances",
           "hypersurface_instances", "polynomial_extension_instances",
           "hkr_instances", "jacobi_zariski_instances")
GLOBAL_FLAG_PROPERTIES = ("smooth", "unramified", "etale", "lci")


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


def _or_refusal(compute):
    try:
        return compute()
    except AlgebraError as exc:
        return {"refused": f"{type(exc).__name__}: {exc}"}


def _tor_dims(phi: AlgebraMap, points: list[dict]):
    """dim Tor_n at each point for n = 0..3, refusals as text."""
    tor = _or_refusal(lambda: tor_modules(phi, n_max=3))
    if isinstance(tor, dict):
        return tor
    return [_or_refusal(lambda: [tor.dim_at_point(n, q) for n in range(4)])
            for q in points]


def _stages(phi: AlgebraMap) -> dict:
    """The truncation's syzygies, second syzygies and Koszul lifts."""
    stages = cotangent_trunc2(phi).provenance["stages"]
    return {name: [[str(p) for p in vec] for vec in getattr(stages, name)]
            for name in ("syzygy_vectors", "second_syzygies", "koszul_lifts")}


def _homology(phi: AlgebraMap, points: list[dict]) -> dict:
    """The truncation's reports and stages, Tor, the smooth and lci
    oracles and the global flags for one map, refusals as text."""
    return {
        "homology": _or_refusal(lambda: aq_homology(phi, None, 2).to_json()),
        "cohomology": _or_refusal(
            lambda: aq_cohomology(phi, None, 2).to_json()),
        "stages": _or_refusal(lambda: _stages(phi)),
        "residue dims": [
            _or_refusal(lambda: cotangent_trunc2(phi).dims_through(q, 2))
            for q in points],
        "tor dims": _tor_dims(phi, points),
        "smooth oracle": [
            _or_refusal(lambda: is_smooth_at(phi, q)["oracle"])
            for q in points],
        "lci oracle": [_or_refusal(lambda: is_lci_at(phi, q)["oracle"])
                       for q in points],
        "global flags": {
            prop: _or_refusal(
                lambda: classification_report(prop, phi, points).global_flag)
            for prop in GLOBAL_FLAG_PROPERTIES},
    }


def _exact_sequence(report) -> dict:
    return {"maps": report.maps, "ok": report.ok, "detail": report.detail}


def _kahler_sequences(entry: dict) -> dict:
    """The right-exact sequences and the chain rule for one composable
    pair, refusals as text."""
    first, second = entry["first"], entry["second"]
    return {
        "jacobi-zariski": _or_refusal(lambda: _exact_sequence(
            jacobi_zariski_right_exact(first, second))),
        "chain rule": _or_refusal(
            lambda: jacobian_chain_rule_holds(first, second)),
        "conormal": _or_refusal(lambda: _exact_sequence(
            conormal_sequence(first, second.target.relations))),
    }


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

    for family in CORPORA:
        for entry in getattr(corpus, family)():
            points = entry.get("points") or [entry.get("point", {})]
            for key in sorted(entry):
                if isinstance(entry[key], AlgebraMap):
                    yield (f"homology {family} {entry['name']} {key}",
                           _dumps(_homology(entry[key], points)))

    for entry in corpus.jacobi_zariski_instances():
        yield f"kahler {entry['name']}", _dumps(_kahler_sequences(entry))

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


def render() -> str:
    """The whole dump: each section as a `== title` line, then its body."""
    return "".join(f"== {title}\n{body}" for title, body in sections())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: diffdump.py OUT", file=sys.stderr)
        return 2
    with open(argv[0], "w") as fh:
        fh.write(render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
