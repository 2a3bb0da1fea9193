"""Named check suites, runnable from a session file as `task check <name>`.

Every suite runs a predicate on each case of a fixed or seeded inventory
in `corpus` and returns a deterministic report: {"passed": bool,
"cases": int, "failures": [names]}.  Nothing here depends on the
ambient monomial order or on run-to-run state, so the reports are safe
to embed in canonical output.
"""

from __future__ import annotations

from . import corpus, linalg
from .classify import classification_report, hkr_equivalence_check
from .cotangent import (
    cotangent_from_resolution,
    cotangent_trunc2,
    five_term_check,
    hypersurface_closed_form_differential,
    hypersurface_rank_table,
    jacobi_zariski_window,
    tor_modules,
)
from .kahler import kahler_oracle_via_diagonal, kahler_presentation
from .modules import (evaluate_matrix, koszul_homology_all_vanish,
                      normalize_matrix)
from .rings import AlgebraError
from .simplicial import (
    bar_construction,
    bar_kill_equivalence_holds,
    constant_extension,
    hypersurface_resolution,
    kill_cycle,
    tensor_resolutions,
)


class SuiteError(AlgebraError):
    pass


def _cases(cases: list[dict], holds) -> dict:
    """Run `holds` on every case, in order, and report the names it fails."""
    failures = [case["name"] for case in cases if not holds(case)]
    return {"passed": not failures, "cases": len(cases),
            "failures": sorted(failures)}


def suite_polynomial_ring_vanishing() -> dict:
    """Freely adjoined variables: degree 0 free of that rank, 1 and 2 zero."""
    def holds(case):
        phi, want = case["map"], case["adjoined"]
        trunc = cotangent_trunc2(phi)
        return (kahler_presentation(phi).module.free_rank() == want
                and all(trunc.dims_through(q, 2) == [want, 0, 0]
                        for q in case["points"]))
    return _cases(corpus.polynomial_extension_instances(), holds)


def suite_hypersurface_sigma_s() -> dict:
    """Nonzerodivisor quotients: homology is the quotient sitting in degree
    1, differentials are the integer closed form, ranks follow the table."""
    def holds(case):
        ext = hypersurface_resolution(case["algebra"], case["element"],
                                      max_level=6)
        trunc = cotangent_from_resolution(ext)
        S = trunc.algebra
        if trunc.complex.homology(1).free_rank() != 1 or not all(
                trunc.complex.homology_is_zero(n) for n in (0, 2, 3, 4)):
            return False
        zeros = {v: S.field.from_int(0) for v in S.variables}
        for n in range(2, 7):
            want = hypersurface_closed_form_differential(S, n)
            if normalize_matrix(S, want) != trunc.complex.differential(n):
                return False
            # entries are integer constants, so the rank at every residue
            # field is the rank of the evaluated matrix
            consts = [[e.evaluate(zeros) for e in row] for row in want]
            if linalg.rank(S.field, consts) != hypersurface_rank_table(n):
                return False
        return True
    return _cases(corpus.hypersurface_instances(), holds)


def suite_conormal_degree_one() -> dict:
    """Surjections: degree-1 homology, conormal fiber, and first Tor agree.

    On a surjection all three are m minus the rank at the point of the
    stage's syzygy matrix (m the number of relations), read off the same
    stages, so this suite checks the three readers, not the syzygies: a
    wrong syzygy list changes all three alike.
    """
    def holds(case):
        phi = case["map"]
        trunc = cotangent_trunc2(phi)
        stage = trunc.provenance["stages"]
        field = stage.rp.algebra.field
        tor = tor_modules(phi, n_max=1)
        m = len(stage.generators)
        for q in case["points"]:
            pt = stage.rp.transport_point(q)
            cols = evaluate_matrix(stage.syzygy_vectors, pt)
            conormal = m - linalg.rank(field, cols)
            if not (trunc.dim_at_point(1, q) == conormal
                    == tor.dim_at_point(1, q)):
                return False
        return True
    return _cases(corpus.random_surjections(), holds)


def suite_five_term() -> dict:
    """Surjections: degree-2 homology against Tor_2 minus the Koszul rank."""
    return _cases(corpus.random_surjections(), lambda case: five_term_check(
        case["map"], case["points"])["passes"])


def suite_classifier_oracles() -> dict:
    """Fixed corpus: classifier verdicts match the hand-derived answers and
    every independent oracle agrees (disagreement raises, failing loudly)."""
    def holds(case):
        report = classification_report(case["property"], case["subject"],
                                       case["points"])
        return [row["verdict"] for row in report.rows] == case["expected"]
    return _cases(corpus.classifier_corpus(), holds)


def suite_hkr_diagonal() -> dict:
    """Flat instances: smoothness matches lci-ness of the diagonal."""
    return _cases(corpus.hkr_instances(), lambda case: hkr_equivalence_check(
        case["map"], case["points"])["passes"])


def suite_simplicial_validity() -> dict:
    """Identity checks on the stock constructions, plus the explicit
    isomorphism between the bar construction and a degree-1 cell attachment."""
    line = corpus.algebra(corpus.QQ, ("y",))
    plane = corpus.algebra(corpus.QQ, ("x", "y"))
    checks = [
        ("bar-depth-6", lambda: bar_construction(line, "y", 6)
         .simplicial_identities_hold()[0]),
        ("kill-cycle-depth-4",
         lambda: kill_cycle(constant_extension(plane, 4), "x*y", 1)
         .simplicial_identities_hold()[0]),
        ("tensor-depth-4",
         lambda: tensor_resolutions(bar_construction(plane, "x", 4),
                                    bar_construction(plane, "y", 4))
         .simplicial_identities_hold()[0]),
        ("bar-equals-kill-cycle",
         lambda: bar_kill_equivalence_holds(line, "y", 5)),
    ]
    return _cases([{"name": name, "check": check} for name, check in checks],
                  lambda case: case["check"]())


def suite_koszul_depth() -> dict:
    """Exterior-algebra homology vanishes exactly for regular sequences."""
    cases = ([dict(case, regular=True)
              for case in corpus.regular_sequence_instances()]
             + [dict(case, regular=False)
                for case in corpus.non_regular_sequence_instances()])
    def holds(case):
        algebra = case["algebra"]
        vanish, _ = koszul_homology_all_vanish(
            algebra, [algebra.poly(e) for e in case["elements"]])
        return vanish == case["regular"]
    return _cases(cases, holds)


def suite_differentials_dual_oracle() -> dict:
    """Jacobian presentation of the differentials against the diagonal."""
    def holds(case):
        phi = case["map"]
        kd = kahler_presentation(phi)
        oracle_mod, _ = kahler_oracle_via_diagonal(phi)
        for q in case["points"]:
            pt = phi.target.parse_point(q)
            if kd.dim_at_point(pt) != oracle_mod.dim_at_point(
                    kd.presentation.transport_point(pt)):
                return False
        return True
    return _cases(corpus.random_base_extensions(), holds)


def suite_jacobi_zariski() -> dict:
    """Low-degree window of a composite stays numerically exact-compatible."""
    def holds(case):
        result = jacobi_zariski_window(case["first"], case["second"],
                                       case["point"])
        return result["consistent"] and result["extended_consistent"]
    return _cases(corpus.jacobi_zariski_instances(), holds)


SUITES = {
    "polynomial-ring-vanishing": suite_polynomial_ring_vanishing,
    "hypersurface-sigma-s": suite_hypersurface_sigma_s,
    "conormal-degree-one": suite_conormal_degree_one,
    "five-term": suite_five_term,
    "classifier-oracles": suite_classifier_oracles,
    "hkr-diagonal": suite_hkr_diagonal,
    "simplicial-validity": suite_simplicial_validity,
    "koszul-depth": suite_koszul_depth,
    "differentials-dual-oracle": suite_differentials_dual_oracle,
    "jacobi-zariski": suite_jacobi_zariski,
}


def run_suite(name: str) -> dict:
    if name not in SUITES:
        raise SuiteError(f"unknown suite {name!r}; available: "
                         f"{', '.join(sorted(SUITES))}")
    return SUITES[name]()
