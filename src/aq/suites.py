"""Named check suites, runnable from a session file as `task check <name>`.

Every suite draws on the fixed or seeded inventories in `corpus` and
returns a deterministic report: {"passed": bool, "cases": int,
"failures": [names]} plus suite-specific integer detail.  Nothing here
depends on the ambient monomial order or on run-to-run state, so the
reports are safe to embed in canonical output.
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
from .modules import evaluate_matrix, koszul_homology_all_vanish
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


def _report(total: int, failures: list[str], **extra) -> dict:
    out = {"passed": not failures, "cases": total,
           "failures": sorted(failures)}
    out.update(extra)
    return out


def suite_polynomial_ring_vanishing() -> dict:
    """Freely adjoined variables: degree 0 free of that rank, 1 and 2 zero."""
    cases = corpus.polynomial_extension_instances()
    failures = []
    for case in cases:
        phi, want = case["map"], case["adjoined"]
        trunc = cotangent_trunc2(phi)
        ok = kahler_presentation(phi).module.free_rank() == want
        for q in case["points"]:
            ok = ok and trunc.dims_through(q, 2) == [want, 0, 0]
        if not ok:
            failures.append(case["name"])
    return _report(len(cases), failures)


def suite_hypersurface_sigma_s() -> dict:
    """Nonzerodivisor quotients: homology is the quotient sitting in degree
    1, differentials are the integer closed form, ranks follow the table."""
    cases = corpus.hypersurface_instances()
    failures = []
    for case in cases:
        base = case["algebra"]
        ext = hypersurface_resolution(base, case["element"], max_level=6)
        trunc = cotangent_from_resolution(ext)
        S = trunc.algebra
        field = S.field
        ok = trunc.homology_module(1).free_rank() == 1
        for n in (0, 2, 3, 4):
            ok = ok and trunc.homology_module(n).is_zero()
        zeros = {v: field.from_int(0) for v in S.variables}
        for n in range(2, 7):
            want = hypersurface_closed_form_differential(S, n)
            got = trunc.complex.differential(n)
            ok = ok and len(got) == len(want)
            for wrow, grow in zip(want, got):
                for w, g in zip(wrow, grow):
                    ok = ok and S.normal_form(w - g).is_zero()
            # entries are integer constants, so the rank at every residue
            # field is the rank of the evaluated matrix
            consts = [[e.evaluate(zeros) for e in row] for row in want]
            ok = ok and linalg.rank(field, consts) == hypersurface_rank_table(n)
        if not ok:
            failures.append(case["name"])
    return _report(len(cases), failures)


def suite_conormal_degree_one() -> dict:
    """Surjections: degree-1 homology, conormal fiber, and first Tor agree.

    On a surjection all three are m minus the rank at the point of the
    stage's syzygy matrix (m the number of relations), read off the same
    stages, so this suite checks the three readers, not the syzygies: a
    wrong syzygy list changes all three alike.
    """
    cases = corpus.random_surjections()
    failures = []
    for case in cases:
        phi = case["map"]
        trunc = cotangent_trunc2(phi)
        stage = trunc.provenance["stages"]
        P = stage.rp.algebra
        tor = tor_modules(phi, n_max=1)
        m = len(stage.generators)
        ok = True
        for q in case["points"]:
            pt = stage.rp.transport_point(q)
            cols = evaluate_matrix(stage.syzygy_vectors, pt)
            conormal = m - linalg.rank(P.field, cols)
            aq1 = trunc.dim_at_point(1, q)
            tor1 = tor.dim_at_point(1, q)
            ok = ok and aq1 == conormal == tor1
        if not ok:
            failures.append(case["name"])
    return _report(len(cases), failures)


def suite_five_term() -> dict:
    """Surjections: degree-2 homology against Tor_2 minus the Koszul rank."""
    cases = corpus.random_surjections()
    failures = []
    for case in cases:
        result = five_term_check(case["map"], case["points"])
        if not result["passes"]:
            failures.append(case["name"])
    return _report(len(cases), failures)


def suite_classifier_oracles() -> dict:
    """Fixed corpus: classifier verdicts match the hand-derived answers and
    every independent oracle agrees (disagreement raises, failing loudly)."""
    cases = corpus.classifier_corpus()
    failures = []
    for case in cases:
        report = classification_report(case["property"], case["subject"],
                                       case["points"])
        verdicts = [row["verdict"] for row in report.rows]
        if verdicts != case["expected"]:
            failures.append(case["name"])
    return _report(len(cases), failures)


def suite_hkr_diagonal() -> dict:
    """Flat instances: smoothness matches lci-ness of the diagonal."""
    cases = corpus.hkr_instances()
    failures = []
    for case in cases:
        result = hkr_equivalence_check(case["map"], case["points"])
        if not result["passes"]:
            failures.append(case["name"])
    return _report(len(cases), failures)


def suite_simplicial_validity() -> dict:
    """Identity checks on the stock constructions, plus the explicit
    isomorphism between the bar construction and a degree-1 cell attachment."""
    line = corpus.algebra(corpus.QQ, ("y",))
    plane = corpus.algebra(corpus.QQ, ("x", "y"))
    failures = []
    checks = []

    bar = bar_construction(line, "y", 6)
    checks.append(("bar-depth-6", bar.simplicial_identities_hold()[0]))

    killed = kill_cycle(constant_extension(plane, 4), "x*y", 1)
    checks.append(("kill-cycle-depth-4",
                   killed.simplicial_identities_hold()[0]))

    tens = tensor_resolutions(bar_construction(plane, "x", 4),
                              bar_construction(plane, "y", 4))
    checks.append(("tensor-depth-4", tens.simplicial_identities_hold()[0]))

    checks.append(("bar-equals-kill-cycle",
                   bar_kill_equivalence_holds(line, "y", 5)))

    for name, ok in checks:
        if not ok:
            failures.append(name)
    return _report(len(checks), failures)


def suite_koszul_depth() -> dict:
    """Exterior-algebra homology vanishes exactly for regular sequences."""
    failures = []
    total = 0
    for case in corpus.regular_sequence_instances():
        total += 1
        vanish, _ = koszul_homology_all_vanish(
            case["algebra"], [case["algebra"].poly(e)
                              for e in case["elements"]])
        if not vanish:
            failures.append(case["name"])
    for case in corpus.non_regular_sequence_instances():
        total += 1
        vanish, _ = koszul_homology_all_vanish(
            case["algebra"], [case["algebra"].poly(e)
                              for e in case["elements"]])
        if vanish:
            failures.append(case["name"])
    return _report(total, failures)


def suite_differentials_dual_oracle() -> dict:
    """Jacobian presentation of the differentials against the diagonal."""
    cases = corpus.random_base_extensions()
    failures = []
    for case in cases:
        phi = case["map"]
        kd = kahler_presentation(phi)
        oracle_mod, _ = kahler_oracle_via_diagonal(phi)
        ok = True
        for q in case["points"]:
            pt = phi.target.parse_point(q)
            a = kd.dim_at_point(pt)
            b = oracle_mod.dim_at_point(kd.presentation.transport_point(pt))
            ok = ok and a == b
        if not ok:
            failures.append(case["name"])
    return _report(len(cases), failures)


def suite_jacobi_zariski() -> dict:
    """Low-degree window of a composite stays numerically exact-compatible."""
    cases = corpus.jacobi_zariski_instances()
    failures = []
    for case in cases:
        result = jacobi_zariski_window(case["first"], case["second"],
                                       case["point"])
        if not (result["consistent"] and result["extended_consistent"]):
            failures.append(case["name"])
    return _report(len(cases), failures)


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
