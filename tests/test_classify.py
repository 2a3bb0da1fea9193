"""Classification predicates, their oracles, and the zero-dimensional helpers."""

import gc
import itertools
import math
import weakref
from fractions import Fraction

import pytest

from aq.fields import QQ, GF
from aq.rings import PresentedAlgebra, AlgebraMap
from aq.corpus import (algebra, ground, inclusion_from_ground,
                       canonical_surjection, classifier_corpus, hkr_instances)
from aq.cotangent import five_term_check, tor_modules
from aq.classify import (
    ClassifyError, PROPERTIES, _monic_quartic_quadratic_free,
    is_smooth_at, is_unramified_at, is_etale_at, is_lci_at,
    is_regular_local, is_complete_intersection,
    hkr_equivalence_check, classification_report,
    module_of_imperfection, minimal_polynomial, univariate_irreducible,
    vector_space_dimension, standard_monomials,
)


def cusp():
    return algebra(QQ, ("x", "y"), ["x^3 - y^2"])


# -- pointwise predicates on hand-checked geometry --------------------------------


def test_cusp_smooth_locus():
    phi = inclusion_from_ground(cusp())
    assert not is_smooth_at(phi, {"x": 0, "y": 0})["verdict"]
    assert is_smooth_at(phi, {"x": 1, "y": 1})["verdict"]


def test_smooth_oracle_builds_no_truncation(monkeypatch):
    import aq.cotangent
    built = []
    real = aq.cotangent._build_trunc2

    def counting_build(phi):
        built.append(phi)
        return real(phi)

    monkeypatch.setattr(aq.cotangent, "_build_trunc2", counting_build)
    report = classification_report("smooth", inclusion_from_ground(cusp()),
                                   [{"x": 0, "y": 0}, {"x": 1, "y": 1}])
    assert [row["verdict"] for row in report.rows] == [False, True]
    # the map's own truncation only; the lex oracle reads syzygies
    assert len(built) == 1


def test_smooth_result_carries_homology_evidence():
    res = is_smooth_at(inclusion_from_ground(cusp()), {"x": 0, "y": 0})
    assert (res["aq1"], res["aq2"]) == (1, 0)
    assert res["oracle"]["agrees"]


def test_unramified_iff_fiber_of_differentials_vanishes():
    S = algebra(QQ, ("x",), ["x^2 - 1"])
    phi = inclusion_from_ground(S)
    res = is_unramified_at(phi, {"x": 1})
    assert res["verdict"] and res["aq0"] == 0
    dbl = inclusion_from_ground(algebra(QQ, ("x",), ["x^2"]))
    assert not is_unramified_at(dbl, {"x": 0})["verdict"]


def test_etale_requires_both_halves():
    # the affine line is smooth but ramified; a split quadric is etale
    line = inclusion_from_ground(algebra(QQ, ("x",), []))
    assert not is_etale_at(line, {"x": 0})["verdict"]
    quad = inclusion_from_ground(algebra(QQ, ("x",), ["x^2 - 1"]))
    res = is_etale_at(quad, {"x": -1})
    assert res["verdict"]
    assert res["smooth"]["verdict"] and res["unramified"]["verdict"]


def test_cusp_is_lci_but_fat_point_is_not():
    assert is_lci_at(inclusion_from_ground(cusp()), {"x": 0, "y": 0})["verdict"]
    fat = algebra(QQ, ("x", "y"), ["x^2", "x*y", "y^2"])
    res = is_lci_at(inclusion_from_ground(fat), {"x": 0, "y": 0})
    assert not res["verdict"] and res["aq2"] > 0


def test_regular_local_detects_the_singular_point():
    R = cusp()
    assert not is_regular_local(R, {"x": 0, "y": 0})["verdict"]
    assert is_regular_local(R, {"x": 1, "y": 1})["verdict"]


def test_complete_intersection_vs_regularity():
    # hypersurface singularities stay ci even where they fail regularity
    R = cusp()
    assert is_complete_intersection(R, {"x": 0, "y": 0})["verdict"]
    fat = algebra(QQ, ("x", "y"), ["x^2", "x*y", "y^2"])
    assert not is_complete_intersection(fat, {"x": 0, "y": 0})["verdict"]


# -- the frozen corpus ----------------------------------------------------------


def test_classifier_corpus_matches_expected_verdicts():
    cases = classifier_corpus()
    assert len(cases) == 20
    for case in cases:
        report = classification_report(case["property"], case["subject"],
                                       case["points"])
        got = [row["verdict"] for row in report.rows]
        assert got == case["expected"], case["name"]


def test_hkr_instances_all_consistent():
    cases = hkr_instances()
    assert len(cases) == 5
    for case in cases:
        assert hkr_equivalence_check(case["map"], case["points"])["passes"], \
            case["name"]


def test_hkr_per_point_shape():
    quad = inclusion_from_ground(algebra(QQ, ("x",), ["x^2 - 1"]))
    out = hkr_equivalence_check(quad, [{"x": 1}])
    row = out["per_point"][0]
    assert row["smooth"] and row["diagonal_lci"] and row["ok"]


def test_hkr_needs_points():
    quad = inclusion_from_ground(algebra(QQ, ("x",), ["x^2 - 1"]))
    with pytest.raises(ClassifyError, match="at least one point"):
        hkr_equivalence_check(quad, [])


# -- report assembly -------------------------------------------------------------


def test_report_rows_and_global_flag():
    plane = inclusion_from_ground(algebra(QQ, ("x", "y"), []))
    report = classification_report("smooth", plane,
                                   [{"x": 0, "y": 0}, {"x": 1, "y": 2}])
    assert report.all_verdicts()
    assert report.global_flag == "certified"
    assert [row["point"]["x"] for row in report.rows] == ["0", "1"]
    ongoing = classification_report("smooth", inclusion_from_ground(cusp()),
                                    [{"x": 1, "y": 1}])
    assert ongoing.global_flag == "sampled-only"


def test_report_to_json_round_trips_verdicts():
    # a hypersurface by a nonzerodivisor is lci everywhere, and the
    # Koszul certificate on the presentation notices
    report = classification_report("lci", inclusion_from_ground(cusp()),
                                   [{"x": 0, "y": 0}])
    blob = report.to_json()
    assert blob["property"] == "lci"
    assert blob["points"][0]["verdict"] is True
    assert blob["global_flag"] == "certified"


def test_module_level_vanishing_alone_does_not_certify_smoothness():
    # degree-1 homology of the cusp vanishes with module coefficients,
    # but the origin fiber is 1-dimensional; the flag must stay honest
    from aq.cotangent import cotangent_trunc2
    phi = inclusion_from_ground(cusp())
    assert cotangent_trunc2(phi).homology_module(1).is_zero()
    report = classification_report("smooth", phi, [{"x": 1, "y": 1}])
    assert report.global_flag == "sampled-only"


def test_truncation_memo_is_freed_with_the_map():
    phi = inclusion_from_ground(cusp())
    assert not is_smooth_at(phi, {"x": 0, "y": 0})["verdict"]
    surj = canonical_surjection(cusp())
    assert five_term_check(surj, [{"x": 0, "y": 0}])["passes"]
    assert tor_modules(surj).dim_at_point(1, {"x": 0, "y": 0}) == 1
    ref = weakref.ref(phi)
    surj_ref = weakref.ref(surj)
    del phi, surj
    gc.collect()
    assert ref() is None
    assert surj_ref() is None


def test_unknown_property_lists_the_valid_ones():
    with pytest.raises(ClassifyError, match="unknown property"):
        classification_report("flat", inclusion_from_ground(cusp()),
                              [{"x": 0, "y": 0}])
    assert PROPERTIES == sorted(PROPERTIES)
    assert "smooth" in PROPERTIES and "ci" in PROPERTIES


def test_subject_kind_is_enforced():
    phi = inclusion_from_ground(cusp())
    with pytest.raises(ClassifyError, match="classifies a ring"):
        classification_report("regular", phi, [{"x": 0, "y": 0}])
    with pytest.raises(ClassifyError, match="classifies a map"):
        classification_report("smooth", cusp(), [{"x": 0, "y": 0}])


def test_off_variety_point_is_rejected():
    phi = inclusion_from_ground(cusp())
    with pytest.raises(ClassifyError, match="not a rational point"):
        is_smooth_at(phi, {"x": 1, "y": 2})


# -- zero-dimensional quotients ----------------------------------------------------


def test_standard_monomials_and_dimension():
    A = algebra(QQ, ("x", "y"), ["x^2", "y^3"])
    assert vector_space_dimension(A) == 6
    assert len(standard_monomials(A)) == 6
    with pytest.raises(ClassifyError, match="zero-dimensional"):
        standard_monomials(algebra(QQ, ("x",), []))


def test_minimal_polynomial_of_i():
    gauss = algebra(QQ, ("x",), ["x^2 + 1"])
    mp = minimal_polynomial(gauss, "x")
    assert mp == [QQ.one(), QQ.zero(), QQ.one()]


def test_minimal_polynomial_in_a_product_ring():
    split = algebra(QQ, ("x",), ["x^2 - 1"])
    assert minimal_polynomial(split, "x") == \
        [QQ.from_int(-1), QQ.zero(), QQ.one()]


# -- irreducibility over QQ and GF(p) ----------------------------------------------


def test_quartic_irreducibility_over_the_rationals():
    one = QQ.one()
    zero = QQ.zero()
    # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2)
    assert not univariate_irreducible(QQ, [QQ.from_int(4), zero, zero, zero, one])
    assert univariate_irreducible(QQ, [one, zero, zero, zero, one])
    assert univariate_irreducible(QQ, [QQ.from_int(-2), zero, one])
    assert not univariate_irreducible(QQ, [QQ.from_int(-1), zero, one])


def test_rational_irreducibility_takes_int_coefficients():
    assert univariate_irreducible(QQ, [-2, 0, 1])
    assert not univariate_irreducible(QQ, [-1, 0, 1])
    for coeffs in ([-2, 0, 1], [-1, 0, 1], [1, 0, 0, 0, 1], [4, 0, 0, 0, 1],
                   [QQ.fraction(-1, 4), 0, 1], [QQ.fraction(1, 2), 3, 2]):
        fractions = [Fraction(c) for c in coeffs]
        mixed = [c if i % 2 else Fraction(c) for i, c in enumerate(coeffs)]
        assert univariate_irreducible(QQ, coeffs) \
            == univariate_irreducible(QQ, mixed) \
            == univariate_irreducible(QQ, fractions)


@pytest.mark.parametrize("b", [2**60 + 3, 10**200],
                         ids=["2^60+3", "10^200"])
def test_quartic_with_huge_middle_coefficient_factors(b):
    # y^4 + (14 - b^2) y^2 + 49 = (y^2 + b y + 7)(y^2 - b y + 7)
    coeffs = [QQ.from_int(c) for c in (49, 0, 14 - b * b, 0, 1)]
    assert not univariate_irreducible(QQ, coeffs)


def test_rational_check_refuses_high_degree():
    one = QQ.one()
    with pytest.raises(ClassifyError, match="degree 4"):
        univariate_irreducible(QQ, [one, one, one, one, one, one])


def test_rational_factor_search_refuses_huge_constants():
    coeffs = [QQ.from_int(c) for c in (10**30 + 57, 0, 1)]
    with pytest.raises(ClassifyError, match="factor search"):
        univariate_irreducible(QQ, coeffs)


def test_rational_factor_search_decides_up_to_its_bound():
    # 999999^2 = 999998000001 lies just under the 10^12 bound
    square = [QQ.from_int(c) for c in (-999998000001, 0, 1)]
    assert not univariate_irreducible(QQ, square)
    shifted = [QQ.from_int(c) for c in (-999998000002, 0, 1)]
    assert univariate_irreducible(QQ, shifted)


def _divisor_pair_irreducible(ints):
    """Reference: rational roots p/q over all pairs of divisors of the
    constant and leading coefficients, then the quartic's quadratic factors
    on the monic transform.  Integer coefficients, low degree first."""
    deg = len(ints) - 1
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    if ints[0] == 0:
        return False

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            for r in (p, -p):
                # q^deg f(r/q), cleared of denominators
                if sum(c * r ** i * q ** (deg - i)
                       for i, c in enumerate(ints)) == 0:
                    return False
    if deg <= 3:
        return True
    a = ints[4]
    return _monic_quartic_quadratic_free(
        [ints[0] * a ** 3, ints[1] * a ** 2, ints[2] * a, ints[3]])


def test_rational_irreducibility_matches_divisor_pairs():
    for deg, bound in ((2, 4), (3, 4), (4, 3)):
        span = range(-bound, bound + 1)
        for low in itertools.product(span, repeat=deg):
            for lead in span:
                if lead == 0:
                    continue
                f = list(low) + [lead]
                assert univariate_irreducible(
                    QQ, [QQ.from_int(c) for c in f]) \
                    == _divisor_pair_irreducible(f), f


def test_irreducibility_over_prime_fields():
    F5, F3 = GF(5), GF(3)
    # x^2 + 1 splits mod 5 (roots 2, 3) but not mod 3
    assert not univariate_irreducible(F5, [1, 0, 1])
    assert univariate_irreducible(F3, [1, 0, 1])
    # Artin-Schreier x^5 - x - 1 is irreducible over GF(5)
    assert univariate_irreducible(F5, [4, 4, 0, 0, 0, 1])


def _trial_division_irreducible(f, p):
    """Reference: no monic g with 1 <= deg g <= deg f / 2 divides f;
    coefficient lists are integers mod p, low degree first."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            g = list(low) + [1]
            r = list(f)
            for shift in range(deg - d, -1, -1):
                c = r[shift + d]
                for i, gi in enumerate(g):
                    r[shift + i] = (r[shift + i] - c * gi) % p
            if not any(r):
                return False
    return True


@pytest.mark.parametrize("p", [2, 3])
def test_irreducibility_matches_trial_division(p):
    F = GF(p)
    for deg in (2, 3, 4):
        for low in itertools.product(range(p), repeat=deg):
            f = list(low) + [1]
            assert univariate_irreducible(F, [F.from_int(c) for c in f]) \
                == _trial_division_irreducible(f, p), f


# -- imperfection ------------------------------------------------------------------


def test_imperfection_of_an_inseparable_extension():
    F5 = GF(5)
    tower = algebra(F5, ("t", "x"), ["x^5 - t"])
    phi = AlgebraMap(algebra(F5, ("t",), []), tower, {})
    out = module_of_imperfection(phi)
    assert out == {"dimension": 1, "degree": None, "mode": "surrogate"}


def test_imperfection_vanishes_for_separable_shape():
    F5 = GF(5)
    tower = algebra(F5, ("t", "x"), ["x^2 - t"])
    phi = AlgebraMap(algebra(F5, ("t",), []), tower, {})
    assert module_of_imperfection(phi)["dimension"] == 0


def test_imperfection_over_a_ground_field():
    gauss = algebra(QQ, ("x",), ["x^2 + 1"])
    out = module_of_imperfection(inclusion_from_ground(gauss))
    assert out == {"dimension": 0, "degree": 2, "mode": "field"}


def test_imperfection_rejects_non_fields():
    split = algebra(QQ, ("x",), ["x^2 - 1"])
    with pytest.raises(ClassifyError, match="not a field"):
        module_of_imperfection(inclusion_from_ground(split))


def test_imperfection_rejects_shapes_it_cannot_verify():
    F5 = GF(5)
    mixed = algebra(F5, ("t", "x"), ["x^5 - t^2 - 1"])
    phi = AlgebraMap(algebra(F5, ("t",), []), mixed, {})
    with pytest.raises(ClassifyError, match="y\\^n - u"):
        module_of_imperfection(phi)


# -- oracle agreement is exercised, not assumed --------------------------------------


def test_oracles_run_on_every_corpus_point():
    # is_smooth_at raises on Jacobian/homology disagreement, so a clean
    # sweep means each oracle actually fired and agreed
    for case in classifier_corpus():
        if case["property"] != "smooth":
            continue
        for q in case["points"]:
            res = is_smooth_at(case["subject"], q)
            assert res["oracle"]["agrees"]
