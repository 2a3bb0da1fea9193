"""Classification predicates and their oracles."""

import gc
import weakref

import pytest

from aq.fields import QQ
from aq.rings import AlgebraMap
from aq.corpus import (algebra, inclusion_from_ground,
                       canonical_surjection, classifier_corpus, hkr_instances)
from aq.cotangent import five_term_check, tor_modules
from aq.classify import (
    ClassifyError, PROPERTIES,
    is_smooth_at, is_unramified_at, is_etale_at, is_lci_at,
    is_regular_local, is_complete_intersection,
    hkr_equivalence_check, classification_report,
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


def test_smooth_oracle_builds_one_lex_twin_per_map(monkeypatch):
    import aq.classify
    calls = []
    real = aq.classify.syzygies

    def counting_syzygies(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(aq.classify, "syzygies", counting_syzygies)
    report = classification_report("smooth", inclusion_from_ground(cusp()),
                                   [{"x": 0, "y": 0}, {"x": 1, "y": 1},
                                    {"x": 4, "y": 8}])
    assert [row["verdict"] for row in report.rows] == [False, True, True]
    assert len(calls) == 1
    assert calls[0][2].ring.order.name == "lex"


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


@pytest.mark.parametrize("phi, points", [
    # k[t] -> k[t,y]/(y^2 - t) and k[u] -> k[x], u -> x^2: both ramified at
    # the origin, so neither smooth there nor lci on the diagonal of
    # S tensor_R S, and both smooth away from it
    (AlgebraMap(algebra(QQ, ("t",)), algebra(QQ, ("t", "y"), ["y^2 - t"]), {}),
     [{"t": 0, "y": 0}, {"t": 1, "y": 1}]),
    (AlgebraMap(algebra(QQ, ("u",)), algebra(QQ, ("x",)), {"u": "x^2"}),
     [{"x": 0}, {"x": 2}]),
], ids=["inclusion", "square"])
def test_hkr_holds_over_a_polynomial_base(phi, points):
    out = hkr_equivalence_check(phi, points)
    assert out["passes"]
    assert [(row["smooth"], row["diagonal_lci"]) for row in out["per_point"]] \
        == [(False, False), (True, True)]


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
    assert cotangent_trunc2(phi).complex.homology(1).is_zero()
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


def test_unramified_presentations_are_built_once_per_map(monkeypatch):
    """The Jacobian presentation of the differentials and the diagonal
    oracle are kept on the map (and freed with it): a report over three
    points runs as many module Groebner bases as one over one point."""
    import aq.groebner
    real = aq.groebner.module_groebner
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(aq.groebner, "module_groebner", counting)
    points = [{"x": 0, "y": 0}, {"x": 1, "y": 1}, {"x": 4, "y": 8}]
    counts = []
    for sample in (points[:1], points):
        phi = inclusion_from_ground(cusp())
        calls.clear()
        report = classification_report("unramified", phi, sample)
        assert [row["verdict"] for row in report.rows] == [False] * len(sample)
        counts.append(len(calls))
    assert 0 < counts[0] == counts[1]
    ref = weakref.ref(phi)
    del phi
    gc.collect()
    assert ref() is None


def test_certificates_are_built_once_per_map(monkeypatch):
    """A second smooth, unramified or etale report on a map already
    classified reads its certificate off the map: no module Groebner basis
    at all (each cost 3, all of them the certificate's, before the
    certificates were kept)."""
    import aq.groebner
    real = aq.groebner.module_groebner
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(aq.groebner, "module_groebner", counting)
    phi = inclusion_from_ground(cusp())
    point = [{"x": 1, "y": 1}]
    first = {prop: classification_report(prop, phi, point).global_flag
             for prop in ("smooth", "unramified", "etale")}
    assert set(first.values()) == {"sampled-only"}
    for prop, flag in first.items():
        calls.clear()
        assert classification_report(prop, phi, point).global_flag == flag
        assert len(calls) == 0, prop


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


def test_a_partial_point_is_no_rational_point():
    phi = inclusion_from_ground(cusp())
    with pytest.raises(ClassifyError) as info:
        is_smooth_at(phi, {"x": 0})
    assert str(info.value) == \
        "not a rational point: point does not assign variable 'y'"


def test_a_certificate_that_cannot_be_built_is_not_given(monkeypatch):
    import aq.classify
    from aq.kahler import KahlerError

    def refuse(phi):
        raise KahlerError("no presentation")

    monkeypatch.setattr(aq.classify, "kahler_presentation", refuse)
    phi = inclusion_from_ground(algebra(QQ, ("x",)))
    assert not aq.classify._certificate(phi, "unramified")
    assert not aq.classify._certificate(phi, "smooth")


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


def _always_smooth(phi, point):
    return {"verdict": True}


@pytest.mark.parametrize("case_name, name, replacement, message", [
    ("cusp-ci", "_regular_sequence_oracle", lambda stage, point: False,
     "lci oracle disagreement"),
    ("cusp-regular", "is_smooth_at", _always_smooth,
     "regularity oracle disagreement"),
], ids=["ci", "regular"])
def test_a_kept_ring_map_does_not_hide_an_oracle_disagreement(
        monkeypatch, case_name, name, replacement, message):
    # a passing report keeps its maps on the shared corpus algebra; the
    # oracle still runs on every later report
    import aq.classify
    case = next(c for c in classifier_corpus() if c["name"] == case_name)
    report = classification_report(case["property"], case["subject"],
                                   case["points"])
    assert [row["verdict"] for row in report.rows] == case["expected"]
    monkeypatch.setattr(aq.classify, name, replacement)
    with pytest.raises(ClassifyError, match=message):
        classification_report(case["property"], case["subject"], case["points"])
