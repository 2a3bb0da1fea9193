"""What a map or an algebra keeps: every pure function of an `AlgebraMap`
is built once per map (`AlgebraMap.derived`) and freed with the map, and
the maps that ring-property reports read are built once per algebra
(`PresentedAlgebra.derived`) and freed with the algebra."""

import gc
import weakref

import pytest

import aq.classify
import aq.cotangent
import aq.kahler
from aq.classify import (ClassifyError, classification_report, is_smooth_at,
                         residue_surjection)
from aq.corpus import algebra, canonical_surjection, inclusion_from_ground
from aq.cotangent import cotangent_trunc2, tor_modules
from aq.fields import QQ
from aq.kahler import kahler_oracle_via_diagonal, kahler_presentation
from aq.session import parse_session

POINTS = [{"x": 0, "y": 0}, {"x": 1, "y": 1}]


def cusp():
    return algebra(QQ, ("x", "y"), ["x^3 - y^2"])


def _everything(phi):
    """Every per-map construction, then every pointwise report."""
    cotangent_trunc2(phi)
    kahler_presentation(phi)
    kahler_oracle_via_diagonal(phi)
    return {prop: classification_report(prop, phi, POINTS).to_json()
            for prop in ("smooth", "unramified", "etale", "lci")}


def _count_relative_presentations(monkeypatch) -> list:
    built = []
    init = aq.kahler.RelativePresentation.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.ambient.order.name)

    monkeypatch.setattr(aq.kahler.RelativePresentation, "__init__",
                        counting_init)
    return built


def test_one_relative_presentation_per_map_and_one_for_its_twin(monkeypatch):
    built = _count_relative_presentations(monkeypatch)
    reports = _everything(canonical_surjection(cusp()))
    assert [r["verdict"] for r in reports["lci"]["points"]] == [True, True]
    # the map's own presentation, then the smooth oracle's lex twin
    assert built == ["degrevlex", "lex"]


def test_the_map_and_everything_kept_on_it_are_freed():
    phi = canonical_surjection(cusp())
    _everything(phi)
    assert tor_modules(phi, n_max=3).dim_at_point(1, POINTS[0]) == 1
    ref = weakref.ref(phi)
    del phi
    gc.collect()
    assert ref() is None


MAP_SESSION = """\
field QQ
ring P = poly(x, y)
ring C = P/(x^3 - y^2)
ring G = poly()
map gr : G -> C
"""


@pytest.mark.parametrize("order", ["degrevlex", "lex"])
def test_the_smooth_oracle_twin_is_the_other_order(order, monkeypatch):
    calls = []
    real = aq.classify.syzygies

    def counting_syzygies(*args, **kwargs):
        calls.append(args[2].ring.order.name)
        return real(*args, **kwargs)

    monkeypatch.setattr(aq.classify, "syzygies", counting_syzygies)
    phi = parse_session(MAP_SESSION, order).maps["gr"]
    assert phi.target.ring.order.name == order
    assert not is_smooth_at(phi, POINTS[0])["verdict"]
    assert is_smooth_at(phi, POINTS[1])["verdict"]
    assert len(calls) == 1 and calls[0] != order


@pytest.mark.parametrize("prop, verdicts, builds",
                         [("ci", [True, True], 1),
                          ("regular", [False, True], 3)])
def test_ring_reports_build_their_fixed_map_once(prop, verdicts, builds,
                                                 monkeypatch):
    """A "ci" report reads one ambient inclusion and a "regular" report one
    ground-field inclusion and one residue surjection per point, all kept
    on the algebra, so a second report on it builds nothing."""
    built = []
    real = aq.cotangent._build_trunc2

    def counting_build(phi):
        built.append(phi)
        return real(phi)

    monkeypatch.setattr(aq.cotangent, "_build_trunc2", counting_build)
    R = cusp()
    report = classification_report(prop, R, POINTS)
    assert [row["verdict"] for row in report.rows] == verdicts
    assert len(built) == builds
    again = classification_report(prop, R, POINTS)
    assert again.to_json() == report.to_json()
    assert len(built) == builds


def test_a_residue_surjection_is_kept_per_algebra_and_point():
    R = cusp()
    eps = residue_surjection(R, {"x": 1, "y": 1})
    # the key is the parsed values, however they were written
    assert residue_surjection(R, {"x": "1", "y": "2/2"}) is eps
    assert residue_surjection(R, {"x": 0, "y": 0}) is not eps
    assert residue_surjection(cusp(), {"x": 1, "y": 1}) is not eps


def test_a_point_off_the_algebra_is_refused_on_every_call():
    R = cusp()
    for _ in range(2):
        with pytest.raises(ClassifyError, match="not a rational point"):
            residue_surjection(R, {"x": 1, "y": 2})
    assert R._derived == {}


def test_the_maps_kept_on_an_algebra_are_freed_with_it():
    R = cusp()
    assert classification_report("regular", R, POINTS).rows
    assert classification_report("ci", R, POINTS).rows
    refs = [weakref.ref(x) for x in (
        R, R.derived(inclusion_from_ground), R.derived(canonical_surjection),
        residue_surjection(R, POINTS[0]))]
    del R
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4
