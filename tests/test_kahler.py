"""Differential modules: Jacobian presentations, the diagonal oracle,
derivations, and the right-exact sequences."""

import pytest

from aq.corpus import (algebra, ground, inclusion_from_ground,
                       jacobi_zariski_instances)
from aq.fields import GF, QQ
from aq.kahler import (
    ExactSequenceReport,
    KahlerDifferentials,
    KahlerError,
    RelativePresentation,
    _right_exact,
    conormal_sequence,
    derivation_basis_at_point,
    jacobi_zariski_right_exact,
    jacobian_chain_rule_holds,
    kahler_oracle_via_diagonal,
    kahler_presentation,
    leibniz_holds,
    relative_presentation,
    tower_presentation,
)
from aq.modules import FPModule
from aq.poly import Polynomial
from aq.rings import AlgebraMap, PointError


def cusp():
    return algebra(QQ, ("x", "y"), ["x^3 - y^2"])


def test_polynomial_ring_differentials_free():
    phi = inclusion_from_ground(algebra(QQ, ("x", "y", "z")))
    kd = kahler_presentation(phi)
    assert kd.module.free_rank() == 3


def test_cusp_differentials_dims():
    kd = kahler_presentation(inclusion_from_ground(cusp()))
    # one Jacobian relation among dx, dy; it vanishes at the singular point
    assert kd.dim_at_point({"x": 0, "y": 0}) == 2
    assert kd.dim_at_point({"x": 1, "y": 1}) == 1


def test_surjection_has_no_relative_differentials():
    C = cusp()
    phi = AlgebraMap(algebra(QQ, ("x", "y")), C, {})
    kd = kahler_presentation(phi)
    assert kd.module.is_zero()


def test_base_variables_contribute_nothing():
    # R = QQ[t] -> R[x]: only dx survives
    base = algebra(QQ, ("t",))
    target = algebra(QQ, ("t", "x"))
    kd = kahler_presentation(AlgebraMap(base, target, {}))
    assert kd.module.free_rank() == 1


@pytest.mark.parametrize("images", [{}, {"x": "x", "y": "y"}],
                         ids=["omitted", "stated"])
def test_stated_identity_images_reuse_the_target_presentation(images):
    # x reduces to y in C, so the stored image of x is y when stated and x
    # when omitted; both maps are the canonical surjection P -> C
    P = algebra(QQ, ("x", "y"))
    C = algebra(QQ, ("x", "y"), ["x - y"])
    phi = AlgebraMap(P, C, images)
    assert phi.is_identity_on_common() and phi.is_canonical_surjection()
    rp = relative_presentation(phi)
    assert rp.adjoined == ()
    assert [str(f) for f in rp.relation_polys] == ["x - y"]
    assert rp.algebra == C


def test_the_presentation_classes_build_by_keyword():
    C = cusp()
    phi = inclusion_from_ground(C)
    rp = relative_presentation(phi)
    fields = {"phi": phi, "algebra": C, "base_algebra": rp.base_algebra,
              "adjoined": rp.adjoined, "relation_polys": rp.relation_polys}
    first, second = RelativePresentation(**fields), RelativePresentation(**fields)
    assert all(getattr(first, key) is value for key, value in fields.items())
    # each gets its own empty renaming
    assert first.target_renaming == second.target_renaming == {}
    first.target_renaming["x"] = "x_t"
    assert second.target_renaming == {} and rp.target_renaming == {}
    renamed = RelativePresentation(**fields, target_renaming={"x": "x_t"})
    assert renamed.target_renaming == {"x": "x_t"}

    kd = kahler_presentation(phi)
    built = KahlerDifferentials(presentation=rp, module=kd.module)
    assert (built.presentation, built.module) == (rp, kd.module)
    for middle, right in [(True, True), (True, False), (False, True)]:
        report = ExactSequenceReport(maps={}, exact_at_middle=middle,
                                     surjective_at_right=right, detail={"k": 1})
        assert (report.maps, report.detail) == ({}, {"k": 1})
        assert report.ok == (middle and right)


def test_diagonal_oracle_matches_on_samples():
    cases = [
        (inclusion_from_ground(cusp()), [{"x": 0, "y": 0}, {"x": 1, "y": 1}]),
        (inclusion_from_ground(algebra(GF(5), ("x",), ["x^2 - 2"])),
         []),
        (AlgebraMap(algebra(QQ, ("t",)), algebra(QQ, ("t", "y"), ["y^2 - t"]),
                    {}),
         [{"t": 1, "y": 1}, {"t": 4, "y": -2}]),
    ]
    for phi, points in cases:
        kd = kahler_presentation(phi)
        oracle, _ = kahler_oracle_via_diagonal(phi)
        for q in points:
            pt = phi.target.parse_point(q)
            assert kd.dim_at_point(pt) == oracle.dim_at_point(
                kd.presentation.transport_point(pt))


def test_inseparable_extension_keeps_differentials():
    # d(x^5 - t) = -dt: relative to GF(5)[t] the module is free on dx
    base = algebra(GF(5), ("t",))
    target = algebra(GF(5), ("t", "x"), ["x^5 - t"])
    kd = kahler_presentation(AlgebraMap(base, target, {}))
    assert kd.dim_at_point({"t": 1, "x": 1}) == 1


def test_relative_presentation_inclusion_branch():
    base = algebra(QQ, ("t",))
    target = algebra(QQ, ("t", "x"), ["x^2 - t"])
    rp = relative_presentation(AlgebraMap(base, target, {}))
    assert rp.adjoined == ("x",)
    assert [str(p) for p in rp.relation_polys] == ["x^2 - t"]


def test_chain_rule():
    A = algebra(QQ, ("a", "b"))
    B = algebra(QQ, ("x",))
    C = algebra(QQ, ("u",))
    psi = AlgebraMap(A, B, {"a": "x^2", "b": "x^3"})
    sigma = AlgebraMap(B, C, {"x": "u + 1"})
    assert jacobian_chain_rule_holds(psi, sigma)


def test_chain_rule_through_a_map_without_variables_of_its_own():
    # every variable of B is a base variable of both maps, so the inner
    # dimension of J_sigma * sigma(J_psi) is empty and the product is zero
    A = algebra(QQ, ("x", "a"))
    B = algebra(QQ, ("x",))
    C = algebra(QQ, ("x", "u"))
    psi = AlgebraMap(A, B, {"a": "x^2"})
    sigma = AlgebraMap(B, C, {})
    assert jacobian_chain_rule_holds(psi, sigma)


@pytest.mark.parametrize("entry", jacobi_zariski_instances(),
                         ids=lambda e: e["name"])
def test_chain_rule_on_the_jacobi_zariski_towers(entry):
    # the ground inclusion fixes no variable, so all three Jacobians are
    # taken over the ground field, with no columns for the composite
    assert jacobian_chain_rule_holds(entry["first"], entry["second"])


# -- derivations at a point ---------------------------------------------------


def test_derivation_space_is_tangent_space():
    phi = inclusion_from_ground(cusp())
    _, basis_origin = derivation_basis_at_point(phi, {"x": 0, "y": 0})
    _, basis_smooth = derivation_basis_at_point(phi, {"x": 1, "y": 1})
    assert len(basis_origin) == 2
    assert len(basis_smooth) == 1


def test_derivations_satisfy_leibniz():
    phi = inclusion_from_ground(cusp())
    kd, basis = derivation_basis_at_point(phi, {"x": 1, "y": 1})
    samples = [("x", "y"), ("x + y", "x*y"), ("y^2", "x")]
    for values in basis:
        assert leibniz_holds(kd, values, {"x": 1, "y": 1}, samples)


def test_values_off_the_tangent_space_break_a_relation():
    phi = inclusion_from_ground(cusp())
    # d(x^3 - y^2) = 3 dx - 2 dy at (1, 1) does not vanish on dx = 1, dy = 0
    assert not leibniz_holds(kahler_presentation(phi), (1, 0),
                             {"x": 1, "y": 1}, [("x", "y")])


def test_the_leibniz_comparison_reads_evaluate(monkeypatch):
    kd = kahler_presentation(inclusion_from_ground(cusp()))
    # 3 dx - 2 dy vanishes on dx = 2/3, dy = 1: a derivation at (1, 1)
    args = (kd, (QQ.fraction(2, 3), 1), {"x": 1, "y": 1}, [("x + 1", "y + 1")])
    assert leibniz_holds(*args)
    real = Polynomial.evaluate

    def without_constants(self, point):
        constant = (0,) * len(self.ring.variables)
        return real(Polynomial(self.ring, {e: c for e, c in self.terms.items()
                                           if e != constant}), point)

    # the cusp's relation and its partials have no constant term, so only
    # the comparison of delta((x + 1)(y + 1)) with its expansion can tell
    monkeypatch.setattr(Polynomial, "evaluate", without_constants)
    assert not leibniz_holds(*args)


def test_transport_point_checks_the_point_on_every_call():
    phi = AlgebraMap(algebra(QQ, ("t",)), cusp(), {"t": "x + y"})
    rp = relative_presentation(phi)
    assert rp.target_renaming  # the target's variables get fresh names
    pt = rp.transport_point({"x": 1, "y": 1})
    assert pt.algebra is rp.algebra and pt["t"] == 2
    assert rp.transport_point(phi.target.parse_point({"x": "1", "y": "1"})) is pt
    other = rp.transport_point({"x": 1, "y": -1})
    assert other is not pt and other["t"] == 0
    for _ in range(3):
        with pytest.raises(PointError, match="not a rational point"):
            rp.transport_point({"x": 1, "y": 2})
    assert rp.transport_point({"x": 1, "y": 1}) is pt


def test_derivations_over_a_base_with_variables_kill_the_base():
    phi = AlgebraMap(algebra(QQ, ("x",)), cusp(), {})
    kd, basis = derivation_basis_at_point(phi, {"x": 1, "y": 1})
    assert basis == []
    # dy = 0 is the only derivation at (1, 1): y^2 = x^3 is smooth over x there
    assert leibniz_holds(kd, (0,), {"x": 1, "y": 1}, [("x", "y")])


@pytest.mark.parametrize("build, message", [
    (lambda: relative_presentation(
        AlgebraMap(algebra(QQ, ("x",)), algebra(GF(5), ("x",)), {})),
     "source and target over different fields"),
    (lambda: tower_presentation(inclusion_from_ground(cusp()),
                                inclusion_from_ground(cusp())),
     "maps do not compose"),
], ids=["fields", "tower"])
def test_maps_that_cannot_be_presented_are_refused(build, message):
    with pytest.raises(KahlerError) as info:
        build()
    assert str(info.value) == message


# -- right-exact sequences ----------------------------------------------------


def test_jacobi_zariski_right_exactness():
    plane = algebra(QQ, ("x", "y"))
    psi = inclusion_from_ground(plane)
    phi = AlgebraMap(plane, cusp(), {})
    report = jacobi_zariski_right_exact(psi, phi)
    assert report.ok


def test_jacobi_zariski_right_exactness_over_a_base_with_variables():
    line = algebra(QQ, ("t",))
    plane = algebra(QQ, ("x", "y"))
    psi = AlgebraMap(line, plane, {"t": "x"})
    phi = AlgebraMap(plane, cusp(), {})
    assert jacobi_zariski_right_exact(psi, phi).ok


def test_conormal_sequence_on_cusp():
    plane = algebra(QQ, ("x", "y"))
    psi = inclusion_from_ground(plane)
    report = conormal_sequence(psi, ["x^3 - y^2"])
    assert report.ok


def test_conormal_sequence_on_a_non_principal_ideal():
    # I/I^2 has the relation y [x^2] - x [x*y], which must map into the
    # relations of Omega_mid
    plane = algebra(QQ, ("x", "y"))
    report = conormal_sequence(inclusion_from_ground(plane), ["x^2", "x*y"])
    assert report.detail["conormal"]["relations"] == [["y", "-x"]]
    assert report.detail["map_well_defined"] and report.ok


def test_conormal_zeta_keeps_a_column_per_generator_without_adjoined_variables():
    plane = algebra(QQ, ("x", "y"))
    report = conormal_sequence(AlgebraMap(plane, plane, {}), ["x", "y^2"])
    assert report.maps["zeta_columns"] == [[], []]
    assert report.ok


def _sequence(**changes):
    """QQ[x] -> QQ[x]^2 -> QQ[x] -> 0, 1 -> (1, 0) and (a, b) -> b, with
    the given parts replaced; a module is (generators, relations) and a
    map its columns, entries as text."""
    parts = {"first": (1, []), "f": [["1", "0"]], "second": (2, []),
             "g": [["0"], ["1"]], "third": (1, [])}
    parts.update(changes)
    return parts


@pytest.mark.parametrize("parts, verdicts", [
    (_sequence(), (True, True, True)),
    (_sequence(g=[["0"], ["x"]]), (True, True, False)),
    (_sequence(f=[["x", "0"]]), (True, False, True)),
    (_sequence(first=(1, [["x"]])), (False, True, True)),
    (_sequence(second=(2, [["0", "x"]])), (False, True, True)),
    (_sequence(first=(2, []), f=[["1", "0"], ["0", "1"]]), (False, True, True)),
], ids=["exact", "g-misses-a-generator", "im-f-misses-ker-g",
        "f-breaks-a-relation", "g-breaks-a-relation", "g-after-f-is-not-zero"])
def test_each_right_exactness_verdict_can_fail(parts, verdicts):
    # verdicts: (well defined, ker g in im f, g onto); each broken
    # sequence flips exactly one of them
    S = algebra(QQ, ("x",))

    def matrix(columns):
        return [[S.poly(p) for p in column] for column in columns]

    def module(name):
        gens, relations = parts[name]
        return FPModule(S, gens, matrix(relations))

    *got, kernel = _right_exact(S, module("first"), module("second"),
                                module("third"), matrix(parts["f"]),
                                matrix(parts["g"]))
    assert tuple(got) == verdicts
    # in every case ker g is generated by the first unit vector
    assert [[str(p) for p in v] for v in kernel] == [["1", "0"]]
