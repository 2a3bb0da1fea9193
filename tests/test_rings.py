"""Maps of presented algebras: a generator's image comes from the map's
table of normal forms, and agrees with substituting and reducing; each
relation check is kept on the target algebra, keyed by what fixes it; the
polynomials that rings, algebras and maps share are never mutated."""

import pytest
from hypothesis import given, settings, strategies as st

from aq.fields import GF, QQ
from aq.groebner import module_groebner
from aq.orders import MonomialOrder
from aq.poly import MAX_PRODUCT_WORK, PolyError, PolyRing, Polynomial
from aq.rings import (AlgebraError, AlgebraMap, PointError, PresentedAlgebra,
                      compose)
from aq.simplicial import bar_construction

GF5 = GF(5)
SOURCE_VARS = ("x", "y", "z")
TARGET_VARS = ("x", "y", "u")


def small_polys(ring, max_exponent=2, max_size=3):
    """Polynomials of `ring` with small integer coefficients."""
    field = ring.field
    return st.dictionaries(
        st.tuples(*(st.integers(0, max_exponent) for _ in ring.variables)),
        st.integers(-3, 3), max_size=max_size,
    ).map(lambda terms: ring.from_terms(
        {e: field.from_int(c) for e, c in terms.items()}))


def source_elements(ring):
    """A generator, 2*x, a constant, x^2, or a sum of terms."""
    gen = st.sampled_from(ring.variables).map(ring.var)
    return st.one_of(
        gen,
        gen.map(lambda x: x * 2),
        st.integers(-3, 3).map(ring.from_int),
        gen.map(lambda x: x ** 2),
        small_polys(ring),
    )


@pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_apply_agrees_with_substituting_and_reducing(field, data):
    S = PresentedAlgebra(PolyRing(field, SOURCE_VARS))
    T_ring = PolyRing(field, TARGET_VARS)
    relations = data.draw(st.lists(small_polys(T_ring), max_size=2))
    # a relation led by a variable makes that variable's default image
    # differ from its normal form
    led = data.draw(st.sampled_from([None, "x - y", "y - u"]))
    if led is not None:
        relations.append(T_ring.poly(led))
    T = PresentedAlgebra(T_ring, relations)
    # x and y may default to their namesakes; z has none in the target
    given_names = ["z"] + sorted(data.draw(st.sets(st.sampled_from(["x", "y"]))))
    phi = AlgebraMap(S, T, {v: data.draw(small_polys(T_ring)) for v in given_names})
    # the second round reads what the first round put in the table
    elements = data.draw(st.lists(source_elements(S.ring), min_size=1, max_size=6))
    for p in elements + elements:
        assert phi.apply(p) == T.normal_form(p.substitute(T.ring, phi.images))


def _every_operation(T, phi, pool, source_elements):
    """Run arithmetic, substitute, rename_into, derivative, normal_form,
    apply and module_groebner over `pool`; return what they return."""
    ring = T.ring
    wider = PolyRing(ring.field, ring.variables + ("w",), ring.order)
    out = []
    for p, q in zip(pool, pool[1:] + pool[:1]):
        out += [p + q, p - q, p * q, -p, p ** 2, p.scale(ring.field.from_int(2)),
                p.scale(ring.field.inv(p.terms[p.leading_monomial()])) if p.terms else p,
                p.derivative("x"), p.rename_into(wider),
                p.rename_into(ring, {"u": "x"}), T.normal_form(p)]
        # substituting kept normal forms into each other may pass the
        # documented MAX_PRODUCT_WORK budget; a refusal is an allowed outcome
        try:
            out.append(p.substitute(ring, {"x": q, "y": p}))
        except PolyError as exc:
            assert str(exc) == f"substitution needs more than {MAX_PRODUCT_WORK} term pairs"
    out += [phi.apply(s) for s in source_elements]
    pairs = [{c: f for c, f in enumerate(pair) if f.terms}
             for pair in zip(pool[:4], pool[1:5])]
    for g in module_groebner(pairs, ring):
        out += g.values()
    return out


@pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_no_operation_mutates_a_shared_polynomial(field, data):
    S = PresentedAlgebra(PolyRing(field, SOURCE_VARS))
    T_ring = PolyRing(field, TARGET_VARS)
    T = PresentedAlgebra(T_ring, data.draw(st.lists(small_polys(T_ring), max_size=2))
                         + [T_ring.poly("x - y")])
    phi = AlgebraMap(S, T, {"z": data.draw(small_polys(T_ring))})
    x = {(1, 0, 0): field.one()}
    sources = [S.ring.var(v) for v in SOURCE_VARS] + data.draw(
        st.lists(source_elements(S.ring), max_size=3))
    # the shared values: ring variables, kept normal forms, the apply table
    shared = ([T_ring.var(v) for v in TARGET_VARS]
              + [T.normal_form(T_ring.var(v)) for v in TARGET_VARS]
              + [phi.apply(s) for s in sources])
    pool = shared + data.draw(st.lists(small_polys(T_ring), min_size=1, max_size=3))
    before = [dict(p.terms) for p in sources + pool]
    results = _every_operation(T, phi, pool, sources)
    # every normal form and table entry kept so far goes round again
    kept = list(T._normal_forms.values()) + list(phi._generator_images.values())
    after_first = [dict(p.terms) for p in results + kept]
    _every_operation(T, phi, kept, sources)
    assert [p.terms for p in sources + pool] == before
    assert [p.terms for p in results + kept] == after_first
    assert T_ring.var("x").terms == x and S.ring.var("x").terms == x


def test_a_defaulted_generator_led_by_a_relation_is_reduced():
    ring = PolyRing(QQ, ("x", "y"), MonomialOrder("degrevlex"))
    T = PresentedAlgebra(ring, ["x - y"])
    phi = AlgebraMap(PresentedAlgebra(ring), T)
    x = ring.var("x")
    assert phi.images["x"] == x
    assert phi.apply(x) == ring.var("y")
    assert phi.apply(x) == ring.var("y")


def test_validated_points_do_not_let_a_non_point_through():
    ring = PolyRing(QQ, ("x", "y"))
    C = PresentedAlgebra(ring, ["x^3 - y^2"])
    for point in ({"x": 1, "y": 1}, {"x": "4", "y": "-8"}, {"x": 0, "y": 0}):
        assert C.parse_point(point) == C.parse_point(point)
    assert len(C._valid_points) == 3
    for _ in range(2):
        with pytest.raises(PointError, match="not a rational point"):
            C.parse_point({"x": 1, "y": 2})
    assert len(C._valid_points) == 3
    # the same values on an algebra with other relations are checked there
    D = PresentedAlgebra(ring, ["x - y - 1"])
    with pytest.raises(PointError, match="not a rational point"):
        D.parse_point({"x": 1, "y": 1})


def test_each_parsed_point_is_a_fresh_dict():
    C = PresentedAlgebra(PolyRing(QQ, ("x", "y")), ["x^3 - y^2"])
    first = C.parse_point({"x": 1, "y": 1})
    first["x"] = QQ.from_int(2)
    second = C.parse_point({"x": 1, "y": 1})
    assert second is not first
    assert second == {"x": QQ.from_int(1), "y": QQ.from_int(1)}


def _cusp_over(variables):
    return PresentedAlgebra(PolyRing(QQ, variables), ["x^3 - y^2"])


def test_a_bar_construction_substitutes_its_relation_once_per_level(monkeypatch):
    calls = []
    real = Polynomial.substitute

    def counting_substitute(self, target, images):
        calls.append(self)
        return real(self, target, images)

    monkeypatch.setattr(Polynomial, "substitute", counting_substitute)
    ext = bar_construction(_cusp_over(("x", "y")), "x", 9)
    # 99 operators, every one fixing x and y: one check per target level
    assert len(calls) <= ext.max_level + 1


def test_a_map_that_fails_its_relation_fails_the_same_after_a_good_one():
    C = _cusp_over(("x", "y"))
    swapped = {"x": C.poly("y"), "y": C.poly("x")}
    with pytest.raises(AlgebraError) as before:
        AlgebraMap(C, C, swapped)
    AlgebraMap(C, C)
    assert C._named_images
    with pytest.raises(AlgebraError) as after:
        AlgebraMap(C, C, swapped)
    assert str(after.value) == str(before.value) \
        == "map does not kill source relation x^3 - y^2"


def test_maps_share_a_relation_check_exactly_when_they_agree_on_its_names():
    C = _cusp_over(("x", "y", "z"))
    rel = C.relations[0]
    AlgebraMap(C, C)
    # z is not named by the relation
    shifted = AlgebraMap(C, C, {"z": C.poly("z + 1")})
    assert len(C._named_images) == 1
    # y -> -y kills the relation too, through its own entry
    flipped = AlgebraMap(C, C, {"y": C.poly("-y")})
    assert len(C._named_images) == 2
    for phi in (shifted, flipped):
        assert phi.named_image(rel) == phi.apply(rel) == C.ring.zero()


def test_an_expensive_relation_check_is_refused_every_time():
    P = PresentedAlgebra(PolyRing(QQ, ("x", "y")))
    C = PresentedAlgebra(P.ring, ["x^200"])
    for _ in range(2):
        with pytest.raises(PolyError, match=str(MAX_PRODUCT_WORK)):
            AlgebraMap(C, P, {"x": P.poly("x + y + 1")})
    assert not P._named_images


def test_relations_with_the_same_monomials_do_not_share_a_check():
    ring = PolyRing(QQ, ("x", "y"))
    T = PresentedAlgebra(ring, ["x^2 - y"])
    AlgebraMap(T, T)
    with pytest.raises(AlgebraError, match="x\\^2 \\+ y"):
        AlgebraMap(PresentedAlgebra(ring, ["x^2 + y"]), T)


def test_given_images_are_reduced_once_and_omitted_ones_when_read(monkeypatch):
    C = _cusp_over(("x", "y"))
    phi = AlgebraMap(PresentedAlgebra(C.ring), C, {"x": C.poly("x^4")})
    # the given image is in the table as its normal form; y is not yet
    assert phi._generator_images == {(1, 0): C.poly("x*y^2")}
    reductions = []
    real = PresentedAlgebra.normal_form

    def counting_normal_form(self, p):
        reductions.append(p)
        return real(self, p)

    monkeypatch.setattr(PresentedAlgebra, "normal_form", counting_normal_form)
    assert phi.apply(C.ring.var("x")) == C.poly("x*y^2")
    assert reductions == []
    assert phi.apply(C.ring.var("y")) == C.poly("y")
    assert reductions == [C.ring.var("y")]


def test_a_map_with_only_omitted_images_starts_no_groebner_basis():
    C = _cusp_over(("x", "y"))
    AlgebraMap(PresentedAlgebra(C.ring), C)
    assert C._gb is None


def _other_ring_element():
    return PolyRing(QQ, ("x", "z")).var("x")


@pytest.mark.parametrize("misuse, message", [
    (lambda C, phi: PresentedAlgebra(C.ring, [_other_ring_element()]),
     "relation from a different ambient ring"),
    (lambda C, phi: C.normal_form(_other_ring_element()),
     "element from a different ambient ring"),
    (lambda C, phi: phi.named_image(_other_ring_element()),
     "element from a different ambient ring"),
    (lambda C, phi: phi.apply(_other_ring_element()),
     "element from a different ambient ring"),
    (lambda C, phi: compose(phi, phi), "maps do not compose"),
], ids=["relation", "normal-form", "named-image", "apply", "compose"])
def test_elements_and_maps_from_elsewhere_are_refused(misuse, message):
    C = _cusp_over(("x", "y"))
    phi = AlgebraMap(PresentedAlgebra(C.ring), C)
    with pytest.raises(AlgebraError) as info:
        misuse(C, phi)
    assert str(info.value) == message


def test_polynomial_rings_and_the_ground_field_describe_themselves():
    assert PresentedAlgebra(PolyRing(QQ, ())).describe() == "QQ"
    assert PresentedAlgebra(PolyRing(GF5, ("x", "y"))).describe() == "GF(5)[x,y]"


def test_equal_algebras_hash_alike():
    a, b = _cusp_over(("x", "y")), _cusp_over(("x", "y"))
    assert a is not b and a == b and hash(a) == hash(b)


def test_a_map_moving_a_shared_variable_is_no_identity_on_it():
    C = _cusp_over(("x", "y"))
    P = PresentedAlgebra(C.ring)
    assert AlgebraMap(P, C).is_identity_on_common()
    moved = AlgebraMap(P, C, {"x": C.poly("x + 1")})
    assert not moved.is_identity_on_common()
    assert not moved.is_canonical_surjection()
