"""Groebner bases, normal forms, and the submodule engine."""

import pytest
from hypothesis import given, settings, strategies as st

from aq.fields import GF, QQ
from aq.groebner import (
    SubmoduleEngine,
    ideal_groebner,
    module_groebner,
    poly_normal_form,
    vp_from_poly,
    vp_lead,
    vp_normal_form,
)
from aq.orders import MonomialOrder, mono_div, mono_divides, mono_lcm, mono_mul
from aq.poly import Polynomial, PolyRing
from aq.rings import PresentedAlgebra


def gb_strings(polys, ring):
    return [str(g) for g in ideal_groebner([ring.poly(p) for p in polys], ring)]


def test_principal_ideal_is_its_monic_generator():
    R = PolyRing(QQ, ("x",))
    assert gb_strings(["3*x^2 - 3"], R) == ["x^2 - 1"]


def test_two_variable_elimination():
    # x = y^2 substituted into x^2 - y gives the lex elimination ideal
    R = PolyRing(QQ, ("x", "y"), MonomialOrder("lex"))
    basis = gb_strings(["x - y^2", "x^2 - y"], R)
    assert basis == ["x - y^2", "y^4 - y"]


def test_cusp_ideal_already_reduced():
    R = PolyRing(QQ, ("x", "y"))
    assert gb_strings(["x^3 - y^2"], R) == ["x^3 - y^2"]


def test_unit_ideal_detected():
    R = PolyRing(QQ, ("x", "y"))
    basis = gb_strings(["x", "x + 1"], R)
    assert basis == ["1"]
    A = PresentedAlgebra(R, ["x", "x + 1"])
    assert A.is_trivial()


def test_groebner_deterministic_and_reduced():
    R = PolyRing(QQ, ("x", "y", "z"))
    gens = ["x*y - z", "y*z - x", "x*z - y"]
    b1 = gb_strings(gens, R)
    b2 = gb_strings(list(reversed(gens)), R)
    assert b1 == b2
    # reduced: no leading monomial divides a monomial of another element
    basis = [R.poly(s) for s in b1]
    for i, g in enumerate(basis):
        for j, h in enumerate(basis):
            if i == j:
                continue
            lead = h.leading_monomial()
            for e in g.terms:
                assert not all(a <= b for a, b in zip(lead, e))


def test_normal_form_is_idempotent_and_linear():
    R = PolyRing(QQ, ("x", "y"))
    gb = ideal_groebner([R.poly("y^2 - x^3")], R)
    p = R.poly("y^4 + x*y^2 + 1")
    nf = poly_normal_form(p, gb, R)
    assert poly_normal_form(nf, gb, R) == nf
    q = R.poly("x^2 - y")
    lhs = poly_normal_form(p + q, gb, R)
    assert lhs == poly_normal_form(nf + poly_normal_form(q, gb, R), gb, R)


def test_normal_form_order_dependence():
    # same ideal, two orders: degrevlex keeps y^2, lex rewrites it
    grl = PresentedAlgebra(PolyRing(QQ, ("x", "y")), ["y^2 - x^3"])
    assert str(grl.normal_form(grl.poly("y^2"))) == "y^2"
    lex = PresentedAlgebra(
        PolyRing(QQ, ("y", "x"), MonomialOrder("lex")),
        ["y^2 - x^3"])
    assert str(lex.normal_form(lex.poly("y^2"))) == "x^3"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(-2, 2)),
                min_size=1, max_size=3),
       st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)),
       st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)))
def test_membership_absorbs_ideal_elements(gens, m1, m2):
    """NF(p + h*g) == NF(p) for any ideal generator g."""
    R = PolyRing(GF(5), ("x", "y"))

    def mono(t):
        return R.monomial((t[0], t[1]), R.field.from_int(t[2]))

    polys = [mono(t) for t in gens]
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return
    gb = ideal_groebner(polys, R)
    p, h = mono(m1), mono(m2)
    lhs = poly_normal_form(p + h * polys[0], gb, R)
    assert lhs == poly_normal_form(p, gb, R)


def test_groebner_over_prime_field():
    R = PolyRing(GF(5), ("x",))
    # x^5 - x factors completely; together with x^2 - 1 the gcd is x^2 - 1
    basis = gb_strings(["x^5 - x", "x^2 - 1"], R)
    assert basis == ["x^2 + 4"]


# -- submodule engine ------------------------------------------------------


def test_syzygies_of_cusp_jacobian():
    R = PolyRing(QQ, ("x", "y"))
    f, g = R.poly("3*x^2"), R.poly("-2*y")
    engine = SubmoduleEngine(R, 1, [vp_from_poly(f, 0), vp_from_poly(g, 0)])
    syz = engine.syzygies()
    # the only relation between 3x^2 and -2y is the Koszul one
    assert len(syz) == 1
    c1, c2 = syz[0]
    assert (c1 * f + c2 * g).is_zero()
    assert not c1.is_zero() and not c2.is_zero()


def test_membership_and_lift():
    R = PolyRing(QQ, ("x", "y"))
    gens = [R.poly("x^2 + y"), R.poly("y^3")]
    engine = SubmoduleEngine(R, 1, [vp_from_poly(g, 0) for g in gens])
    target = vp_from_poly(R.poly("x^2 + y + y^3"), 0)
    assert engine.contains(target)
    coeffs = engine.lift(target)
    total = R.zero()
    for c, g in zip(coeffs, gens):
        total = total + c * g
    assert total == R.poly("x^2 + y + y^3")


def test_non_member_rejected():
    R = PolyRing(QQ, ("x",))
    engine = SubmoduleEngine(R, 1, [vp_from_poly(R.poly("x^2"), 0)])
    assert not engine.contains(vp_from_poly(R.poly("x"), 0))


def test_membership_respects_quotient_relations():
    R = PolyRing(QQ, ("x",))
    # in QQ[x]/(x^2), the span of x contains x + x^2 but not 1
    engine = SubmoduleEngine(R, 1, [vp_from_poly(R.poly("x"), 0)],
                             relations=[R.poly("x^2")])
    assert engine.contains(vp_from_poly(R.poly("x + x^2"), 0))
    assert not engine.contains(vp_from_poly(R.poly("1"), 0))


# -- a copying reference reducer and a Groebner certificate ------------------


def _ref_add(v, w):
    out = dict(v)
    for c, p in w.items():
        if c in out:
            s = out[c] + p
            if s.is_zero():
                del out[c]
            else:
                out[c] = s
        else:
            out[c] = p
    return out


def _ref_sub(v, w):
    return _ref_add(v, {c: -p for c, p in w.items()})


def _ref_mul_monomial(v, expo, coeff):
    out = {}
    for c, p in v.items():
        F = p.ring.field
        out[c] = Polynomial(p.ring, {mono_mul(e, expo): F.mul(coeff, k)
                                     for e, k in p.terms.items()})
    return out


def reference_normal_form(v, basis, ring):
    """Normal form that rebuilds the whole vector at every step: the
    same lead and reducer choice as `vp_normal_form`, none of its state."""
    field = ring.field
    by_comp = {}
    for g in basis:
        c, m, lc = vp_lead(g, ring)
        by_comp.setdefault(c, []).append((m, lc, g))
    result = {}
    work = dict(v)
    while work:
        c, m, coeff = vp_lead(work, ring)
        for gm, glc, g in by_comp.get(c, ()):
            if mono_divides(gm, m):
                factor = field.div(coeff, glc)
                work = _ref_sub(work, _ref_mul_monomial(g, mono_div(m, gm), factor))
                break
        else:
            term = vp_from_poly(ring.monomial(m, coeff), c)
            result = _ref_add(result, term)
            work = _ref_sub(work, term)
    return result


def _ref_spair(f, g, ring):
    field = ring.field
    _, mf, lf = vp_lead(f, ring)
    _, mg, lg = vp_lead(g, ring)
    lcm = mono_lcm(mf, mg)
    return _ref_sub(_ref_mul_monomial(f, mono_div(lcm, mf), field.inv(lf)),
                    _ref_mul_monomial(g, mono_div(lcm, mg), field.inv(lg)))


def verify_groebner(gb, gens, ring):
    """Certificate that gb is the reduced monic Groebner basis of gens,
    checked with the reference reducer."""
    one = ring.field.one()
    leads = [vp_lead(g, ring) for g in gb]
    for gen in gens:
        assert reference_normal_form(gen, gb, ring) == {}, "generator survives"
    for i, f in enumerate(gb):
        for j in range(i):
            if leads[i][0] == leads[j][0]:
                s = _ref_spair(gb[j], f, ring)
                assert reference_normal_form(s, gb, ring) == {}, "S-pair survives"
    for (_, _, lc), g in zip(leads, gb):
        assert lc == one, "not monic"
        for (cj, mj, _), h in zip(leads, gb):
            if h is g or cj not in g:
                continue
            assert not any(mono_divides(mj, e) for e in g[cj].terms), \
                "not reduced"


ORDERS = (MonomialOrder(), MonomialOrder("lex"))
TERM = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3),
                 st.integers(1, 3))


def poly_from(R, terms):
    F = R.field
    out = R.zero()
    for a, b, num, den in terms:
        c = F.div(F.from_int(num), F.from_int(den))
        out = out + R.monomial((a, b), c)
    return out


def vector(R, entries):
    """{component: polynomial} from (component, term list) pairs, zeros
    dropped."""
    v = {}
    for comp, terms in entries:
        p = poly_from(R, terms)
        if comp in v:
            p = p + v.pop(comp)
        if not p.is_zero():
            v[comp] = p
    return v


def entries(rank):
    return st.lists(st.tuples(st.integers(0, rank - 1),
                              st.lists(TERM, max_size=3)), max_size=rank)


FIELDS = st.sampled_from([QQ, GF(5)])


@settings(max_examples=100, deadline=None)
@given(FIELDS, st.sampled_from(ORDERS), st.integers(1, 3).flatmap(
    lambda r: st.tuples(entries(r), st.lists(entries(r), max_size=4))))
def test_normal_form_matches_the_copying_reference(field, order, data):
    """Any basis, Groebner or not: the in-place reducer agrees with the
    copying one component by component."""
    R = PolyRing(field, ("x", "y"), order)
    v_entries, basis_entries = data
    v = vector(R, v_entries)
    basis = [b for b in (vector(R, e) for e in basis_entries) if b]
    got = vp_normal_form(v, basis, R)
    want = reference_normal_form(v, basis, R)
    assert got == want
    assert list(got) == list(want)


def test_normal_form_edge_cases():
    R = PolyRing(QQ, ("x", "y"))
    g = {0: R.poly("x^2 - y"), 2: R.poly("3*y")}
    h = {1: R.poly("x*y + 1/2")}
    assert vp_normal_form({}, [g, h], R) == {}
    v = {0: R.poly("x + y^3"), 1: R.poly("2*x^2*y")}
    assert vp_normal_form(v, [], R) == v == reference_normal_form(v, [], R)
    assert vp_normal_form(g, [g, h], R) == {}
    assert vp_normal_form(h, [g, h], R) == {}


@settings(max_examples=40, deadline=None)
@given(FIELDS, st.sampled_from(ORDERS),
       st.lists(st.lists(TERM, min_size=1, max_size=3), min_size=1, max_size=3))
def test_ideal_groebner_is_certified(field, order, gens):
    R = PolyRing(field, ("x", "y"), order)
    vps = [vp_from_poly(poly_from(R, t), 0) for t in gens]
    verify_groebner(module_groebner(vps, R), vps, R)


@settings(max_examples=40, deadline=None)
@given(FIELDS, st.sampled_from(ORDERS), st.lists(entries(2), max_size=3))
def test_rank_two_module_groebner_is_certified(field, order, gens):
    R = PolyRing(field, ("x", "y"), order)
    vps = [vector(R, e) for e in gens]
    verify_groebner(module_groebner(vps, R), vps, R)
