"""Groebner bases, normal forms, and the submodule engine."""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from aq.fields import GF, QQ
from aq.corpus import random_surjections
from aq.groebner import (
    SubmoduleEngine,
    _sub_multiple,
    ideal_groebner,
    lead_index,
    module_groebner,
    vp_from_poly,
    vp_lead,
    vp_normal_form,
)
from aq.orders import (MonomialOrder, _degrevlex_key, _lex_key, mono_div,
                       mono_divides, mono_lcm, mono_mul)
from aq.poly import Polynomial, PolyRing, _add_terms
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
    normal_form = PresentedAlgebra(R, ["y^2 - x^3"]).normal_form
    p = R.poly("y^4 + x*y^2 + 1")
    nf = normal_form(p)
    assert normal_form(nf) == nf
    q = R.poly("x^2 - y")
    assert normal_form(p + q) == normal_form(nf + normal_form(q))


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
    normal_form = PresentedAlgebra(R, polys).normal_form
    p, h = mono(m1), mono(m2)
    assert normal_form(p + h * polys[0]) == normal_form(p)


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


def _ref_monic(v, ring):
    inv = ring.field.inv(vp_lead(v, ring)[2])
    return {c: p.scale(inv) for c, p in v.items()}


def reference_groebner(gens, ring):
    """Reduced monic Groebner basis by all-pairs Buchberger on copies: every
    S-pair of leads in one component is reduced with
    `reference_normal_form`, first in first out, and no criterion skips
    one.  The result is minimalised, tail-reduced and sorted as
    `module_groebner` sorts it (lowest component, then largest lead first)."""
    basis = []
    for gen in gens:
        nf = reference_normal_form(gen, basis, ring)
        if nf:
            basis.append(_ref_monic(nf, ring))
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        if vp_lead(basis[i], ring)[0] != vp_lead(basis[j], ring)[0]:
            continue
        nf = reference_normal_form(_ref_spair(basis[i], basis[j], ring),
                                   basis, ring)
        if nf:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(_ref_monic(nf, ring))
    leads = [vp_lead(g, ring)[:2] for g in basis]
    minimal = [g for i, (g, (c, m)) in enumerate(zip(basis, leads))
               if not any(cj == c and mono_divides(mj, m) and (mj != m or j < i)
                          for j, (cj, mj) in enumerate(leads) if j != i)]
    reduced = [reference_normal_form(g, [h for h in minimal if h is not g], ring)
               for g in minimal]
    key = ring.order.key
    return sorted(reduced, key=lambda g: (-vp_lead(g, ring)[0],
                                          key(vp_lead(g, ring)[1])),
                  reverse=True)


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
    got = vp_normal_form(v, lead_index(basis, R), R)
    want = reference_normal_form(v, basis, R)
    assert got == want
    assert list(got) == list(want)


def test_normal_form_edge_cases():
    R = PolyRing(QQ, ("x", "y"))
    g = {0: R.poly("x^2 - y"), 2: R.poly("3*y")}
    h = {1: R.poly("x*y + 1/2")}
    index = lead_index([g, h], R)
    assert vp_normal_form({}, index, R) == {}
    v = {0: R.poly("x + y^3"), 1: R.poly("2*x^2*y")}
    assert vp_normal_form(v, lead_index([], R), R) == v == reference_normal_form(v, [], R)
    assert vp_normal_form(g, index, R) == {}
    assert vp_normal_form(h, index, R) == {}


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


def engine_inputs(R, rank, vectors, relations):
    """The generators a `SubmoduleEngine` hands to `module_groebner`: each
    vector with its tracking unit, then each relation in every component."""
    tracked = [{**v, rank + i: R.one()} for i, v in enumerate(vectors)]
    return tracked + [{j: r} for r in relations for j in range(rank)]


@settings(max_examples=80, deadline=None)
@given(FIELDS, st.sampled_from(ORDERS), st.integers(1, 3).flatmap(
    lambda r: st.tuples(st.just(r), st.lists(entries(r), max_size=3),
                        st.lists(st.lists(TERM, min_size=1, max_size=3),
                                 max_size=2),
                        st.booleans())))
# y beside its tracking unit against the unit relation: coprime leads, but
# the S-pair leaves the unit in the tracking component
@example(QQ, MonomialOrder(), (1, [[(0, [(0, 1, 1, 1)])]],
                               [[(0, 0, 1, 1)]], True))
# x*y beside its tracking unit against y + 1: a chain through a pair that
# is still pending proves nothing
@example(QQ, MonomialOrder(), (1, [[(0, [(1, 1, 1, 1)])]],
                               [[(0, 0, 1, 1), (0, 1, 1, 1)]], True))
def test_module_groebner_matches_the_all_pairs_reference(field, order, data):
    """The criteria skip only S-pairs that the rest of the basis accounts
    for: the basis equals the all-pairs one element by element, on plain
    generators (single- and multi-component vectors plus relations, each
    in one component) and on the tracked inputs of a `SubmoduleEngine`."""
    rank, vector_entries, relation_terms, tracked = data
    R = PolyRing(field, ("x", "y"), order)
    vectors = [v for v in (vector(R, e) for e in vector_entries) if v]
    relations = [p for p in (poly_from(R, t) for t in relation_terms)
                 if not p.is_zero()]
    if tracked:
        gens = engine_inputs(R, rank, vectors, relations)
    else:
        gens = vectors + [{j % rank: r} for j, r in enumerate(relations)]
    got = module_groebner(gens, R)
    assert got == reference_groebner(gens, R)
    verify_groebner(got, gens, R)


@settings(max_examples=60, deadline=None)
@given(FIELDS, st.sampled_from(ORDERS),
       st.lists(st.lists(TERM, min_size=1, max_size=3), max_size=3),
       st.lists(st.lists(TERM, max_size=4), min_size=1, max_size=3))
def test_algebra_normal_form_matches_the_reference(field, order, rels, elements):
    """The algebra's cached lead index reduces as a fresh Groebner list
    does, also on its lex twin, which starts with no index of its own."""
    R = PolyRing(field, ("x", "y"), order)
    A = PresentedAlgebra(R, [poly_from(R, t) for t in rels])
    A.normal_form(A.ring.zero())  # A's index exists before its twin
    lex = A.with_order(MonomialOrder("lex"))
    assert lex._gb_index is None
    for B in (A, lex, A):
        gb = [vp_from_poly(g, 0) for g in B.groebner()]
        for terms in elements:
            p = poly_from(B.ring, terms)
            want = reference_normal_form(vp_from_poly(p, 0), gb, B.ring)
            assert B.normal_form(p) == want.get(0, B.ring.zero())


def test_module_groebner_finds_each_lead_once(monkeypatch):
    """Leads live with the basis: one `vp_lead` per element that enters
    the basis, plus one per element the inter-reduction keeps; none per
    reduction or S-pair."""
    import aq.groebner as groebner
    leads, entered = [], []
    real_lead, real_interreduce = groebner.vp_lead, groebner._interreduce

    def counting_lead(v, ring):
        leads.append(v)
        return real_lead(v, ring)

    def recording_interreduce(basis, *rest):
        entered.append((len(leads), len(basis)))
        return real_interreduce(basis, *rest)

    monkeypatch.setattr(groebner, "vp_lead", counting_lead)
    monkeypatch.setattr(groebner, "_interreduce", recording_interreduce)
    R = PolyRing(QQ, ("x", "y", "z"))
    gens = [vp_from_poly(R.poly(p), 0)
            for p in ("x*y - z", "y*z - x", "x*z - y")]
    out = groebner.module_groebner(gens, R)
    (before, size), = entered
    assert size > len(gens)  # S-pairs added elements
    assert before <= size
    assert len(leads) <= size + len(out)


def test_criteria_skip_half_the_s_pairs(monkeypatch):
    """The syzygies of the three relations of a GF(5) surjection in three
    variables build 9 S-pairs; building every S-pair of leads in one
    component, as the pair loop did before the product and chain
    criteria, builds 18."""
    import aq.groebner as groebner
    target = random_surjections()[18]["map"].target
    R = target.ring
    assert R.field == GF(5) and len(R.variables) == 3
    assert len(target.relations) == 3
    built = []
    real = groebner._spair

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "_spair", counting)
    engine = SubmoduleEngine(R, 1, [{0: r} for r in target.relations])
    assert engine.syzygies()
    assert len(built) == 9


def test_corpus_bases_match_the_all_pairs_reference(monkeypatch):
    """Every module Groebner input (`SubmoduleEngine` eliminations and the
    algebras' ideals) that the surjection checks of the suite corpus make,
    through the truncation, Tor, the differentials, both oracles and the
    lci report, gives the all-pairs basis element by element."""
    import aq
    import aq.groebner as groebner
    real = groebner.module_groebner
    inputs = []

    def recording(generators, ring):
        inputs.append(([dict(g) for g in generators], ring))
        return real(generators, ring)

    monkeypatch.setattr(groebner, "module_groebner", recording)
    # fresh maps: the shared corpus may already keep its bases
    for case in random_surjections.__wrapped__():
        phi, points = case["map"], case["points"]
        trunc = aq.cotangent_trunc2(phi)
        tor = aq.tor_modules(phi, n_max=1)
        kd = aq.kahler_presentation(phi)
        oracle, _ = aq.kahler_oracle_via_diagonal(phi)
        for q in points:
            trunc.dims_through(q, 2)
            tor.dim_at_point(1, q)
            pt = phi.target.parse_point(q)
            assert kd.dim_at_point(pt) == oracle.dim_at_point(
                kd.presentation.transport_point(pt))
        aq.five_term_check(phi, points)
        aq.classification_report("lci", phi, points)
    assert sum(any(len(g) > 1 for g in gens) for gens, _ in inputs) > 20
    for gens, ring in inputs:
        assert real(gens, ring) == reference_groebner(gens, ring)


def test_each_twin_basis_is_for_the_twin_order():
    """The smooth oracle's twin re-sorts a map under the other order; every
    algebra of the twin has a certified basis for that order."""
    from aq.classify import _twin_oracle_data
    from aq.corpus import classifier_corpus, random_base_extensions
    from aq.rings import AlgebraMap
    maps = [c["subject"] for c in classifier_corpus()
            if isinstance(c["subject"], AlgebraMap)]
    maps += [c["map"] for c in random_base_extensions()]
    for phi in maps:
        rp, _, _ = phi.derived(_twin_oracle_data)
        twin = rp.phi
        order = twin.target.ring.order
        assert order.name != phi.target.ring.order.name
        for A in (rp.algebra, rp.base_algebra, twin.source, twin.target):
            assert A.ring.order.name == order.name
            verify_groebner([vp_from_poly(g, 0) for g in A.groebner()],
                            [vp_from_poly(r, 0) for r in A.relations], A.ring)


# -- the order's key cache and the subtraction step --------------------------------


MONOMIALS = st.lists(st.lists(st.integers(0, 6), max_size=4).map(tuple),
                     max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["degrevlex", "lex"]), MONOMIALS)
def test_the_order_key_equals_the_raw_key(name, monomials):
    """Leads, sorts and the copying reference all read `order.key`, so a
    wrong cached key would fool them alike; check it against the raw
    functions, on a first and a repeat lookup, on two orders of one name."""
    raw = {"degrevlex": _degrevlex_key, "lex": _lex_key}[name]
    first, second = MonomialOrder(name), MonomialOrder(name)
    for e in monomials + monomials[::-1]:
        assert first.key(e) == raw(e)
        assert second.key(e) == raw(e)
    assert sorted(monomials, key=first.key) == sorted(monomials, key=raw)


def test_an_order_and_its_keys_are_freed_with_the_last_ring():
    R = PolyRing(QQ, ("x", "y"))
    ideal_groebner([R.poly("x^2 - y"), R.poly("x*y - 1")], R)
    order = R.order
    keys = order.key.__self__
    assert keys
    refs = [weakref.ref(order), weakref.ref(keys)]
    del R, order, keys
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_each_monomial_is_keyed_once_per_order(monkeypatch):
    """The syzygy elimination of a GF(5) surjection in three variables
    computes the raw degrevlex key at most once per distinct monomial."""
    import aq.orders
    target = random_surjections()[8]["map"].target
    assert target.ring.field == GF(5) and len(target.ring.variables) == 3
    texts = [str(r) for r in target.relations]
    keyed = []
    real = aq.orders._degrevlex_key

    def counting(expo):
        keyed.append(expo)
        return real(expo)

    monkeypatch.setattr(aq.orders, "_degrevlex_key", counting)
    R = PolyRing(GF(5), target.ring.variables)  # a new order: no keys yet
    relations = [{0: R.poly(t)} for t in texts]
    assert SubmoduleEngine(R, 1, relations).syzygies()
    assert keyed
    assert len(keyed) == len(set(keyed))


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_sub_multiple_matches_term_by_term_addition(field):
    """work -= factor * x^q * g, with a non-unit factor: component 2 cancels
    to nothing and is dropped, x^2*y cancels inside component 0, component
    1 is left alone and component 3 is new."""
    R = PolyRing(field, ("x", "y"))
    factor = field.fraction(2, 3)
    q = (1, 0)
    g = {0: R.poly("x*y + 2*y - 1"), 2: R.poly("3*x - y^2"), 3: R.poly("y")}
    work = {0: {(2, 1): factor, (0, 3): field.one()},
            1: {(0, 0): field.from_int(4)},
            2: {e: field.mul(factor, k)
                for e, k in (g[2] * R.monomial(q, field.one())).terms.items()}}
    expected = {c: dict(row) for c, row in work.items()}
    neg = field.neg(factor)
    for c, p in g.items():
        row = expected.setdefault(c, {})
        _add_terms(row, ((mono_mul(e, q), field.mul(neg, k))
                         for e, k in p.terms.items()), field)
        if not row:
            del expected[c]
    _sub_multiple(work, g, q, factor, field)
    assert work == expected
    assert sorted(work) == [0, 1, 3]
    assert (2, 1) not in work[0]


def test_a_reducer_that_is_not_monic_still_divides():
    for field, remainder in ((QQ, "1/4"), (GF(5), "4")):
        R = PolyRing(field, ("x",))
        index = lead_index([vp_from_poly(R.poly("2*x - 1"), 0)], R)
        assert vp_normal_form(vp_from_poly(R.poly("x^2"), 0), index,
                              R) == {0: R.poly(remainder)}


# -- the per-field subtraction loops and the inter-reduction skip ------------


KERNEL_FIELDS = st.sampled_from([QQ, GF(2), GF(5), GF(7)])
# denominators that are units in every one of those fields
KERNEL_DEN = st.sampled_from([1, 3, 11])
KERNEL_TERM = st.tuples(st.integers(0, 2), st.integers(0, 2),
                        st.integers(-3, 3), KERNEL_DEN)


def cancelling_terms(terms):
    """The terms, then the negatives of a prefix of them: an entry whose
    terms cancel in part or in full."""
    return st.integers(0, len(terms)).map(
        lambda k: terms + [(a, b, -num, den) for a, b, num, den in terms[:k]])


def kernel_inputs(rank):
    """(rank, generator entries, multiples): each multiple (i, num, den)
    appends num/den times generator i, which reduces to zero."""
    entry = st.tuples(st.integers(0, rank - 1),
                      st.lists(KERNEL_TERM, max_size=3).flatmap(cancelling_terms))
    return st.tuples(st.just(rank),
                     st.lists(st.lists(entry, max_size=rank), min_size=1,
                              max_size=4),
                     st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3),
                                        KERNEL_DEN), max_size=2))


def assert_canonical(basis, field):
    """A QQ coefficient is an int or a Fraction whose denominator is not 1;
    a GF(p) coefficient is an int in [0, p).  No stored coefficient is 0."""
    p = field.characteristic
    for v in basis:
        for poly in v.values():
            for k in poly.terms.values():
                assert k != 0
                if p:
                    assert type(k) is int and 0 <= k < p
                else:
                    assert type(k) is int or (type(k) is Fraction
                                              and k.denominator != 1)


@settings(max_examples=100, deadline=None)
@given(KERNEL_FIELDS, st.sampled_from(ORDERS),
       st.integers(1, 3).flatmap(kernel_inputs))
# x + 1/2 reduces 2*x*y + y^2 to y^2 - y: -2 * 1/2 is an integral Fraction
@example(QQ, MonomialOrder(), (1, [[(0, [(1, 0, 1, 1), (0, 0, 1, 2)])],
                                   [(0, [(1, 1, 2, 1), (0, 2, 1, 1)])]], []))
# over GF(2) the negated factor of a unit is the unit itself
@example(GF(2), MonomialOrder("lex"), (2, [[(0, [(1, 0, 1, 1), (0, 1, 1, 1)]),
                                            (1, [(0, 0, 1, 1)])],
                                           [(0, [(1, 1, 1, 1)])]], [(0, 1, 1)]))
def test_field_kernels_match_the_all_pairs_reference(field, order, data):
    """Each field's subtraction loop gives the all-pairs basis element by
    element, over QQ with fractional coefficients and over GF(2), GF(5) and
    GF(7), on generators whose terms cancel and on multiples of a
    generator; every returned coefficient is canonical."""
    rank, gen_entries, multiples = data
    R = PolyRing(field, ("x", "y"), order)
    gens = [v for v in (vector(R, e) for e in gen_entries) if v]
    for i, num, den in multiples:
        c = field.div(field.from_int(num), field.from_int(den))
        if gens and not field.is_zero(c):
            gens.append({k: p.scale(c) for k, p in gens[i % len(gens)].items()})
    got = module_groebner(gens, R)
    assert got == reference_groebner(gens, R)
    verify_groebner(got, gens, R)
    assert_canonical(got, field)


def test_interreduction_reduces_a_tail_only_by_a_later_lead(monkeypatch):
    """x + y enters the basis before y, so its tail y is reducible only by
    the later lead: the inter-reduction rewrites it to x, and leaves y, which
    no later lead reduces, as it is."""
    import aq.groebner as groebner
    reduced = []
    real = groebner.vp_normal_form

    def recording(v, index, ring, skip=None):
        if skip is not None:
            reduced.append(str(v[0]))
        return real(v, index, ring, skip)

    monkeypatch.setattr(groebner, "vp_normal_form", recording)
    R = PolyRing(QQ, ("x", "y"))
    assert gb_strings(["x + y", "y"], R) == ["x", "y"]
    assert reduced == ["x + y"]
