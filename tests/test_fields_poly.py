"""Field arithmetic, polynomial arithmetic, parsing, and term orders."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aq.fields import GF, QQ, FieldError, field_from_spec
from aq.orders import MonomialOrder, OrderError
from aq.poly import ParseError, PolyError, PolyRing, parse_polynomial, stable_str


def ring(field, *names, order=None):
    return PolyRing(field, names, order)


# -- fields ------------------------------------------------------------


def test_rational_field_basics():
    assert QQ.kind == "QQ"
    assert QQ.characteristic == 0
    a = QQ.fraction(3, 4)
    b = QQ.from_int(2)
    assert QQ.to_str(QQ.add(a, b)) == "11/4"
    assert QQ.mul(a, QQ.inv(a)) == QQ.from_int(1)


def test_prime_field_basics():
    F7 = GF(7)
    assert F7.characteristic == 7
    assert F7.add(F7.from_int(5), F7.from_int(4)) == F7.from_int(2)
    assert F7.mul(F7.from_int(3), F7.inv(F7.from_int(3))) == F7.from_int(1)


def test_characteristic_must_be_prime():
    with pytest.raises(FieldError, match="characteristic must be prime"):
        GF(4)
    with pytest.raises(FieldError, match="characteristic must be prime"):
        GF(1)
    # odd composites reach the trial division
    for n in (9, 25, 91):
        with pytest.raises(FieldError, match="characteristic must be prime"):
            GF(n)
    assert GF(101).characteristic == 101


@pytest.mark.parametrize("divide", [
    lambda: QQ.fraction(1, 0),
    lambda: QQ.inv(0),
    lambda: GF(7).inv(14),
], ids=["QQ-fraction", "QQ-inverse", "GF7-inverse"])
def test_division_by_zero_is_refused(divide):
    with pytest.raises(FieldError, match="division by zero"):
        divide()


def test_field_from_spec_round_trip():
    assert field_from_spec("QQ") == QQ
    assert field_from_spec("GF", 5) == GF(5)
    with pytest.raises(FieldError):
        field_from_spec("RR")


small_rationals = st.tuples(st.integers(-8, 8), st.integers(1, 6)).map(
    lambda t: QQ.fraction(*t))
f7_elements = st.integers(min_value=0, max_value=6).map(GF(7).from_int)


@given(small_rationals, small_rationals, small_rationals)
def test_qq_ring_axioms(a, b, c):
    F = QQ
    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero()


def _is_canonical(q) -> bool:
    """An integral rational is an int; any other is a Fraction."""
    if type(q) is int:
        return True
    return type(q) is Fraction and q.denominator != 1


@given(st.integers(-8, 8), st.integers(-6, 6).filter(bool), small_rationals)
def test_qq_values_are_canonical_and_exact(num, den, b):
    a = QQ.fraction(num, den)
    fa, fb = Fraction(num, den), Fraction(b)
    results = [(a, fa), (QQ.add(a, b), fa + fb), (QQ.sub(a, b), fa - fb),
               (QQ.mul(a, b), fa * fb), (QQ.neg(a), -fa),
               (QQ.zero(), 0), (QQ.one(), 1), (QQ.from_int(num), num)]
    if b != 0:
        results += [(QQ.inv(b), 1 / fb), (QQ.div(a, b), fa / fb)]
    for value, exact in results:
        assert value == exact
        assert _is_canonical(value), repr(value)


def test_qq_inverse_of_an_integer_is_exact():
    third = QQ.inv(QQ.from_int(3))
    assert third == Fraction(1, 3) and type(third) is Fraction
    assert type(QQ.inv(QQ.fraction(1, 3))) is int
    quotient = QQ.div(QQ.one(), QQ.from_int(3))
    assert quotient == Fraction(1, 3) and type(quotient) is Fraction


@given(f7_elements, f7_elements)
def test_gf7_field_axioms(a, b):
    F = GF(7)
    assert F.add(a, b) == F.add(b, a)
    if not F.is_zero(a):
        assert F.mul(a, F.inv(a)) == F.one()


# -- polynomial arithmetic ----------------------------------------------


def test_arithmetic_and_normalization():
    R = ring(QQ, "x", "y")
    x, y = R.var("x"), R.var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert str(x * x - y * y) == "x^2 - y^2"


def test_substitute_composes():
    R = ring(QQ, "x", "y")
    p = R.poly("x^2 + y")
    q = p.substitute(R, {"x": R.poly("y + 1"), "y": R.poly("0")})
    assert q == R.poly("y^2 + 2*y + 1")


def test_evaluate_exactly():
    R = ring(QQ, "x", "y")
    p = R.poly("x^2*y - 1/2")
    val = p.evaluate({"x": QQ.from_int(3), "y": QQ.fraction(1, 9)})
    assert val == QQ.fraction(1, 2)


def test_derivative_leibniz():
    R = ring(QQ, "x", "y")
    p, q = R.poly("x^2 + y"), R.poly("x*y - 3")
    lhs = (p * q).derivative("x")
    rhs = p.derivative("x") * q + p * q.derivative("x")
    assert lhs == rhs


simple_polys = st.builds(
    lambda coeffs: sum(
        (PolyRing(QQ, ("x", "y")).monomial((i, j), QQ.from_int(c))
         for (i, j), c in coeffs.items()),
        PolyRing(QQ, ("x", "y")).zero()),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-3, 3), max_size=4))


@given(simple_polys, simple_polys)
def test_parse_print_round_trip(p, q):
    R = PolyRing(QQ, ("x", "y"))
    s = p * q + p
    assert R.poly(str(s)) == s


@pytest.mark.parametrize("misuse, message", [
    (lambda R: PolyRing(QQ, ("x", "x")), "duplicate variable names"),
    (lambda R: R.var_index("z"), "unknown variable 'z'"),
    (lambda R: R.var("z"), "unknown variable 'z'"),
    (lambda R: R.zero().leading_monomial(), "zero polynomial has no leading term"),
    (lambda R: R.var("x") + ring(QQ, "x").var("x"), "polynomials from different rings"),
    (lambda R: R.var("x") ** -1, "negative power"),
    (lambda R: R.var("x").evaluate({"x": 1}), "point does not assign variable 'y'"),
], ids=["duplicate-variable", "var-index", "var", "lead-of-zero", "other-ring",
        "negative-power", "partial-point"])
def test_polynomial_misuse_is_a_typed_error(misuse, message):
    with pytest.raises(PolyError) as info:
        misuse(ring(QQ, "x", "y"))
    assert str(info.value) == message


def test_equal_rings_and_polynomials_hash_alike():
    R, S = ring(QQ, "x", "y"), ring(QQ, "x", "y")
    assert R is not S and R == S and hash(R) == hash(S)
    p, q = R.poly("x^2 - y"), S.poly("-y + x^2")
    assert p == q and hash(p) == hash(q)
    assert p != "x^2 - y"


# -- parsing errors with positions ---------------------------------------


@pytest.mark.parametrize("source, message, col", [
    ("x^y", "expected 'INT', found 'y'", 3),
    ("(x y", "expected ')', found 'y'", 4),
    ("x + 1/0", "division by zero", 7),
    ("x + )", "unexpected token ')'", 5),
    ("", "empty polynomial", 1),
    ("   ", "empty polynomial", 1),
])
def test_parse_errors_name_their_column(source, message, col):
    with pytest.raises(ParseError) as info:
        parse_polynomial(source, ring(QQ, "x"))
    assert (info.value.message, info.value.col) == (message, col)



def test_parse_error_reports_column():
    R = ring(QQ, "x")
    with pytest.raises(ParseError) as info:
        parse_polynomial("x + @", R)
    assert info.value.col == 5
    with pytest.raises(ParseError, match="unexpected end"):
        parse_polynomial("x + ", R)


def test_unknown_variable_rejected():
    R = ring(QQ, "x")
    with pytest.raises(ParseError, match="unknown variable"):
        R.poly("x + z")


def test_products_need_explicit_star():
    R = ring(QQ, "x", "y")
    with pytest.raises(ParseError):
        R.poly("x y")


# -- monomial orders -----------------------------------------------------


def test_unknown_monomial_order_is_refused():
    with pytest.raises(OrderError, match="unknown monomial order 'grlex'"):
        MonomialOrder("grlex")


def test_degrevlex_vs_lex_leading_terms():
    # total degree dominates under degrevlex, variable priority under lex
    grl = ring(QQ, "x", "y")
    assert grl.poly("y^2 - x^3").leading_monomial() == (3, 0)
    lex = ring(QQ, "x", "y", order=MonomialOrder("lex"))
    assert lex.poly("x - y^3").leading_monomial() == (1, 0)


def test_stable_str_ignores_ambient_order():
    lex = ring(QQ, "x", "y", order=MonomialOrder("lex"))
    grl = ring(QQ, "x", "y")
    p_lex, p_grl = lex.poly("x - y^2"), grl.poly("x - y^2")
    assert stable_str(p_lex) == stable_str(p_grl) == "-y^2 + x"
    assert str(p_lex) == "x - y^2"


# -- substitution, renaming and powers -------------------------------------


GF5 = GF(5)


def field_polys(field, variables, max_exponent=2, max_size=4):
    """Polynomials in `variables` with small integer coefficients."""
    R = PolyRing(field, variables)
    return st.dictionaries(
        st.tuples(*(st.integers(0, max_exponent) for _ in variables)),
        st.integers(-4, 4), max_size=max_size,
    ).map(lambda terms: R.from_terms(
        {e: field.from_int(c) for e, c in terms.items()}))


SOURCE_VARS = ("x", "y", "z")
TARGET_VARS = ("x", "y", "z", "u", "v")


@pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_substitute_then_evaluate_is_evaluate_at_the_images(field, data):
    T = PolyRing(field, TARGET_VARS)
    p = data.draw(field_polys(field, SOURCE_VARS, max_exponent=3))
    # a variable left out of the images goes to its namesake in the target
    mapped = data.draw(st.sets(st.sampled_from(SOURCE_VARS)))
    imgs = {v: data.draw(field_polys(field, TARGET_VARS)) for v in sorted(mapped)}
    pt = {v: field.from_int(data.draw(st.integers(-3, 3)))
          for v in TARGET_VARS}
    pulled = {v: imgs[v].evaluate(pt) if v in imgs else pt[v]
              for v in SOURCE_VARS}
    assert p.substitute(T, imgs).evaluate(pt) == p.evaluate(pulled)


@pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rename_into_is_substitution_by_variables(field, data):
    p = data.draw(field_polys(field, SOURCE_VARS, max_exponent=3, max_size=6))
    T = PolyRing(field, ("u", "w"))
    renaming = {v: data.draw(st.sampled_from(T.variables))
                for v in SOURCE_VARS}
    by_vars = {v: T.var(w) for v, w in renaming.items()}
    assert p.rename_into(T, renaming) == p.substitute(T, by_vars)


def test_colliding_renamed_terms_add_and_cancel():
    R = ring(QQ, "x", "y")
    T = ring(QQ, "z")
    onto_z = {"x": "z", "y": "z"}
    assert R.poly("x + y").rename_into(T, onto_z) == T.poly("2*z")
    assert R.poly("x*y - y^2 + x").rename_into(T, onto_z) == T.poly("z")
    assert R.poly("x - y").rename_into(T, onto_z).is_zero()
    assert R.poly("x - y").substitute(T, {"x": T.var("z"),
                                          "y": T.var("z")}).is_zero()


def test_substitute_refuses_a_used_image_from_another_ring():
    R = ring(QQ, "x", "y")
    T = ring(QQ, "x", "y", "t")
    other = ring(QQ, "t")
    with pytest.raises(PolyError, match="wrong ring"):
        R.poly("x^2 + y").substitute(T, {"x": other.var("t")})


def test_derivative_keeps_every_term():
    R = ring(GF(3), "x", "y")
    p = R.poly("x^3*y + 2*x^2*y + x*y^2 + y + 1")
    assert p.derivative("x") == R.poly("x*y + y^2")
    assert p.derivative("y") == R.poly("x^3 + 2*x^2 + 2*x*y + 1")


@pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_power_is_repeated_product(field, data):
    p = data.draw(field_polys(field, ("x", "y")))
    product = p.ring.one()
    for k in range(7):
        assert p ** k == product
        product = product * p
