"""Multivariate polynomials with exact coefficients.

A PolyRing fixes the field, the variable names, and the monomial order.
Polynomials are term maps {exponent tuple: coefficient}; they are treated
as immutable after construction. Deterministic everywhere: printing and
iteration always follow the ring's monomial order.
"""

from __future__ import annotations

import operator

from .fields import Field, FieldError
from .orders import MonomialOrder, mono_deg, mono_mul


class PolyError(ValueError):
    pass


def _add_terms(out: dict, terms, field: Field) -> dict:
    """Add (monomial, coefficient) pairs into the term map `out` in place,
    dropping each sum that cancels; returns `out`.  Coefficients arriving
    at an empty slot must be nonzero."""
    add, is_zero = field.add, field.is_zero
    for e, c in terms:
        prev = out.get(e)
        if prev is None:
            out[e] = c
        else:
            s = add(prev, c)
            if is_zero(s):
                del out[e]
            else:
                out[e] = s
    return out


def _mul_terms(a: dict, b: dict, field: Field) -> dict:
    """Product of two term maps."""
    mul = field.mul
    return _add_terms({}, ((mono_mul(e1, e2), mul(c1, c2))
                           for e1, c1 in a.items() for e2, c2 in b.items()), field)


def _power(p: "Polynomial", n: int, multiply) -> "Polynomial":
    """p^n by square-and-multiply, every product taken through `multiply`
    (so a caller can charge it against a work budget)."""
    result = p.ring.one()
    while n:
        if n & 1:
            result = multiply(result, p)
        n >>= 1
        if n:
            p = multiply(p, p)
    return result


class ParseError(PolyError):
    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{message} (line {line}, col {col})")
        self.message = message
        self.line = line
        self.col = col


class PolyRing:
    """Polynomial ring k[x_1, ..., x_n] with a fixed monomial order."""

    def __init__(self, field: Field, variables, order: MonomialOrder | None = None):
        self.field = field
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise PolyError("duplicate variable names")
        self.order = order if order is not None else MonomialOrder()
        self._var_index = {v: i for i, v in enumerate(self.variables)}
        # exponent tuple of each variable -> its name: one lookup tells a
        # generator from any other monomial
        self.unit_names = {tuple(int(j == i) for j in range(len(self.variables))): v
                           for i, v in enumerate(self.variables)}
        one = field.one()
        self._vars = {v: Polynomial(self, {e: one}) for e, v in self.unit_names.items()}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise PolyError(f"unknown variable {name!r}") from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: self.field.one()})

    def const(self, c) -> "Polynomial":
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def from_int(self, n: int) -> "Polynomial":
        return self.const(self.field.from_int(n))

    def var(self, name: str) -> "Polynomial":
        """The variable `name`: one Polynomial per name, built with the ring
        and shared by every call (polynomials are never mutated)."""
        try:
            return self._vars[name]
        except KeyError:
            raise PolyError(f"unknown variable {name!r}") from None

    def monomial(self, expo: tuple[int, ...], coeff=None) -> "Polynomial":
        c = self.field.one() if coeff is None else coeff
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {tuple(expo): c})

    def from_terms(self, terms: dict) -> "Polynomial":
        clean = {tuple(e): c for e, c in terms.items() if not self.field.is_zero(c)}
        return Polynomial(self, clean)

    def poly(self, source: str) -> "Polynomial":
        return parse_polynomial(source, self)

    def with_order(self, order: MonomialOrder) -> "PolyRing":
        return PolyRing(self.field, self.variables, order)

    def extended(self, new_vars) -> "PolyRing":
        return PolyRing(self.field, self.variables + tuple(new_vars), self.order)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.variables == self.variables
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.field, self.variables, self.order))

    def __repr__(self):
        return f"PolyRing({self.field}, {list(self.variables)}, {self.order.name})"


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono_deg(e) == 0 for e in self.terms)

    def sorted_terms(self):
        """Terms as (expo, coeff), descending in the ring order."""
        key = self.ring.order.key
        return [(e, self.terms[e]) for e in sorted(self.terms, key=key, reverse=True)]

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise PolyError("zero polynomial has no leading term")
        return max(self.terms, key=self.ring.order.key)

    # -- arithmetic --------------------------------------------------

    def _check(self, other: "Polynomial"):
        if other.ring is not self.ring and other.ring != self.ring:
            raise PolyError("polynomials from different rings")

    def __add__(self, other):
        self._check(other)
        return Polynomial(self.ring, _add_terms(dict(self.terms), other.terms.items(),
                                                self.ring.field))

    def __neg__(self):
        F = self.ring.field
        return Polynomial(self.ring, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        self._check(other)
        return Polynomial(self.ring, _mul_terms(self.terms, other.terms, self.ring.field))

    def __pow__(self, n: int):
        if n < 0:
            raise PolyError("negative power")
        return _power(self, n, operator.mul)

    def scale(self, c) -> "Polynomial":
        F = self.ring.field
        if F.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {e: F.mul(c, k) for e, k in self.terms.items()})

    # -- calculus and substitution ------------------------------------

    def derivative(self, var: str) -> "Polynomial":
        """Formal partial derivative; exponent multiples use the field
        characteristic, so d(x^p)/dx = 0 over GF(p)."""
        i = self.ring.var_index(var)
        F = self.ring.field
        out: dict = {}
        # distinct monomials have distinct partial derivatives: no collisions
        for e, c in self.terms.items():
            k = e[i]
            if k:
                nc = F.mul(c, F.from_int(k))
                if not F.is_zero(nc):
                    out[e[:i] + (k - 1,) + e[i + 1:]] = nc
        return Polynomial(self.ring, out)

    def substitute(self, target: PolyRing, images: dict[str, "Polynomial"]) -> "Polynomial":
        """Ring map into `target` sending each variable to its image.

        A variable missing from `images` maps to the same-named variable of
        the target.  Only the variables some term uses are looked up, so an
        unused variable needs neither an image nor a namesake; a used image
        must live in `target`.  Each (variable, exponent) power is built
        once per call, and all terms are summed into one term map.  Every
        product, those inside a power included, is charged |a|*|b| term
        pairs first; past MAX_PRODUCT_WORK pairs in one call it raises
        PolyError.
        """
        F = target.field
        powers: dict = {}
        work = 0

        def charge(a: dict, b: dict) -> None:
            nonlocal work
            work += len(a) * len(b)
            if work > MAX_PRODUCT_WORK:
                raise PolyError(f"substitution needs more than {MAX_PRODUCT_WORK} "
                                "term pairs")

        def multiply(a: Polynomial, b: Polynomial) -> Polynomial:
            charge(a.terms, b.terms)
            return a * b

        def power(i: int, k: int) -> dict:
            if (i, k) not in powers:
                v = self.ring.variables[i]
                img = images[v] if v in images else target.var(v)
                if img.ring != target:
                    raise PolyError("substitution image in wrong ring")
                powers[(i, k)] = (img if k == 1 else _power(img, k, multiply)).terms
            return powers[(i, k)]

        one = (0,) * target.nvars
        out: dict = {}
        for e, c in self.terms.items():
            term = {one: c}
            for i, k in enumerate(e):
                if k:
                    pk = power(i, k)
                    charge(term, pk)
                    term = _mul_terms(term, pk, F)
            _add_terms(out, term.items(), F)
        return Polynomial(target, out)

    def rename_into(self, target: PolyRing, renaming: dict[str, str] | None = None) -> "Polynomial":
        """Variable-by-name transport into another ring.

        The renaming need not be injective; colliding monomials are added.
        """
        renaming = renaming or {}
        idx = [target.var_index(renaming.get(v, v)) for v in self.ring.variables]

        def moved(e):
            ne = [0] * target.nvars
            for i, k in enumerate(e):
                if k:
                    ne[idx[i]] += k
            return tuple(ne)

        return Polynomial(target, _add_terms(
            {}, ((moved(e), c) for e, c in self.terms.items()), target.field))

    def evaluate(self, point: dict[str, object]):
        """Value at a point given as {var name: field element}."""
        F = self.ring.field
        coords = []
        for v in self.ring.variables:
            if v not in point:
                raise PolyError(f"point does not assign variable {v!r}")
            coords.append(point[v])
        total = F.zero()
        for e, c in self.terms.items():
            val = c
            for i, k in enumerate(e):
                for _ in range(k):
                    val = F.mul(val, coords[i])
            total = F.add(total, val)
        return total

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        F = self.ring.field
        pieces = []
        for e, c in self.sorted_terms():
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(self.ring.variables[i])
                elif k > 1:
                    factors.append(f"{self.ring.variables[i]}^{k}")
            cs = F.to_str(c)
            if factors:
                body = "*".join(factors)
                if cs == "1":
                    text = body
                elif cs == "-1":
                    text = f"-{body}"
                else:
                    text = f"{cs}*{body}"
            else:
                text = cs
            pieces.append(text)
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out


def fresh_names(wanted, taken, suffix: str) -> list[str]:
    """Each wanted name, with `suffix` appended until it differs from every
    name in `taken` and from every name returned before it."""
    taken = set(taken)
    out = []
    for name in wanted:
        while name in taken:
            name += suffix
        taken.add(name)
        out.append(name)
    return out


def stable_str(p: Polynomial) -> str:
    """Render with graded reverse-lex term order, whatever the ring uses.

    Reports that must be byte-identical across ambient order choices go
    through this instead of str().
    """
    order = p.ring.order
    if order.name == "degrevlex":
        return str(p)
    clone = PolyRing(p.ring.field, p.ring.variables, MonomialOrder())
    return str(p.rename_into(clone))


# -- parsing -----------------------------------------------------------

_OPS = set("+-*^()/,=")

# Each level of parentheses costs the recursive parser four stack frames;
# this bound keeps the deepest accepted input well inside the interpreter's
# default recursion limit.
MAX_NESTING = 100

# Powers are computed while parsing, and `evaluate` multiplies once per unit
# of exponent, so an exponent past this bound is refused at its column.
MAX_EXPONENT = 1000

# Products are computed while parsing too.  A product of a and b costs
# |a|*|b| term pairs; summed over one parse (each `*`, and each squaring and
# multiply inside a `^`), the pairs may not pass this bound, or the parse is
# refused at the column of the operator that would pass it.  One
# `Polynomial.substitute` call is held to the same bound, summed over its
# products and the products inside each power of an image.
MAX_PRODUCT_WORK = 100_000


def tokenize(src: str, line: int = 1, col0: int = 0):
    """Tokens: INT, NAME, or single-char operators, with positions."""
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        col = col0 + i + 1
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            tokens.append(("INT", src[i:j], line, col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("NAME", src[i:j], line, col))
            i = j
        elif ch in _OPS:
            tokens.append((ch, ch, line, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


class _PolyParser:
    """expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := ('-')* atom ('^' INT)?; atom := INT ('/' INT)? | NAME | '(' expr ')'
    with parentheses nested at most MAX_NESTING deep, exponents at most
    MAX_EXPONENT and products of at most MAX_PRODUCT_WORK term pairs in all.
    """

    def __init__(self, tokens, ring: PolyRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.depth = 0
        self.work = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            _, text, line, col = self.tokens[-1]
            raise ParseError("unexpected end of expression", line, col + len(text))
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def integer(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # past the interpreter's digit limit
            raise ParseError("integer has too many digits", tok[2], tok[3]) from None

    def multiply(self, a: Polynomial, b: Polynomial, op) -> Polynomial:
        """a * b, charged |a|*|b| term pairs before it is computed."""
        self.work += len(a.terms) * len(b.terms)
        if self.work > MAX_PRODUCT_WORK:
            raise ParseError(f"products need more than {MAX_PRODUCT_WORK} term pairs",
                             op[2], op[3])
        return a * b

    def parse(self) -> Polynomial:
        p = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in "+-":
                return p
            self.next()
            q = self.term()
            p = p + q if tok[0] == "+" else p - q

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "*":
                return p
            self.next()
            p = self.multiply(p, self.factor(), tok)

    def factor(self) -> Polynomial:
        negate = False
        while (tok := self.peek()) is not None and tok[0] == "-":
            self.next()
            negate = not negate
        p = self.atom()
        tok = self.peek()
        if tok is not None and tok[0] == "^":
            self.next()
            exp = self.expect("INT")
            n = self.integer(exp)
            if n > MAX_EXPONENT:
                raise ParseError(f"exponent larger than {MAX_EXPONENT}", exp[2], exp[3])
            p = _power(p, n, lambda a, b: self.multiply(a, b, tok))
        return -p if negate else p

    def atom(self) -> Polynomial:
        tok = self.next()
        if tok[0] == "INT":
            num = self.integer(tok)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "/":
                self.next()
                den = self.expect("INT")
                try:
                    c = self.ring.field.fraction(num, self.integer(den))
                except FieldError as exc:
                    raise ParseError(str(exc), den[2], den[3]) from None
                return self.ring.const(c)
            return self.ring.from_int(num)
        if tok[0] == "NAME":
            if tok[1] not in self.ring._var_index:
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2], tok[3])
            return self.ring.var(tok[1])
        if tok[0] == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested more than {MAX_NESTING} deep",
                                 tok[2], tok[3])
            self.depth += 1
            p = self.expr()
            self.depth -= 1
            self.expect(")")
            return p
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])


def parse_polynomial(src: str, ring: PolyRing, line: int = 1, col0: int = 0) -> Polynomial:
    tokens = tokenize(src, line, col0)
    if not tokens:
        raise ParseError("empty polynomial", line, col0 + 1)
    return _PolyParser(tokens, ring).parse()
