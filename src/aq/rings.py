"""Presented algebras k[x_1..x_n]/(relations) and maps between them.

A PresentedAlgebra is an ambient polynomial ring plus a relation list;
elements are ambient polynomials and normal_form against the cached
reduced Groebner basis of the relations, read through its cached lead
index, gives canonical representatives.  The normal form is linear, so
it is summed from the normal forms of the monic monomials, each reduced
once and kept on the algebra.  An AlgebraMap keeps the normal forms of
its generator images, keyed by exponent tuple, and checks each source
relation through `apply`.  All of these hand out shared polynomials,
which no caller mutates.  Each object also keeps the values of its
`derived`, pure functions of it built on first use: a map its
presentations, truncation and certificates, an algebra the maps that
classification reads off it (its ground-field or ambient inclusion, and
the residue surjection of each rational point).
Rational points are variable assignments satisfying every relation; a
checked one is a read-only `Point` of its algebra.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fields import AqError, echo
from .groebner import ideal_groebner, lead_index, vp_normal_form
from .orders import MonomialOrder
from .poly import ParseError, Polynomial, PolyRing, _add_terms


class AlgebraError(AqError):
    pass


class PointError(AlgebraError):
    pass


class Point(dict):
    """A rational point of `algebra`: its variables, in order, mapped to field
    elements.  Only `parse_point` makes one, and it is read-only, so a second
    parse passes it through unchecked; `dict(point)` is a mutable copy."""

    __slots__ = ("algebra",)

    def _read_only(self, *args, **kwargs):
        raise TypeError("a Point is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def to_json(self) -> dict:
        return {v: str(c) for v, c in self.items()}


def _derived(self, build, *args):
    """`build(self, *args)`, built on first use and kept on `self` (an
    algebra or a map), freed with it; `build` must be a pure function of
    `self` and `args`.  The `derived` method of both classes."""
    key = (build, args)
    if key not in self._derived:
        self._derived[key] = build(self, *args)
    return self._derived[key]


class PresentedAlgebra:
    """The ambient ring modulo the relations, zeros dropped.

    Kept on the algebra, and freed with it: the reduced Groebner basis and
    its lead index, the normal form of each monic monomial, the parsed
    values of validated points, and the values of `derived` (the ring-wise
    map of a `regular` or `ci` report, and the residue surjection of each
    point).
    """

    def __init__(self, ring: PolyRing, relations=()):
        self.ring = ring
        rels = []
        for r in relations:
            if isinstance(r, str):
                r = ring.poly(r)
            if r.ring != ring:
                raise AlgebraError("relation from a different ambient ring")
            if not r.is_zero():
                rels.append(r)
        self.relations = tuple(rels)
        self._gb: list[Polynomial] | None = None
        self._gb_index: dict | None = None  # `lead_index` of the basis
        # content-keyed memos, freed with the algebra: the normal form of
        # each monic monomial (`normal_form`) and the parsed values of
        # validated points
        self._normal_forms: dict[tuple, Polynomial] = {}
        self._valid_points: set = set()
        self._derived: dict = {}

    # -- presentation ----------------------------------------------------

    @property
    def field(self):
        return self.ring.field

    @property
    def variables(self):
        return self.ring.variables

    def groebner(self) -> list[Polynomial]:
        """Reduced Groebner basis of the defining ideal (cached)."""
        if self._gb is None:
            self._gb = ideal_groebner(self.relations, self.ring)
        return self._gb

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical representative of p modulo the relations.

        The normal form is linear in p, so it is the sum of c times the
        normal form of x^e over the terms c*x^e of p.  Each monic monomial
        x^e is reduced against the basis the first time this algebra sees
        it and kept; a lone monic monomial gets its kept polynomial back.
        """
        ring = self.ring
        if p.ring is not ring and p.ring != ring:
            raise AlgebraError("element from a different ambient ring")
        index = self._gb_index
        if index is None:
            index = self._gb_index = lead_index(
                [{0: g} for g in self.groebner()], ring)
        if not p.terms or not index:
            return p
        memo = self._normal_forms
        field = ring.field
        one, mul = field.one(), field.mul
        out: dict = {}
        for e, c in p.terms.items():
            nf = memo.get(e)
            if nf is None:
                nf = memo[e] = vp_normal_form(
                    {0: Polynomial(ring, {e: one})}, index, ring).get(0, ring.zero())
            if len(p.terms) == 1 and c == one:
                return nf
            _add_terms(out, nf.terms.items() if c == one else
                       ((m, mul(c, k)) for m, k in nf.terms.items()), field)
        return Polynomial(ring, out)

    derived = _derived

    def is_ground_field(self) -> bool:
        return self.ring.nvars == 0

    def poly(self, source: str) -> Polynomial:
        return self.ring.poly(source)

    def with_order(self, order: MonomialOrder) -> "PresentedAlgebra":
        ring = self.ring.with_order(order)
        return PresentedAlgebra(ring, [r.rename_into(ring) for r in self.relations])

    # -- points -----------------------------------------------------------

    def parse_point(self, assignments: dict) -> Point:
        """Validate {var: value} as a rational point on this algebra.

        A `Point` of this algebra is returned as it is.  Otherwise a value
        is a string (`parse_scalar`), an int, or over QQ a Fraction; any
        other value raises `PointError` naming its variable.  The relations
        are evaluated only the first time this algebra sees a tuple of
        parsed values; a tuple that passes is kept on the algebra, one that
        fails is not, so it raises `PointError` on every call.
        """
        if isinstance(assignments, Point) and assignments.algebra is self:
            return assignments
        parsed = []
        field = self.field
        for v in self.variables:
            if v not in assignments:
                raise PointError(f"point does not assign variable {echo(v)}")
            val = assignments[v]
            if isinstance(val, int) and not isinstance(val, bool):
                val = field.from_int(val)
            elif isinstance(val, str):
                val = parse_scalar(val, field)
            elif isinstance(val, Fraction) and field.characteristic == 0:
                val = field.fraction(val.numerator, val.denominator)
            else:
                raise PointError(f"value of {echo(v)} is not a scalar of "
                                 f"{field}: {echo(repr(val), quote=False)}")
            parsed.append(val)
        point = Point(zip(self.variables, parsed))
        point.algebra = self
        if (values := tuple(parsed)) not in self._valid_points:
            for rel in self.relations:
                if not field.is_zero(rel.evaluate(point)):
                    raise PointError("not a rational point")
            self._valid_points.add(values)
        return point

    # -- identity -----------------------------------------------------------

    def describe(self) -> str:
        if not self.relations:
            if self.is_ground_field():
                return str(self.field)
            return f"{self.field}[{','.join(self.variables)}]"
        rels = ", ".join(str(r) for r in self.relations)
        return f"{self.field}[{','.join(self.variables)}]/({rels})"

    def to_json(self) -> dict:
        return {
            "field": {"kind": self.field.kind, "characteristic": self.field.characteristic},
            "variables": list(self.variables),
            "relations": [str(r) for r in self.relations],
        }

    def __eq__(self, other):
        return (
            isinstance(other, PresentedAlgebra)
            and other.ring == self.ring
            and other.relations == self.relations
        )

    def __hash__(self):
        return hash((self.ring, self.relations))

    def __repr__(self):
        return f"PresentedAlgebra({self.describe()})"


class AlgebraMap:
    """Map of presented algebras, one image per source variable.

    Images live in the target's ambient ring; well-definedness (relations
    map into the target ideal) is checked eagerly, each relation through
    `apply`.  Kept on the map, and freed with it: the normal forms of the
    generator images, keyed by exponent tuple (`apply`), and the values of
    `derived` (presentations, truncation, certificates).
    """

    def __init__(self, source: PresentedAlgebra, target: PresentedAlgebra,
                 images: dict[str, Polynomial] | None = None):
        self.source = source
        self.target = target
        imgs = {}
        self._generator_images: dict[tuple, Polynomial] = {}
        images = images or {}
        for e, v in source.ring.unit_names.items():
            if v in images:
                img = images[v]
                if isinstance(img, str):
                    img = target.poly(img)
                imgs[v] = self._generator_images[e] = target.normal_form(img)
            else:
                # omitted images default to the same-named target variable
                if v not in target.ring._var_index:
                    raise AlgebraError(
                        f"no image given for {echo(v)} and target has no such variable"
                    )
                imgs[v] = target.ring.var(v)
        self.images = imgs
        self._derived: dict = {}
        bad = self.failing_relation()
        if bad is not None:
            raise AlgebraError("map does not kill source relation "
                               f"{echo(str(bad), quote=False)}")

    def failing_relation(self):
        for rel in self.source.relations:
            if not self.apply(rel).is_zero():
                return rel
        return None

    def apply(self, p: Polynomial) -> Polynomial:
        """Image of a source element, normalized in the target.

        The ring is checked by identity first, by equality only if that
        fails.  Zero goes to the target's zero.  A generator (one term of
        total degree 1 with coefficient one) is read from a per-map table
        of the normal forms of the images, keyed by exponent tuple: the
        constructor puts each given image there, already reduced, and an
        omitted image is reduced and added the first time its generator
        is applied; every other element is substituted and reduced.  An
        omitted image defaults to the same-named target variable
        unreduced, which is not canonical when a target relation has that
        variable as its lead term, so it is not stored up front (nor is a
        Groebner basis started for it).  The returned polynomial may be
        shared with the table and must not be mutated.
        """
        ring = self.source.ring
        if p.ring is not ring and p.ring != ring:
            raise AlgebraError("element from a different ambient ring")
        terms = p.terms
        if not terms:
            return self.target.ring.zero()
        if len(terms) == 1:
            (e, c), = terms.items()
            if c == 1:
                img = self._generator_images.get(e)
                if img is not None:
                    return img
                v = ring.unit_names.get(e)
                if v is not None:
                    img = self._generator_images[e] = self.target.normal_form(self.images[v])
                    return img
        img = p.substitute(self.target.ring, self.images)
        return self.target.normal_form(img)

    derived = _derived

    def is_identity_on_common(self) -> bool:
        """Each source variable that the target also has is sent to it.

        An image that is not the variable itself is compared, as a normal
        form (what `apply` gives the generator), with the normal form of
        the same-named target variable, so the answer does not depend on
        whether an image was given or omitted."""
        ring, nf = self.target.ring, self.target.normal_form
        for v in self.source.variables:
            if v in ring._var_index:
                img, x = self.images[v], ring.var(v)
                if img != x and nf(img) != nf(x):
                    return False
        return True

    def is_canonical_surjection(self) -> bool:
        """Same ambient variables, identity images: R -> R/I shape."""
        return (set(self.source.variables) == set(self.target.variables)
                and self.is_identity_on_common())

    def pullback_point(self, point: dict) -> Point:
        """Point on the source under the induced map of points."""
        return self.source.parse_point(
            {v: img.evaluate(point) for v, img in self.images.items()})

    def describe(self) -> str:
        imgs = ", ".join(f"{v} -> {self.images[v]}" for v in self.source.variables)
        return f"{self.source.describe()} --[{imgs}]--> {self.target.describe()}"

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "images": {v: str(self.images[v]) for v in self.source.variables},
        }

    def __repr__(self):
        return f"AlgebraMap({self.describe()})"


def compose(second: AlgebraMap, first: AlgebraMap) -> AlgebraMap:
    """second after first."""
    if first.target != second.source:
        raise AlgebraError("maps do not compose")
    images = {v: second.apply(first.images[v]) for v in first.source.variables}
    return AlgebraMap(first.source, second.target, images)


_SCALAR = re.compile(r"\s*([+-]?)\s*([0-9]+)\s*(?:/\s*([0-9]+)\s*)?")


def _bad_scalar(text: str) -> str:
    """The message for a bad scalar, its text stripped and echoed."""
    return f"bad scalar {echo(text.strip())}"


def parse_scalar(text: str, field):
    """Parse an optional sign, digits, then optionally '/' and digits, with
    spaces around the parts, as a field element.  Anything else, or more
    digits than `int` takes, is a ParseError; a zero denominator raises
    FieldError."""
    m = _SCALAR.fullmatch(text)
    try:
        if m is None:
            raise ValueError
        sign, num, den = m.groups()
        num, den = int(sign + num), (int(den) if den else None)
    except ValueError:  # no match, or more digits than the interpreter's limit
        raise ParseError(_bad_scalar(text)) from None
    return field.from_int(num) if den is None else field.fraction(num, den)
