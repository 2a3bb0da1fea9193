"""Presented algebras k[x_1..x_n]/(relations) and maps between them.

A PresentedAlgebra is an ambient polynomial ring plus a relation list;
elements are ambient polynomials and normal_form against the cached
reduced Groebner basis of the relations, read through its cached lead
index, gives canonical representatives.  The normal form is linear, so
it is summed from the normal forms of the monic monomials, each reduced
once and kept on the algebra.  An AlgebraMap keeps the normal forms of
its generator images, keyed by exponent tuple.  The target algebra also
keeps the images that maps into it give through `named_image` (each
map's relation check among them), keyed by what fixes the image, and
frees them with itself.  All of these hand out shared polynomials, which
no caller mutates.  Each object also keeps the values of its `derived`,
pure functions of it built on first use: a map its presentations,
truncation and certificates, an algebra the maps that classification
reads off it (its ground-field or ambient inclusion, and the residue
surjection of each rational point).
Rational points are variable assignments satisfying every relation.
"""

from __future__ import annotations

from .groebner import ideal_groebner, lead_index, vp_normal_form
from .orders import MonomialOrder
from .poly import ParseError, Polynomial, PolyRing, _add_terms


class AlgebraError(ValueError):
    pass


class PointError(AlgebraError):
    pass


class PresentedAlgebra:
    """The ambient ring modulo the relations, zeros dropped.

    Kept on the algebra, and freed with it: the reduced Groebner basis and
    its lead index, the normal form of each monic monomial, the parsed
    values of validated points, the images of `named_image`, and the
    values of `derived` (the ring-wise map of a `regular` or `ci` report,
    and the residue surjection of each point).
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
        # images of source elements under maps into this algebra, keyed by
        # what fixes them (`AlgebraMap.named_image`)
        self._named_images: dict[tuple, Polynomial] = {}
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

    def derived(self, build, *args):
        """`build(self, *args)`, built on first use and kept on the algebra;
        `build` must be a pure function of the algebra and `args`."""
        key = (build, args)
        if key not in self._derived:
            self._derived[key] = build(self, *args)
        return self._derived[key]

    def is_ground_field(self) -> bool:
        return self.ring.nvars == 0

    def poly(self, source: str) -> Polynomial:
        return self.ring.poly(source)

    def with_order(self, order: MonomialOrder) -> "PresentedAlgebra":
        ring = self.ring.with_order(order)
        return PresentedAlgebra(ring, [r.rename_into(ring) for r in self.relations])

    # -- points -----------------------------------------------------------

    def parse_point(self, assignments: dict) -> dict:
        """Validate {var: value} as a rational point on this algebra.

        Every call parses the values and returns a fresh dict.  The
        relations are evaluated only the first time this algebra sees a
        tuple of parsed values; a tuple that passes is kept on the algebra,
        one that fails is not, so it raises `PointError` on every call.
        """
        point = {}
        field = self.field
        for v in self.variables:
            if v not in assignments:
                raise PointError(f"point does not assign variable {v!r}")
            val = assignments[v]
            if isinstance(val, str):
                val = parse_scalar(val, field)
            elif isinstance(val, int):
                val = field.from_int(val)
            point[v] = val
        values = tuple(point.values())
        if values not in self._valid_points:
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
    map into the target ideal) is checked eagerly, through `named_image`,
    so each distinct relation check runs once per target algebra.  Kept on
    the map, and freed with it: the normal forms of the generator images,
    keyed by exponent tuple (`apply`), and the values of `derived`
    (presentations, truncation, certificates).  Kept on the target, and
    freed with the target: the values of `named_image`.
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
                        f"no image given for {v!r} and target has no such variable"
                    )
                imgs[v] = target.ring.var(v)
        self.images = imgs
        self._derived: dict = {}
        bad = self.failing_relation()
        if bad is not None:
            raise AlgebraError(f"map does not kill source relation {bad}")

    def failing_relation(self):
        for rel in self.source.relations:
            if not self.named_image(rel).is_zero():
                return rel
        return None

    def named_image(self, p: Polynomial) -> Polynomial:
        """`apply(p)`, kept on the target algebra.

        The image depends only on the source variables p names, p's terms
        over them and this map's images of them, so that triple is the key
        and every map into the target that agrees on it reads the same
        entry.  A call that raises stores nothing.
        """
        ring = self.source.ring
        if p.ring is not ring and p.ring != ring:
            raise AlgebraError("element from a different ambient ring")
        used = [i for i in range(ring.nvars) if any(e[i] for e in p.terms)]
        names = tuple(ring.variables[i] for i in used)
        key = (names,
               tuple(sorted((tuple(e[i] for i in used), c) for e, c in p.terms.items())),
               tuple(tuple(sorted(self.images[v].terms.items())) for v in names))
        memo = self.target._named_images
        img = memo.get(key)
        if img is None:
            img = memo[key] = self.apply(p)
        return img

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

    def derived(self, build, *args):
        """`build(self, *args)`, built on first use and kept on the map;
        `build` must be a pure function of the map and `args`."""
        key = (build, args)
        if key not in self._derived:
            self._derived[key] = build(self, *args)
        return self._derived[key]

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

    def pullback_point(self, point: dict) -> dict:
        """Point on the source under the induced map of points."""
        vals = {v: self.images[v].evaluate(point) for v in self.source.variables}
        return self.source.parse_point(vals)

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


def point_to_json(point: dict, algebra: PresentedAlgebra) -> dict:
    return {v: str(point[v]) for v in algebra.variables}


def parse_scalar(text: str, field):
    """Parse 'a' or 'a/b' as a field element."""
    text = text.strip()
    neg = text.startswith("-")
    if neg:
        text = text[1:].strip()
    if "/" in text:
        num, den = text.split("/", 1)
        val = field.fraction(int(num), int(den))
    else:
        if not text.lstrip("+").isdigit():
            raise ParseError(f"bad scalar {text!r}")
        val = field.from_int(int(text))
    return field.neg(val) if neg else val
