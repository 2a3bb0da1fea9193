"""Simplicial polynomial algebras that are free on variables level by level.

An extension stores, for every level n up to its `max_level`, the variables
adjoined over a constant base algebra together with one AlgebraMap per face
and degeneracy operator. Every operator is keyed by one triple (kind, level,
index): ("d", n, i) is the face d_i out of level n and ("s", n, j) the
degeneracy s_j out of level n. An extension is always checked and read
through its own `max_level`; no function takes a smaller level cap. All
simplicial identities are checked exactly on generators, by comparing the
normal forms of both sides. The augmentation pi_0 is built once and kept
on the extension (`pi_0`); the augmentation maps A_n -> pi_0 and the
homotopy modules share it, and the maps collapse by iterated d_0, level n
built on level n - 1.

Each extension names in `killed` the base elements r_1..r_c it contracts
when its normalized chains are the Koszul complex K(r) over the level-0
algebra, so that pi_n = H_n(K(r)); `killed` is None when no such closed
form is known. Constructions provided:

- constant_extension: contracts nothing, killed = ();
- bar_construction / hypersurface_resolution: one new variable chain
  resolving base/(element), killed = (element,);
- kill_cycle: attach cells along monotone surjections to kill a strict
  cycle in a chosen degree; killed = (cycle,) in degree one over a
  constant extension, None otherwise;
- tensor_resolutions: levelwise tensor product over the shared base; by
  Eilenberg-Zilber its killed is the factors' concatenated.

A finite-rank simplicial vector space can be extracted by evaluating base
variables at a rational point and truncating to a monomial degree; its
Moore, unnormalized, and normalized homologies are computed exactly and
must agree, which is the main structural self-check.
"""

from __future__ import annotations

import itertools

from . import linalg
from .poly import Polynomial, PolyRing, fresh_names
from .rings import AlgebraError, AlgebraMap, PresentedAlgebra
from .modules import (FPModule, koszul_complex, matrix_columns,
                      matrix_from_columns)


class SimplicialError(AlgebraError):
    pass


# -- the ordinal category ----------------------------------------------------


class OrdinalMap:
    """Monotone map [m] -> [n], stored as the value tuple on 0..m."""

    __slots__ = ("src", "dst", "values")

    def __init__(self, src: int, dst: int, values):
        values = tuple(values)
        if len(values) != src + 1:
            raise SimplicialError("value list does not match the source ordinal")
        for v in values:
            if not (0 <= v <= dst):
                raise SimplicialError("value outside the target ordinal")
        if any(values[i] > values[i + 1] for i in range(src)):
            raise SimplicialError("map is not monotone")
        self.src = src
        self.dst = dst
        self.values = values

    def compose(self, other: "OrdinalMap") -> "OrdinalMap":
        """self after other."""
        if other.dst != self.src:
            raise SimplicialError("ordinal maps do not compose")
        return OrdinalMap(other.src, self.dst, tuple(self.values[v] for v in other.values))

    def is_surjective(self) -> bool:
        return len(set(self.values)) == self.dst + 1

    def is_identity(self) -> bool:
        return self.src == self.dst and all(self.values[i] == i for i in range(self.src + 1))

    def missing_values(self):
        hit = set(self.values)
        return [v for v in range(self.dst + 1) if v not in hit]

    def __eq__(self, other):
        return (
            isinstance(other, OrdinalMap)
            and other.src == self.src
            and other.dst == self.dst
            and other.values == self.values
        )

    def __hash__(self):
        return hash((self.src, self.dst, self.values))

    def __repr__(self):
        return f"OrdinalMap([{self.src}]->[{self.dst}], {list(self.values)})"


def coface(n: int, i: int) -> OrdinalMap:
    """The injection [n-1] -> [n] that misses i."""
    if not (0 <= i <= n):
        raise SimplicialError("coface index out of range")
    return OrdinalMap(n - 1, n, tuple(v if v < i else v + 1 for v in range(n)))


def codegeneracy(n: int, j: int) -> OrdinalMap:
    """The surjection [n+1] -> [n] that hits j twice."""
    if not (0 <= j <= n):
        raise SimplicialError("codegeneracy index out of range")
    return OrdinalMap(n + 1, n, tuple(v if v <= j else v - 1 for v in range(n + 2)))


def monotone_surjections(n: int, d: int):
    """All monotone surjections [n] ->> [d], sorted by value tuple."""
    if d > n or d < 0:
        return []
    out = []
    for ascents in itertools.combinations(range(1, n + 1), d):
        vals = []
        cur = 0
        aset = set(ascents)
        for i in range(n + 1):
            if i in aset:
                cur += 1
            vals.append(cur)
        out.append(OrdinalMap(n, d, tuple(vals)))
    out.sort(key=lambda t: t.values)
    return out


def _drop_duplicate(u: OrdinalMap, j: int) -> OrdinalMap:
    vals = u.values[: j + 1] + u.values[j + 2:]
    return OrdinalMap(u.src - 1, u.dst, vals)


# -- levelwise free extensions ------------------------------------------------


class FreeExtensionLevelwise:
    """Simplicial algebra free over a constant base in each level.

    `killed` is the tuple of base polynomials whose Koszul complex the
    normalized chains are, or None when that is unknown.
    """

    def __init__(self, base: PresentedAlgebra, max_level: int,
                 levels: dict[int, tuple[str, ...]],
                 killed: tuple[Polynomial, ...] | None):
        self.base = base
        self.max_level = max_level
        self.levels = {n: tuple(levels.get(n, ())) for n in range(max_level + 1)}
        self.killed = killed
        for n, names in self.levels.items():
            for name in names:
                if name in base.ring._var_index:
                    raise SimplicialError(
                        f"level {n} variable {name!r} collides with the base")
        self._rings: dict[int, PolyRing] = {}
        self._algebras: dict[int, PresentedAlgebra] = {}
        self._maps: dict[tuple[str, int, int], AlgebraMap] = {}
        self._pi_0: PresentedAlgebra | None = None

    # structure access

    def ring(self, n: int) -> PolyRing:
        if n not in self._rings:
            if not (0 <= n <= self.max_level):
                raise SimplicialError(f"level {n} outside 0..{self.max_level}")
            self._rings[n] = PolyRing(
                self.base.field,
                self.base.ring.variables + self.levels[n],
                self.base.ring.order,
            )
        return self._rings[n]

    def algebra(self, n: int) -> PresentedAlgebra:
        if n not in self._algebras:
            ring = self.ring(n)
            self._algebras[n] = PresentedAlgebra(
                ring, [r.rename_into(ring) for r in self.base.relations]
            )
        return self._algebras[n]

    def _target_level(self, kind: str, n: int, i: int) -> int:
        """The level that operator (kind, n, i) lands in, if it exists."""
        if kind == "d" and 1 <= n <= self.max_level and 0 <= i <= n:
            return n - 1
        if kind == "s" and 0 <= n < self.max_level and 0 <= i <= n:
            return n + 1
        raise SimplicialError(f"no operator {kind}_{i} at level {n}")

    def set_operator(self, kind: str, n: int, i: int, images: dict[str, Polynomial]):
        m = self._target_level(kind, n, i)
        if set(images) != set(self.levels[n]):
            raise SimplicialError("operator images must cover the level variables")
        self._maps[(kind, n, i)] = AlgebraMap(self.algebra(n), self.algebra(m), images)
        if kind == "d" and n == 1:
            self._pi_0 = None

    def operator(self, kind: str, n: int, i: int) -> AlgebraMap:
        op = self._maps.get((kind, n, i))
        if op is None:
            raise SimplicialError(f"no operator {kind}_{i} at level {n}")
        return op

    def pi_0(self) -> PresentedAlgebra:
        """The augmentation, built by `augmentation` once and dropped when a
        level-1 face is reassigned."""
        if self._pi_0 is None:
            self._pi_0 = augmentation(self)
        return self._pi_0

    def parse_level_element(self, n: int, source) -> Polynomial:
        if isinstance(source, Polynomial):
            if source.ring != self.ring(n):
                return source.rename_into(self.ring(n))
            return source
        return self.ring(n).poly(source)

    # validation

    def simplicial_identities_hold(self):
        """Exact generator-level check of all simplicial identities through
        `max_level`.

        Each side of an identity is a composite outer after inner, read off
        two tables built once per call, one per operator: the token of
        `apply` on each variable of its source ring.  The token of a normal
        form is the variable's index in the ring when it is a monic
        variable, and otherwise its sorted term tuple, () for zero.  The
        composite on a generator x takes the inner token of x and, when it
        is an index, reads the outer table there; any other token is
        rebuilt as a polynomial and sent through the outer map's
        `named_image`, once per (operator, token).  Reading the inner image
        as a normal form changes nothing: the outer map kills the source
        relations, so it sends a polynomial and its normal form to the same
        normal form.  Tokens are injective on the normal forms of one ring
        and both sides of an identity land in one ring, so two sides agree
        on x exactly when their tokens do.  The right side of d_i s_j = id
        is the token of the normal form of x.  Exact over every base, the
        zero ring included.  Returns (ok, failure descriptions), in identity
        order and, within one, generator order.
        """
        nbase = self.base.ring.nvars
        tables: dict = {}
        through: dict = {}

        def table(op):
            t = tables.get(op)
            if t is None:
                m = self.operator(*op)
                ring = m.source.ring
                t = tables[op] = [_token(m.apply(ring.var(v))) for v in ring.variables]
            return t

        def side(outer, inner):
            # tokens of outer after inner on the inner operator's generators
            out, m = table(outer), self.operator(*outer)
            got = []
            for t in table(inner)[nbase:]:
                if t.__class__ is int:
                    got.append(out[t])
                    continue
                key = (outer, t)
                if key not in through:
                    through[key] = _token(m.named_image(Polynomial(m.source.ring, dict(t))))
                got.append(through[key])
            return got

        identity = {n: [_token(self.algebra(n).normal_form(self.ring(n).var(x)))
                        for x in self.levels[n]]
                    for n in range(self.max_level)}
        bad = []
        for tag, n, lhs, rhs in _simplicial_identities(self.max_level):
            got = side(*lhs)
            want = identity[n] if rhs is None else side(*rhs)
            if got != want:
                bad.extend(f"{tag} on {x}" for x, g, w in
                           zip(self.levels[n], got, want) if g != w)
        return (not bad, bad)


def _token(p: Polynomial):
    """A normal form's index in its ring if it is a monic variable, else its
    sorted term tuple: injective on the polynomials of one ring."""
    terms = p.terms
    if len(terms) == 1:
        (e, c), = terms.items()
        if c == 1 and e in p.ring.unit_names:
            return e.index(1)
    return tuple(sorted(terms.items()))


def _simplicial_identities(L: int):
    """Every simplicial identity among the operators of levels 0..L, in a
    fixed order, as (tag, source level n, lhs, rhs).  Each side is an
    (outer, inner) pair of operators ("d" or "s", source level, index),
    inner applied first; rhs is None where the identity is d_i s_j = id."""
    for n in range(2, L + 1):
        for j in range(n + 1):
            for i in range(j):
                yield (f"d{i} d{j} level {n}", n,
                       (("d", n - 1, i), ("d", n, j)),
                       (("d", n - 1, j - 1), ("d", n, i)))
    for n in range(0, L - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                yield (f"s{i} s{j} level {n}", n,
                       (("s", n + 1, i), ("s", n, j)),
                       (("s", n + 1, j + 1), ("s", n, i)))
    for n in range(0, L):
        for j in range(n + 1):
            for i in range(n + 2):
                if i == j or i == j + 1:
                    rhs = None
                elif i < j:
                    rhs = (("s", n - 1, j - 1), ("d", n, i))
                else:
                    rhs = (("s", n - 1, j), ("d", n, i - 1))
                yield (f"d{i} s{j} level {n}", n,
                       (("d", n + 1, i), ("s", n, j)), rhs)


def _operators(L: int):
    """Every operator among levels 0..L once, faces first, as
    (kind, source level, index, target level)."""
    for n in range(1, L + 1):
        for i in range(n + 1):
            yield ("d", n, i, n - 1)
    for n in range(0, L):
        for j in range(n + 1):
            yield ("s", n, j, n + 1)


def apply_surjection_contravariant(ext: FreeExtensionLevelwise, u: OrdinalMap,
                                   element: Polynomial) -> Polynomial:
    """Action of a monotone surjection u: [a] ->> [b] on a level-b element,
    written as the composite of the degeneracy operators that u factors into."""
    if u.is_identity():
        return element
    j = next(i for i in range(u.src) if u.values[i] == u.values[i + 1])
    lower = apply_surjection_contravariant(ext, _drop_duplicate(u, j), element)
    return ext.operator("s", u.src - 1, j).apply(lower)


# -- constructions ------------------------------------------------------------


def constant_extension(base: PresentedAlgebra, max_level: int) -> FreeExtensionLevelwise:
    ext = FreeExtensionLevelwise(base, max_level, {}, ())
    for kind, n, i, _ in _operators(max_level):
        ext.set_operator(kind, n, i, {})
    return ext


def _bar_like(base: PresentedAlgebra, element: Polynomial,
              max_level: int) -> FreeExtensionLevelwise:
    levels = {n: tuple(f"x{n}_{k}" for k in range(n)) for n in range(1, max_level + 1)}
    ext = FreeExtensionLevelwise(base, max_level, levels, (element,))
    # xs[n]: the level-n variables, in order, as polynomials of level n
    xs = [[ext.ring(n).var(x) for x in ext.levels[n]] for n in range(max_level + 1)]
    for n in range(1, max_level + 1):
        prev = xs[n - 1]
        for i in range(n + 1):
            if i == 0:
                images = [element.rename_into(ext.ring(n - 1))] + prev
            elif i < n:
                images = prev[:i] + prev[i - 1:]
            else:
                images = prev + [ext.ring(n - 1).zero()]
            ext.set_operator("d", n, i, dict(zip(ext.levels[n], images)))
    for n in range(0, max_level):
        nxt = xs[n + 1]
        for j in range(n + 1):
            ext.set_operator("s", n, j, dict(zip(ext.levels[n], nxt[:j] + nxt[j + 1:])))
    return ext


def bar_construction(base: PresentedAlgebra, var_name: str,
                     max_level: int) -> FreeExtensionLevelwise:
    """Resolution of base/(v) obtained by freely contracting the variable v."""
    if var_name not in base.ring._var_index:
        raise SimplicialError(f"{var_name!r} is not a variable of the base")
    return _bar_like(base, base.ring.var(var_name), max_level)


def hypersurface_resolution(base: PresentedAlgebra, element, max_level: int
                            ) -> FreeExtensionLevelwise:
    """Same chain of cells as the bar construction, contracting an element."""
    if isinstance(element, str):
        element = base.poly(element)
    return _bar_like(base, base.normal_form(element), max_level)


def _cell_name(prefix: str, t: OrdinalMap) -> str:
    return prefix + "".join(str(v) for v in t.values)


def kill_cycle(ext: FreeExtensionLevelwise, cycle, degree: int
               ) -> FreeExtensionLevelwise:
    """Attach cells in the given degree killing a strict cycle, through the
    extension's own `max_level`.

    The cycle must live at level degree-1 and all its faces must vanish.
    New cells are indexed by monotone surjections [n] ->> [degree]; the only
    nonzero face of the top cell is d_0, which maps it to the cycle.
    Only a degree-one cell over a constant extension has a known closed
    form (killed = (cycle,)); every other attachment has killed = None.
    """
    d = degree
    if d < 1:
        raise SimplicialError("cells can only be attached in positive degrees")
    L = ext.max_level
    z = ext.parse_level_element(d - 1, cycle)
    if d >= 2:
        for i in range(d):
            img = ext.operator("d", d - 1, i).apply(z)
            if not img.is_zero():
                raise SimplicialError(f"face d_{i} of the cycle is nonzero: {img}")
    taken = set(ext.base.ring.variables)
    for n in range(L + 1):
        taken.update(ext.levels[n])
    prefix = "c"
    while any(_cell_name(prefix, t) in taken
              for n in range(d, L + 1) for t in monotone_surjections(n, d)):
        prefix = "c" + prefix
    cells = {n: monotone_surjections(n, d) for n in range(d, L + 1)}
    levels = {}
    for n in range(L + 1):
        extra = tuple(_cell_name(prefix, t) for t in cells.get(n, []))
        levels[n] = ext.levels[n] + extra
    killed = (z,) if d == 1 and ext.killed == () else None
    new = FreeExtensionLevelwise(ext.base, L, levels, killed)
    for kind, n, i, m in _operators(L):
        rng = new.ring(m)
        old = ext.operator(kind, n, i).images
        images = {x: old[x].rename_into(rng) for x in ext.levels[n]}
        arrow = coface(n, i) if kind == "d" else codegeneracy(n, i)
        for t in cells.get(n, []):
            v = t.compose(arrow)
            if v.is_surjective():
                images[_cell_name(prefix, t)] = rng.var(_cell_name(prefix, v))
                continue
            # t after a codegeneracy is always surjective: only faces get
            # here, and t after a coface misses exactly one value
            missing, = v.missing_values()
            if missing == 0:
                u = OrdinalMap(n - 1, d - 1,
                               tuple(w - 1 if w > 0 else w for w in v.values))
                moved = apply_surjection_contravariant(ext, u, z)
                images[_cell_name(prefix, t)] = moved.rename_into(rng)
            else:
                images[_cell_name(prefix, t)] = rng.zero()
        new.set_operator(kind, n, i, images)
    return new


def tensor_resolutions(left: FreeExtensionLevelwise, right: FreeExtensionLevelwise
                       ) -> FreeExtensionLevelwise:
    """Levelwise tensor product over the shared constant base.

    It contracts what both factors contract, when both are known.
    """
    if left.base != right.base:
        raise SimplicialError("tensor factors must share the base")
    L = min(left.max_level, right.max_level)
    left_names = set().union(*(set(left.levels[n]) for n in range(L + 1)))
    right_names = list(dict.fromkeys(
        x for n in range(L + 1) for x in right.levels[n]))
    rename = dict(zip(right_names, fresh_names(
        right_names, set(left.base.ring.variables) | left_names, "_b")))
    levels = {
        n: left.levels[n] + tuple(rename[x] for x in right.levels[n])
        for n in range(L + 1)
    }
    killed = (None if left.killed is None or right.killed is None
              else left.killed + right.killed)
    new = FreeExtensionLevelwise(left.base, L, levels, killed)
    for kind, n, i, m in _operators(L):
        rng = new.ring(m)
        lhs = left.operator(kind, n, i).images
        rhs = right.operator(kind, n, i).images
        images = {x: lhs[x].rename_into(rng) for x in left.levels[n]}
        for x in right.levels[n]:
            images[rename[x]] = rhs[x].rename_into(rng, rename)
        new.set_operator(kind, n, i, images)
    return new


# -- augmentation and homotopy ------------------------------------------------


def augmentation(ext: FreeExtensionLevelwise) -> PresentedAlgebra:
    """pi_0 = A_0 / (d_0(x) - d_1(x) : x at level 1)."""
    a0 = ext.algebra(0)
    if ext.max_level < 1:
        return a0
    diffs = []
    d0, d1 = ext.operator("d", 1, 0), ext.operator("d", 1, 1)
    for x in ext.levels[1]:
        p = d0.images[x] - d1.images[x]  # both normal forms in a0
        if not p.is_zero():
            diffs.append(p)
    return PresentedAlgebra(a0.ring, list(a0.relations) + diffs)


def augmentation_maps(ext: FreeExtensionLevelwise) -> list[AlgebraMap]:
    """The maps A_n -> pi_0 for n = 0..max_level, all into one augmentation.

    Level 0 sends each variable to its class; level n sends x to the
    level-(n-1) map applied to d_0(x), so the maps collapse by iterated d_0
    while each image is substituted once.
    """
    aug = ext.pi_0()
    maps = [AlgebraMap(ext.algebra(0), aug,
                       {x: aug.ring.var(x) for x in ext.levels[0]})]
    for n in range(1, ext.max_level + 1):
        d0, below = ext.operator("d", n, 0), maps[-1]
        # the map's constructor reduces each image in the augmentation
        maps.append(AlgebraMap(ext.algebra(n), aug, {
            x: d0.images[x].substitute(aug.ring, below.images)
            for x in ext.levels[n]}))
    return maps


def homotopy_modules(ext: FreeExtensionLevelwise, max_degree: int
                     ) -> dict[int, FPModule]:
    """Homotopy as modules over pi_0, read off the Koszul rule.

    pi_0 is returned as the free rank-one module over the augmentation.
    An extension that contracts r_1..r_c (its `killed`) has normalized
    chains K(r), the Koszul complex over the level-0 algebra, so pi_n is
    H_n(K(r)) pushed to the augmentation.  When `killed` is None only
    degree 0 is available.
    """
    aug = ext.pi_0()
    out = {0: FPModule(aug, 1, [])}
    if max_degree == 0:
        return out
    if ext.killed is None:
        raise SimplicialError(
            "homotopy beyond degree 0 needs a closed-form construction")
    kz = koszul_complex(ext.algebra(0), ext.killed)
    for n in range(1, max_degree + 1):
        h = kz.homology(n)
        out[n] = FPModule(aug, h.gens, [[p.rename_into(aug.ring) for p in rel]
                                        for rel in h.relations])
    return out


# -- finite-rank simplicial vector spaces -------------------------------------


def _monomial_basis(nvars: int, max_degree: int):
    """Exponent tuples of total degree <= max_degree, sorted."""
    out = []
    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)
    rec([], nvars, max_degree)
    out.sort(key=lambda e: (sum(e), e))
    return out


class SimplicialModuleFR:
    """Levelwise finite-dimensional simplicial vector space.

    Face and degeneracy operators are explicit matrices over the field
    (columns act on the source basis), keyed by (kind, level, index) as in
    the extension they come from.
    """

    def __init__(self, field, dims: dict[int, int],
                 operators: dict[tuple[str, int, int], list], max_level: int):
        self.field = field
        self.dims = dict(dims)
        self.operators = operators
        self.max_level = max_level

    @classmethod
    def from_extension(cls, ext: FreeExtensionLevelwise, base_point: dict,
                       max_degree: int = 2) -> "SimplicialModuleFR":
        """Evaluate base variables at a point and keep level-variable
        monomials of bounded degree, at every level through `max_level`.

        Each operator image is moved into a ring of the target level's
        variables, sending the base variables to the point; the column of a
        basis monomial is that monomial substituted by those images.
        Requires every operator image to be affine in the level variables,
        which makes the bounded-degree span an honest simplicial subspace.
        """
        L = ext.max_level
        field = ext.base.field
        pt = ext.base.parse_point(base_point)
        nbase = ext.base.ring.nvars
        rings = {n: PolyRing(field, ext.levels[n]) for n in range(L + 1)}
        bases = {n: _monomial_basis(len(ext.levels[n]), max_degree)
                 for n in range(L + 1)}
        index = {n: {e: i for i, e in enumerate(bases[n])} for n in range(L + 1)}
        dims = {n: len(bases[n]) for n in range(L + 1)}

        def operator_matrix(n: int, m: int, op: AlgebraMap):
            at_point = {b: rings[m].const(v) for b, v in pt.items()}
            affine = {}
            for x in ext.levels[n]:
                p = op.images[x]
                if any(sum(e[nbase:]) > 1 for e in p.terms):
                    raise SimplicialError(
                        "operator image is not affine in the level variables")
                affine[x] = p.substitute(rings[m], at_point)
            mat = [[field.zero()] * dims[n] for _ in range(dims[m])]
            for ci, expo in enumerate(bases[n]):
                col = rings[n].monomial(expo).substitute(rings[m], affine)
                # affine images keep the degree within max_degree
                for mono, c in col.terms.items():
                    mat[index[m][mono]][ci] = c
            return mat

        operators = {(kind, n, i): operator_matrix(n, m, ext.operator(kind, n, i))
                     for kind, n, i, m in _operators(L)}
        return cls(field, dims, operators, L)

    # identities as matrix equations

    def validate(self):
        F = self.field
        bad = []

        def eq(a, b, tag):
            if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
                bad.append(tag + " (shape)")
                return
            for r1, r2 in zip(a, b):
                for x, y in zip(r1, r2):
                    if x != y:
                        bad.append(tag)
                        return

        def composite(side):
            outer, inner = side
            return linalg.mat_mul(F, self.operators[outer], self.operators[inner])

        for tag, n, lhs, rhs in _simplicial_identities(self.max_level):
            try:
                got = composite(lhs)
                want = (linalg.unit_vectors(F.zero(), F.one(), self.dims[n])
                        if rhs is None else composite(rhs))
            except ValueError:  # a factor with the wrong number of columns
                bad.append(tag + " (shape)")
                continue
            eq(got, want, tag)
        return (not bad, bad)

    # three homology computations that must agree

    def moore_homology_dims(self, up_to: int):
        F = self.field
        basis = {}
        for n in range(0, min(up_to + 1, self.max_level) + 1):
            if n == 0:
                basis[0] = linalg.unit_vectors(F.zero(), F.one(), self.dims[0])
            else:
                mats = [self.operators[("d", n, i)] for i in range(1, n + 1)]
                basis[n] = linalg.intersect_nullspaces(F, mats, self.dims[n])
        dims = {}
        for n in range(0, up_to + 1):
            if n + 1 not in basis:
                break
            bn, bn1 = basis[n], basis[n + 1]
            if n == 0:
                knd = len(bn)
            else:
                d0b = [linalg.mat_vec(F, self.operators[("d", n, 0)], v) for v in bn]
                knd = len(bn) - linalg.rank(F, d0b)
            d0b1 = [linalg.mat_vec(F, self.operators[("d", n + 1, 0)], v) for v in bn1]
            img = linalg.rank(F, d0b1)
            dims[n] = knd - img
        return dims

    def alternating_differential(self, n: int):
        F = self.field
        rows, cols = self.dims[n - 1], self.dims[n]
        out = [[F.zero()] * cols for _ in range(rows)]
        sign = F.one()
        for i in range(n + 1):
            m = self.operators[("d", n, i)]
            for r in range(rows):
                row_m = m[r]
                row_o = out[r]
                for c in range(cols):
                    row_o[c] = F.add(row_o[c], F.mul(sign, row_m[c]))
            sign = F.neg(sign)
        return out

    def alternating_homology_dims(self, up_to: int):
        F = self.field
        dims = {}
        for n in range(0, up_to + 1):
            if n + 1 > self.max_level:
                break
            rk_n = 0 if n == 0 else linalg.rank(F, self.alternating_differential(n))
            rk_n1 = linalg.rank(F, self.alternating_differential(n + 1))
            dims[n] = self.dims[n] - rk_n - rk_n1
        return dims

    def normalized_complex(self):
        """Quotient by the degenerate subspace, with the induced differential."""
        F = self.field
        proj = {}
        qdims = {}
        reducers = {}
        for n in range(0, self.max_level + 1):
            degen = []
            if n >= 1:
                for j in range(n):
                    degen.extend(matrix_columns(self.operators[("s", n - 1, j)]))
            if not degen:
                reducers[n] = ([], [])
                qdims[n] = self.dims[n]
                continue
            # degenerate vectors as rows: rref pivots are coordinate indices
            red, pivots = linalg.rref(F, [list(v) for v in degen])
            # rows of red with pivots reduce coordinates; quotient keeps the rest
            reducers[n] = (red, pivots)
            qdims[n] = self.dims[n] - len(pivots)

        def reduce_vec(n, v):
            red, pivots = reducers[n]
            v = list(v)
            for r, p in enumerate(pivots):
                c = v[p]
                if F.is_zero(c):
                    continue
                for k in range(len(v)):
                    v[k] = F.sub(v[k], F.mul(c, red[r][k]))
            free = [i for i in range(self.dims[n]) if i not in set(pivots)]
            return [v[i] for i in free]

        diffs = {}
        for n in range(1, self.max_level + 1):
            full = self.alternating_differential(n)
            _, pivots = reducers[n]
            free_src = [i for i in range(self.dims[n]) if i not in set(pivots)]
            cols = [reduce_vec(n - 1, [row[i] for row in full])
                    for i in free_src]
            diffs[n] = matrix_from_columns(cols, qdims[n - 1])
        return qdims, diffs

    def normalized_homology_dims(self, up_to: int):
        F = self.field
        qdims, diffs = self.normalized_complex()
        dims = {}
        for n in range(0, up_to + 1):
            if n + 1 not in diffs:
                break
            rk_n = 0 if n == 0 else linalg.rank(F, diffs[n])
            rk_n1 = linalg.rank(F, diffs[n + 1])
            dims[n] = qdims[n] - rk_n - rk_n1
        return dims


# -- structural comparison of the two chain models ---------------------------


def homology_models_agree(ext: FreeExtensionLevelwise, base_point: dict,
                          max_degree: int = 2):
    """Moore, unnormalized, and normalized homology dims must coincide."""
    sm = SimplicialModuleFR.from_extension(ext, base_point, max_degree)
    ok_ids, bad = sm.validate()
    top = sm.max_level - 1
    moore = sm.moore_homology_dims(top)
    alt = sm.alternating_homology_dims(top)
    norm = sm.normalized_homology_dims(top)
    agree = moore == alt == norm
    return {
        "identities_hold": ok_ids,
        "identity_failures": bad,
        "moore": moore,
        "unnormalized": alt,
        "normalized": norm,
        "models_agree": agree,
        "ok": ok_ids and agree,
    }


def bar_kill_equivalence_holds(base: PresentedAlgebra, var_name: str,
                               max_level: int) -> bool:
    """The bar construction is the cell attachment killing the variable in
    degree one, under x{n}_{k} <-> the surjection [n]->>[1] with k+1 zeros."""
    bar = bar_construction(base, var_name, max_level)
    killed = kill_cycle(constant_extension(base, max_level),
                        base.ring.var(var_name), 1)
    # name dictionary level by level, looked up by cell position
    maps = {}
    for n in range(1, max_level + 1):
        cells = monotone_surjections(n, 1)
        for k in range(n):
            t = OrdinalMap(n, 1, (0,) * (k + 1) + (1,) * (n - k))
            maps[f"x{n}_{k}"] = killed.levels[n][cells.index(t)]
    for kind, n, i, m in _operators(max_level):
        rng = killed.ring(m)
        for x in bar.levels[n]:
            want = killed.operator(kind, n, i).images[maps[x]]
            got = bar.operator(kind, n, i).images[x].rename_into(rng, maps)
            if not killed.algebra(m).normal_form(want - got).is_zero():
                return False
    return True
