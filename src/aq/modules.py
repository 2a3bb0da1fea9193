"""Finitely presented modules, free complexes, and their homology.

Matrices over a presented algebra are lists of rows of ambient
polynomials acting on column vectors, and vectors are dense lists.
Syzygies, with some vectors untracked where only the coefficients of the
others are read, are one elimination in groebner.py per call; nothing is
kept between calls.  The homology of a free complex C with coefficients
in a finitely presented module N is H_n(C tensor N), presented as the
subquotient ker(d_n tensor N)/im(d_{n+1} tensor N); N = A, the algebra
itself, is the default.  Vanishing has one reader, `homology_is_zero`:
cycles in the span of the boundaries.  At a rational point, homology
with residue-field coefficients is exact linear algebra over the field,
and `FreeComplex.dims_through` is its only reader: every degree through
n_max from one validated point and one rank per differential.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from . import linalg
from .groebner import SubmoduleEngine, vp_lead
from .poly import Polynomial
from .rings import AlgebraError, PresentedAlgebra

Matrix = list  # list of rows of Polynomial


class ModuleError(AlgebraError):
    pass


# -- matrix helpers ------------------------------------------------------


def matrix_shape(m: Matrix) -> tuple[int, int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    return rows, cols


def zero_poly_matrix(algebra: PresentedAlgebra, rows: int, cols: int) -> Matrix:
    z = algebra.ring.zero()
    return [[z] * cols for _ in range(rows)]


def normalize_matrix(algebra: PresentedAlgebra, m: Matrix) -> Matrix:
    return [[algebra.normal_form(entry) for entry in row] for row in m]


def matrix_product(algebra: PresentedAlgebra, a: Matrix, b: Matrix,
                   cols: int | None = None) -> Matrix:
    """a . b in normal forms, multiplying only pairs of nonzero entries.

    `cols` is the column count of b, read from b unless b has no rows; a b
    without rows gives the len(a) x cols zero matrix.
    """
    if cols is None:
        cols = len(b[0]) if b else 0
    zero = algebra.ring.zero()
    b_rows = [[(j, p) for j, p in enumerate(row) if not p.is_zero()]
              for row in b]
    out = []
    for row in a:
        acc = {}
        for k, p in enumerate(row):
            if p.is_zero():
                continue
            for j, q in b_rows[k]:
                acc[j] = acc[j] + p * q if j in acc else p * q
        out_row = [zero] * cols
        for j, s in acc.items():
            out_row[j] = algebra.normal_form(s)
        out.append(out_row)
    return out


def matrix_columns(m: Matrix) -> list[list[Polynomial]]:
    rows, cols = matrix_shape(m)
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def matrix_from_columns(cols: list[list[Polynomial]], rows: int) -> Matrix:
    return [[col[i] for col in cols] for i in range(rows)]


def evaluate_matrix(m: Matrix, point: dict):
    """Entries evaluated at a point: a matrix over the coefficient field."""
    return [[entry.evaluate(point) for entry in row] for row in m]


def matrix_to_json(m: Matrix) -> list:
    return [[str(entry) for entry in row] for row in m]


def dense_to_vp(vec: list[Polynomial]):
    return {i: p for i, p in enumerate(vec) if not p.is_zero()}


def _canonical_vectors(vectors, algebra: PresentedAlgebra):
    """Normalize, dedupe, and sort dense vectors deterministically."""
    seen = set()
    cleaned = []
    for vec in vectors:
        nf = [algebra.normal_form(p) for p in vec]
        if all(p.is_zero() for p in nf):
            continue
        key = tuple(str(p) for p in nf)
        if key in seen:
            continue
        seen.add(key)
        cleaned.append(nf)
    def sort_key(vec):
        v = dense_to_vp(vec)
        c, m, _ = vp_lead(v, algebra.ring)
        return (-c, algebra.ring.order.key(m))
    cleaned.sort(key=sort_key, reverse=True)
    return cleaned


# -- kernels and syzygies --------------------------------------------------


def syzygies(vectors, rank: int, algebra: PresentedAlgebra, untracked=()):
    """Generators of {c : sum c_i v_i = 0 in A^rank} for dense column
    vectors v_i, or, with dense `untracked` vectors u_j, of
    {c : sum c_i v_i in span(u_j)}, in the canonical order.

    Works over the quotient: relation multiples count as zero.  Only the
    v_i carry tracking units.  This equals the nonzero syzygies of v + u,
    all tracked, cut to their first m = len(v) entries.  Under
    position-over-term the u_j's tracking components come last.  Cutting
    them off maps the all-tracked module N onto the module N' this
    elimination works in, and an element of N whose lead lies before them
    keeps that lead.  So the elements of N's reduced basis with their lead
    before them, cut, form a Groebner basis of N' in which no lead divides
    another term: the reduced basis of N', which is unique.  Its elements
    with no real part give both results.
    """
    return canonical_syzygies(SubmoduleEngine(
        algebra.ring, rank, map(dense_to_vp, vectors), algebra.relations,
        map(dense_to_vp, untracked)), algebra)


def canonical_syzygies(engine: SubmoduleEngine, algebra: PresentedAlgebra):
    """The syzygies an engine over the algebra holds, as normal forms,
    deduplicated and in the canonical order `syzygies` returns."""
    return _canonical_vectors(engine.syzygies(), algebra)


def span_contains(algebra: PresentedAlgebra, rank: int, haystack,
                  needles) -> bool:
    """Every needle lies in the span of the haystack in A^rank.  Nothing
    is tracked: the haystack goes into the engine untracked."""
    engine = SubmoduleEngine(algebra.ring, rank, [], algebra.relations,
                             map(dense_to_vp, haystack))
    return all(engine.contains(dense_to_vp(v)) for v in needles)


# -- finitely presented modules ---------------------------------------------


class FPModule:
    """Cokernel presentation: A^k --relations--> A^gens -> M -> 0."""

    def __init__(self, algebra: PresentedAlgebra, gens: int, relations=()):
        self.algebra = algebra
        self.gens = gens
        rels = list(relations)
        if any(len(rel) != gens for rel in rels):
            raise ModuleError("relation length does not match generator count")
        self.relations = _canonical_vectors(rels, algebra)

    def is_zero(self) -> bool:
        if self.gens == 0:
            return True
        ring = self.algebra.ring
        return span_contains(self.algebra, self.gens, self.relations,
                             linalg.unit_vectors(ring.zero(), ring.one(),
                                                 self.gens))

    def free_rank(self):
        """gens when the presentation has no nonzero relations, else None."""
        return self.gens if not self.relations else None

    def dim_at_point(self, point: dict) -> int:
        """dim over k of M tensor k(point)."""
        pt = self.algebra.parse_point(point)
        if self.gens == 0:
            return 0
        cols = evaluate_matrix(self.relations, pt)
        return self.gens - linalg.rank(self.algebra.field, cols)

    def presentation_matrix(self) -> Matrix:
        """gens x (#relations) matrix whose columns are the relations."""
        return matrix_from_columns(self.relations, self.gens)

    def to_json(self) -> dict:
        return {
            "generators": self.gens,
            "relations": [[str(p) for p in rel] for rel in self.relations],
        }

    def __repr__(self):
        return f"FPModule(gens={self.gens}, rels={len(self.relations)} over {self.algebra.describe()})"


def present_subquotient(algebra, ambient_rank, numerators, denominators) -> FPModule:
    """Presentation of (span numerators)/(span denominators) in A^ambient_rank.

    The denominators D go in untracked, so this presents (N + D)/D, that
    is N/(N meet D), for the numerator span N and any D whatever.
    """
    nums = _canonical_vectors(numerators, algebra)
    if not nums:
        return FPModule(algebra, 0, [])
    return FPModule(algebra, len(nums), syzygies(
        nums, ambient_rank, algebra, untracked=denominators))


# -- free complexes ----------------------------------------------------------


class FreeComplex:
    """Bounded complex of free modules; diffs[n] maps degree n to n-1.

    dd = 0 is checked on construction.
    """

    def __init__(self, algebra: PresentedAlgebra, ranks: dict[int, int],
                 diffs: dict[int, Matrix]):
        self.algebra = algebra
        self.ranks = {n: r for n, r in ranks.items() if r > 0}
        self.diffs = {}
        for n, m in diffs.items():
            mat = normalize_matrix(algebra, m)
            rows, cols = matrix_shape(mat)
            if rows != self.rank(n - 1) or cols != self.rank(n):
                raise ModuleError(
                    f"differential {n} has shape {rows}x{cols}, expected "
                    f"{self.rank(n - 1)}x{self.rank(n)}"
                )
            self.diffs[n] = mat
        self.check_dd_zero()

    def degrees(self):
        return sorted(self.ranks)

    def max_degree(self) -> int:
        return max(self.ranks) if self.ranks else 0

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def differential(self, n: int) -> Matrix:
        if n in self.diffs:
            return self.diffs[n]
        return zero_poly_matrix(self.algebra, self.rank(n - 1), self.rank(n))

    def check_dd_zero(self):
        for n in list(self.diffs):
            if self.rank(n + 1) == 0 or self.rank(n - 1) == 0:
                continue
            product = matrix_product(self.algebra, self.differential(n),
                                     self.differential(n + 1))
            for i, row in enumerate(product):
                for j, entry in enumerate(row):
                    if not entry.is_zero():
                        raise ModuleError(f"d_{n} . d_{n + 1} != 0 at entry ({i},{j})")

    def homology(self, n: int, coefficients: FPModule | None = None) -> FPModule:
        """H_n(C tensor N) = ker(d_n tensor N)/im(d_{n+1} tensor N).

        N is `coefficients`, a module over this complex's algebra with g
        generators, or the algebra itself (g = 1, no relations) for None.
        C_n tensor N is presented on rank(n) * g generators, where slot j,
        generator t of N sits at index j * g + t.  Cycles are the syzygies
        of the columns of d_n tensor id_N together with the relations of N
        in every slot of degree n - 1; the boundaries are the columns of
        d_{n+1} tensor id_N and the relations of N in degree n.
        """
        return present_subquotient(self.algebra,
                                   *self._cycles_and_boundaries(n, coefficients))

    def homology_is_zero(self, n: int) -> bool:
        """H_n(C) = 0: every cycle lies in the span of the boundaries."""
        ambient, cycles, boundaries = self._cycles_and_boundaries(n)
        return not cycles or span_contains(self.algebra, ambient, boundaries,
                                           cycles)

    def _cycles_and_boundaries(self, n: int, coefficients=None):
        """rank(C_n tensor N) and its cycles and boundaries, as in `homology`."""
        if coefficients is None:
            g, rels = 1, []
        elif coefficients.algebra != self.algebra:
            raise ModuleError("coefficient module over a different algebra")
        else:
            g, rels = coefficients.gens, coefficients.relations
        ambient = self.rank(n) * g
        if ambient == 0:
            return 0, [], []
        zero, one = self.algebra.ring.zero(), self.algebra.ring.one()

        def tensored_columns(k: int):
            """Columns of d_k tensor id_N."""
            mat = self.differential(k)
            cols = []
            for j in range(self.rank(k)):
                for t in range(g):
                    col = [zero] * (self.rank(k - 1) * g)
                    col[t::g] = [row[j] for row in mat]
                    cols.append(col)
            return cols

        def relation_columns(k: int):
            """The relations of N, in each slot of C_k tensor N."""
            cols = []
            for slot in range(self.rank(k)):
                for rel in rels:
                    col = [zero] * (self.rank(k) * g)
                    col[slot * g:(slot + 1) * g] = rel
                    cols.append(col)
            return cols

        if self.rank(n - 1) == 0:
            # everything is a cycle; the empty matrix cannot say so
            cycles = linalg.unit_vectors(zero, one, ambient)
        else:
            cycles = syzygies(tensored_columns(n), self.rank(n - 1) * g,
                              self.algebra, untracked=relation_columns(n - 1))
        return ambient, cycles, tensored_columns(n + 1) + relation_columns(n)

    def dims_through(self, point: dict, n_max: int) -> list[int]:
        """dim_k H_n(C tensor k(point)) for n = 0..n_max; exact linear algebra.

        This is the one residue-field reader: the point is validated once
        and each differential d_1..d_{n_max+1} is ranked once, where both
        of its adjacent ranks are nonzero.
        """
        pt = self.algebra.parse_point(point)
        field = self.algebra.field
        rank_d = [0] * (n_max + 2)
        for k in range(1, n_max + 2):
            if self.rank(k - 1) and self.rank(k):
                rank_d[k] = linalg.rank(
                    field, evaluate_matrix(self.differential(k), pt))
        return [self.rank(n) - rank_d[n] - rank_d[n + 1]
                for n in range(n_max + 1)]

    def to_json(self) -> dict:
        return {
            "ring": self.algebra.to_json(),
            "ranks": {str(n): r for n, r in sorted(self.ranks.items())},
            "differentials": {
                str(n): matrix_to_json(self.differential(n))
                for n in sorted(self.diffs)
            },
        }

    def __repr__(self):
        ranks = ", ".join(f"{n}:{r}" for n, r in sorted(self.ranks.items()))
        return f"FreeComplex({ranks} over {self.algebra.describe()})"


# -- Koszul complexes ----------------------------------------------------------


def koszul_complex(algebra: PresentedAlgebra, elements) -> FreeComplex:
    """Koszul complex on r_1..r_c: rank C(c, n) in degree n, standard signs."""
    elems = []
    for e in elements:
        if isinstance(e, str):
            e = algebra.poly(e)
        elems.append(algebra.normal_form(e))
    c = len(elems)
    ranks = {n: comb(c, n) for n in range(c + 1)}
    diffs = {n: matrix_from_columns(koszul_columns(algebra.ring, elems, n),
                                    ranks[n - 1])
             for n in range(1, c + 1)}
    return FreeComplex(algebra, ranks, diffs)


def koszul_columns(ring, elements, n: int) -> list[list[Polynomial]]:
    """Columns of the degree-n Koszul differential on `elements`.

    Bases in degrees n and n - 1 are the subsets in `combinations` order;
    e_S goes to the sum over positions p of S of (-1)^p f_{S[p]} e_{S - S[p]},
    so in degree 2 the column of e_i e_j (i < j) is f_i e_j - f_j e_i.
    """
    c = len(elements)
    index = {s: i for i, s in enumerate(combinations(range(c), n - 1))}
    columns = []
    for subset in combinations(range(c), n):
        col = [ring.zero()] * len(index)
        for pos, el in enumerate(subset):
            f = elements[el]
            col[index[subset[:pos] + subset[pos + 1:]]] = -f if pos % 2 else f
        columns.append(col)
    return columns


def koszul_homology_all_vanish(algebra, elements, max_degree=None) -> tuple[bool, dict]:
    """Check H_n(K(r)) = 0 for 1 <= n <= c; returns (all vanish, per-degree)."""
    kc = koszul_complex(algebra, elements)
    c = kc.max_degree()
    top = c if max_degree is None else min(max_degree, c)
    verdict = {n: kc.homology_is_zero(n) for n in range(1, top + 1)}
    return all(verdict.values()), verdict
