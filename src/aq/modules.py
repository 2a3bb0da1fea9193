"""Finitely presented modules, free complexes, and their homology.

Matrices over a presented algebra are lists of rows of ambient
polynomials acting on column vectors. Kernels and syzygies reduce to the
elimination engine in groebner.py.  The homology of a free complex C
with coefficients in a finitely presented module N is H_n(C tensor N),
presented as the subquotient ker(d_n tensor N)/im(d_{n+1} tensor N);
N = A, the algebra itself, is the default.  At a rational point,
homology with residue-field coefficients is plain exact linear algebra
over the coefficient field, and `FreeComplex.dims_through` is its only
reader: every degree through n_max from one validated point and one rank
per differential.
"""

from __future__ import annotations

from itertools import combinations

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
    out = []
    for row in m:
        nrow = []
        for entry in row:
            if isinstance(entry, str):
                entry = algebra.poly(entry)
            if isinstance(entry, int):
                entry = algebra.ring.from_int(entry)
            nrow.append(algebra.normal_form(entry))
        out.append(nrow)
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


def _canonical_vectors(vectors, rank: int, algebra: PresentedAlgebra):
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


def syzygies(vectors, rank: int, algebra: PresentedAlgebra):
    """Generators of {c : sum c_i v_i = 0 in A^rank} for column vectors v_i.

    Works over the quotient: relation multiples count as zero.
    """
    vps = []
    for vec in vectors:
        if isinstance(vec, dict):
            vps.append(vec)
        else:
            vps.append(dense_to_vp(vec))
    engine = SubmoduleEngine(algebra.ring, rank, vps, algebra.relations)
    out = [
        [algebra.normal_form(p) for p in row] for row in engine.syzygies()
    ]
    return _canonical_vectors(out, len(vps), algebra)


# -- finitely presented modules ---------------------------------------------


class FPModule:
    """Cokernel presentation: A^k --relations--> A^gens -> M -> 0."""

    def __init__(self, algebra: PresentedAlgebra, gens: int, relations=()):
        self.algebra = algebra
        self.gens = gens
        rels = []
        for rel in relations:
            vec = [algebra.normal_form(p) for p in rel]
            if len(vec) != gens:
                raise ModuleError("relation length does not match generator count")
            rels.append(vec)
        self.relations = _canonical_vectors(rels, gens, algebra)
        self._engine: SubmoduleEngine | None = None

    def _rel_engine(self) -> SubmoduleEngine:
        if self._engine is None:
            self._engine = SubmoduleEngine(
                self.algebra.ring,
                self.gens,
                [dense_to_vp(r) for r in self.relations],
                self.algebra.relations,
            )
        return self._engine

    def is_zero(self) -> bool:
        if self.gens == 0:
            return True
        engine = self._rel_engine()
        one = self.algebra.ring.one()
        return all(engine.contains({i: one}) for i in range(self.gens))

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

    Callers guarantee denominators lie in the numerator span (checked via
    the relation projection staying exact is the usual dd=0 situation).
    """
    nums = _canonical_vectors(numerators, ambient_rank, algebra)
    if not nums:
        return FPModule(algebra, 0, [])
    vecs = nums + list(denominators)
    syz = syzygies(vecs, ambient_rank, algebra)
    k = len(nums)
    relations = [row[:k] for row in syz]
    return FPModule(algebra, k, relations)


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
            a = self.differential(n)
            b = self.differential(n + 1)
            rows, _ = matrix_shape(a)
            _, cols = matrix_shape(b)
            inner = self.rank(n)
            for i in range(rows):
                for j in range(cols):
                    s = self.algebra.ring.zero()
                    for k in range(inner):
                        s = s + a[i][k] * b[k][j]
                    if not self.algebra.normal_form(s).is_zero():
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
        if coefficients is None:
            g, rels = 1, []
        elif coefficients.algebra != self.algebra:
            raise ModuleError("coefficient module over a different algebra")
        else:
            g, rels = coefficients.gens, coefficients.relations
        ambient = self.rank(n) * g
        if ambient == 0:
            return FPModule(self.algebra, 0, [])
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
            vecs = tensored_columns(n) + relation_columns(n - 1)
            syz = syzygies(vecs, self.rank(n - 1) * g, self.algebra)
            cycles = [row[:ambient] for row in syz]
        boundaries = tensored_columns(n + 1) + relation_columns(n)
        return present_subquotient(self.algebra, ambient, cycles, boundaries)

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
    basis = {n: list(combinations(range(c), n)) for n in range(c + 1)}
    index = {n: {s: i for i, s in enumerate(basis[n])} for n in basis}
    ranks = {n: len(basis[n]) for n in range(c + 1)}
    diffs = {}
    zero = algebra.ring.zero()
    field = algebra.field
    for n in range(1, c + 1):
        rows = ranks[n - 1]
        cols = ranks[n]
        mat = [[zero] * cols for _ in range(rows)]
        for j, subset in enumerate(basis[n]):
            for pos, el in enumerate(subset):
                rest = subset[:pos] + subset[pos + 1 :]
                i = index[n - 1][rest]
                sign = field.one() if pos % 2 == 0 else field.neg(field.one())
                mat[i][j] = mat[i][j] + elems[el].scale(sign)
        diffs[n] = mat
    return FreeComplex(algebra, ranks, diffs)


def koszul_homology_all_vanish(algebra, elements, max_degree=None) -> tuple[bool, dict]:
    """Check H_n(K(r)) = 0 for 1 <= n <= c; returns (all vanish, per-degree)."""
    kc = koszul_complex(algebra, elements)
    c = kc.max_degree()
    top = c if max_degree is None else min(max_degree, c)
    verdict = {}
    for n in range(1, top + 1):
        verdict[n] = kc.homology(n).is_zero()
    return all(verdict.values()), verdict
