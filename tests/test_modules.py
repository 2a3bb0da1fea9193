"""Exact linear algebra, finitely presented modules, and free complexes."""

import pytest
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import aq.modules
from aq import linalg
from aq.cotangent import cotangent_from_resolution
from aq.fields import GF, QQ
from aq.groebner import SubmoduleEngine
from aq.modules import (
    FPModule,
    FreeComplex,
    ModuleError,
    canonical_syzygies,
    dense_to_vp,
    koszul_complex,
    koszul_homology_all_vanish,
    matrix_product,
    present_subquotient,
    span_contains,
    syzygies,
    transpose,
)
from aq.orders import MonomialOrder
from aq.poly import Polynomial, PolyRing
from aq.rings import PointError, PresentedAlgebra
from aq.simplicial import hypersurface_resolution
from aq.suites import run_suite


def q(n, d=1):
    return QQ.fraction(n, d)


def qmat(rows):
    return [[q(e) for e in row] for row in rows]


def plane():
    return PresentedAlgebra(PolyRing(QQ, ("x", "y")), [])


# -- linalg ---------------------------------------------------------------


def test_rref_and_rank():
    m = qmat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    red, pivots = linalg.rref(QQ, m)
    assert pivots == [0, 1]
    assert linalg.rank(QQ, m) == 2


def test_nullspace_vectors_annihilate():
    m = qmat([[1, 2, 3], [2, 4, 6]])
    basis = linalg.nullspace(QQ, m)
    assert len(basis) == 2  # rank 1, three columns
    for v in basis:
        assert all(QQ.is_zero(e) for row in linalg.mat_mul(QQ, m, [[x] for x in v])
                   for e in row)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_rank_nullity(rows):
    m = [[GF(7).from_int(e) for e in row] for row in rows]
    r = linalg.rank(GF(7), m)
    nullity = len(linalg.nullspace(GF(7), m))
    assert r + nullity == 3


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([QQ, GF(5)]), st.integers(0, 4),
       st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                max_size=4))
def test_rank_reads_rows_or_columns(field, length, rows):
    # empty lists and vectors of length 0 included
    vecs = [[field.from_int(e) for e in row[:length]] for row in rows]
    transpose = [[v[i] for v in vecs] for i in range(length)]
    assert linalg.rank(field, vecs) == linalg.rank(field, transpose)


def _scalars(field):
    """Field elements in canonical form: over QQ ints and Fractions mixed."""
    if field.characteristic:
        return st.integers(0, field.characteristic - 1)
    return st.builds(QQ.fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def _field_matrices(draw):
    """(field, rows): up to five rows of one length 0..5, many entries and
    whole rows zero."""
    field = draw(st.sampled_from([QQ, GF(2), GF(7)]))
    length = draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), _scalars(field))
    row = st.one_of(st.just([0] * length),
                    st.lists(entry, min_size=length, max_size=length))
    return field, draw(st.lists(row, max_size=5))


@settings(max_examples=150, deadline=None)
@given(_field_matrices())
@example((QQ, []))
@example((QQ, [[], []]))
@example((GF(7), [[0, 0, 0], [0, 0, 0]]))
@example((QQ, [[Fraction(1, 2), 3, Fraction(-2, 3)]]))
@example((GF(2), [[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
def test_rank_equals_the_pivot_count_of_rref(case):
    field, rows = case
    before = [row[:] for row in rows]
    assert linalg.rank(field, rows) == len(linalg.rref(field, rows)[1])
    assert rows == before  # the input is not changed


def test_rank_over_gf2_differs_from_qq():
    rows = [[1, 1], [1, -1]]
    assert linalg.rank(QQ, qmat(rows)) == 2
    m2 = [[GF(2).from_int(e) for e in row] for row in rows]
    assert linalg.rank(GF(2), m2) == 1


# -- finitely presented modules ---------------------------------------------


def test_free_module_rank_and_dims():
    A = plane()
    M = FPModule(A, 2, [])
    assert M.free_rank() == 2
    assert not M.is_zero()
    assert M.dim_at_point({"x": 0, "y": 0}) == 2


def test_cokernel_dim_varies_with_point():
    A = plane()
    x, y = A.poly("x"), A.poly("y")
    M = FPModule(A, 2, [[x, y]])
    assert M.dim_at_point({"x": 0, "y": 0}) == 2
    assert M.dim_at_point({"x": 1, "y": 2}) == 1
    assert M.free_rank() is None


def test_unit_relation_kills_module():
    A = plane()
    M = FPModule(A, 1, [[A.poly("1")]])
    assert M.is_zero()
    # zero relations are dropped by canonicalization, so this stays free
    N = FPModule(A, 1, [[A.poly("0")]])
    assert N.free_rank() == 1


def test_relation_length_checked():
    A = plane()
    with pytest.raises(ModuleError, match="relation length"):
        FPModule(A, 2, [[A.poly("x")]])


def test_quotient_algebra_relations_enter():
    # over QQ[x]/(x^2), the module A/(x) has dim 1 at the fat point
    A = PresentedAlgebra(PolyRing(QQ, ("x",)), ["x^2"])
    M = FPModule(A, 1, [[A.poly("x")]])
    assert not M.is_zero()
    assert M.dim_at_point({"x": 0}) == 1


# -- free complexes ----------------------------------------------------------


def test_differential_composition_enforced():
    A = plane()
    cases = [
        ([["1"]], [["1"]], "(0,0)"),
        # the first nonzero entry of d_1 . d_2 = [[0, y]], row by row; the
        # matrices are given by their columns
        ([["x"], ["y"]], [["y", "-x"], ["0", "1"]], "(0,1)"),
    ]
    for d1, d2, entry in cases:
        diffs = {n: [[A.poly(e) for e in col] for col in m]
                 for n, m in ((1, d1), (2, d2))}
        ranks = {0: len(d1[0]), 1: len(d2[0]), 2: len(d2)}
        with pytest.raises(ModuleError) as exc:
            FreeComplex(A, ranks, diffs)
        assert str(exc.value) == f"d_1 . d_2 != 0 at entry {entry}"


def test_a_differential_of_the_wrong_shape_is_refused():
    A = plane()
    with pytest.raises(ModuleError) as exc:
        FreeComplex(A, {0: 1, 1: 2}, {1: [[A.poly("x")]]})
    assert str(exc.value) == "differential 1 has shape 1x1, expected 1x2"


def test_dd_check_multiplies_only_nonzero_pairs(monkeypatch):
    names = tuple(f"x{i}" for i in range(1, 7))
    A = PresentedAlgebra(PolyRing(QQ, names), [])
    kc = koszul_complex(A, [A.poly(v) for v in names])
    pairs = 0
    for n in range(1, kc.max_degree()):
        a, b = kc.differential(n), kc.differential(n + 1)
        pairs += sum(1 for col in b for k, q in enumerate(col)
                     if not q.is_zero() for e in a[k] if not e.is_zero())
    products = []
    real = Polynomial.__mul__

    def counting_mul(self, other):
        products.append(other)
        return real(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    koszul_complex(A, [A.poly(v) for v in names])
    assert len(products) == pairs


def test_matrix_product_in_normal_forms():
    A = PresentedAlgebra(PolyRing(QQ, ("x", "y")), ["x^2"])
    # the rows [x, 1], [0, y] and [x, y], [x, 0], given by their columns
    a = [[A.poly("x"), A.poly("0")], [A.poly("1"), A.poly("y")]]
    b = [[A.poly("x"), A.poly("x")], [A.poly("y"), A.poly("0")]]
    assert matrix_product(A, a, b) == [[A.poly("x"), A.poly("x*y")],
                                       [A.poly("x*y"), A.poly("0")]]
    # an empty inner dimension gives the rows x cols zero matrix
    assert matrix_product(A, [], [[], [], []], 2) == [[A.ring.zero()] * 2] * 3


def test_shapes_without_columns_or_rows():
    A = plane()
    assert transpose([], 3) == [[], [], []]
    assert transpose([[], []], 0) == []
    # a factor with no columns cannot give its column length: rows does
    assert matrix_product(A, [], [[], []], 4) == [[A.ring.zero()] * 4] * 2
    assert matrix_product(A, [[A.poly("x")]], []) == []
    # a differential into degree 0 from nothing, and from degree 1 to nothing
    fc = FreeComplex(A, {0: 2, 1: 0, 2: 3}, {})
    assert fc.differential(1) == [] and fc.differential(2) == [[], [], []]
    assert fc.to_json()["differentials"] == {}


def test_koszul_ranks_are_binomial():
    A = PresentedAlgebra(PolyRing(QQ, ("x", "y", "z")), [])
    kc = koszul_complex(A, [A.poly("x"), A.poly("y"), A.poly("z")])
    assert [kc.rank(n) for n in range(4)] == [1, 3, 3, 1]


def test_koszul_on_regular_sequence_is_acyclic():
    A = plane()
    kc = koszul_complex(A, [A.poly("x"), A.poly("y")])
    assert kc.homology(1).is_zero()
    assert kc.homology(2).is_zero()
    assert not kc.homology(0).is_zero()  # the quotient survives


def test_koszul_detects_zerodivisor_pair():
    A = plane()
    vanish, per_degree = koszul_homology_all_vanish(
        A, [A.poly("x"), A.poly("x*y")])
    assert not vanish
    assert per_degree[1] is False


def test_koszul_vanish_summary_shape():
    A = plane()
    vanish, per_degree = koszul_homology_all_vanish(
        A, [A.poly("x - 1"), A.poly("y - 2")])
    assert vanish
    assert per_degree == {1: True, 2: True}


def test_homology_dims_at_point_fiberwise():
    # evaluated Koszul complex at the origin has zero differentials
    A = plane()
    kc = koszul_complex(A, [A.poly("x"), A.poly("y")])
    dims = kc.dims_through({"x": 0, "y": 0}, 2)
    assert dims == [1, 2, 1]
    # away from the vanishing locus everything dies
    dims = kc.dims_through({"x": 1, "y": 1}, 2)
    assert dims == [0, 0, 0]


def _cusp_koszul():
    ring = PolyRing(QQ, ("x", "y"))
    C = PresentedAlgebra(ring, [ring.poly("x^3 - y^2")])
    return C, koszul_complex(C, [C.poly("x"), C.poly("y")])


def test_dims_through_checks_the_point_on_every_call():
    C, kc = _cusp_koszul()
    assert kc.dims_through({"x": 1, "y": 1}, 2) == [0, 0, 0]
    for _ in range(3):
        with pytest.raises(PointError, match="not a rational point"):
            kc.dims_through({"x": 1, "y": 2}, 2)
    assert kc.dims_through({"x": 1, "y": 1}, 2) == [0, 0, 0]


def test_dims_through_ranks_each_differential_once_per_point(monkeypatch):
    C, kc = _cusp_koszul()
    real, ranked = linalg.rank, []

    def counting(field, matrix):
        ranked.append(len(matrix))
        return real(field, matrix)

    monkeypatch.setattr(linalg, "rank", counting)
    origin = C.parse_point({"x": 0, "y": 0})
    assert kc.dims_through(origin, 2) == [1, 2, 1]
    assert len(ranked) == 2  # d_1 and d_2; d_3 has no source
    # the Point, a plain dict of it and its strings read the same entry
    for same in (origin, dict(origin), {"x": "0", "y": "0"}):
        assert kc.dims_through(same, 2) == [1, 2, 1]
    assert len(ranked) == 2
    # another point has its own entries, filled as far as it is asked
    assert kc.dims_through({"x": 4, "y": 8}, 0) == [0]
    assert len(ranked) == 3
    assert kc.dims_through({"x": 4, "y": 8}, 2) == [0, 0, 0]
    assert len(ranked) == 4
    assert kc.dims_through(origin, 2) == [1, 2, 1]
    assert kc.dims_through({"x": 4, "y": 8}, 1) == [0, 0]
    assert len(ranked) == 4


def test_nullspace_without_columns_is_empty():
    assert linalg.nullspace(QQ, [[], []]) == linalg.nullspace(QQ, [], 0) == []


def test_nullspace_without_rows_is_the_unit_vectors():
    assert linalg.nullspace(QQ, [], 3) == linalg.unit_vectors(q(0), q(1), 3)
    assert linalg.unit_vectors(q(0), q(1), 2) == qmat([[1, 0], [0, 1]])


@pytest.mark.parametrize("point", [{"x": 0, "y": 0}, {"x": 1, "y": 2}])
def test_homology_with_residue_field_coefficients(point):
    # H_n(K tensor k(p)) is a k(p)-vector space of the fiberwise dimension
    A = plane()
    kc = koszul_complex(A, [A.poly("x"), A.poly("y")])
    residue = FPModule(A, 1, [[A.poly(f"x - {point['x']}")],
                              [A.poly(f"y - {point['y']}")]])
    for n in range(3):
        module = kc.homology(n, residue)
        assert module.dim_at_point(point) == kc.dims_through(point, n)[n]


def test_homology_with_the_algebra_as_coefficients():
    A = plane()
    kc = koszul_complex(A, [A.poly("x"), A.poly("x*y")])
    for n in range(3):
        assert (kc.homology(n, FPModule(A, 1, [])).to_json()
                == kc.homology(n).to_json())


def test_coefficients_over_another_algebra_are_refused():
    A = plane()
    B = PresentedAlgebra(PolyRing(QQ, ("x", "y")), [A.poly("x")])
    kc = koszul_complex(A, [A.poly("x")])
    with pytest.raises(ModuleError, match="different algebra"):
        kc.homology(0, FPModule(B, 1, []))


# -- small random polynomials ---------------------------------------------------


def small_polys(ring, max_size=2, top=2):
    """Polynomials of `ring` with exponents at most `top` and coefficients
    below 3."""
    field = ring.field
    return st.dictionaries(
        st.tuples(*(st.integers(0, top) for _ in ring.variables)),
        st.integers(-2, 2), max_size=max_size,
    ).map(lambda terms: ring.from_terms(
        {e: field.from_int(c) for e, c in terms.items()}))


def fresh_syzygies(vectors, rank, algebra):
    """The canonical syzygies of an engine that tracks every vector."""
    engine = SubmoduleEngine(algebra.ring, rank,
                             [dense_to_vp(v) for v in vectors],
                             algebra.relations)
    return canonical_syzygies(engine, algebra)


# -- vanishing without a presentation --------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([QQ, GF(5)]), st.sampled_from(["degrevlex", "lex"]),
       st.integers(1, 3), st.data())
def test_homology_is_zero_equals_the_presented_homology(field, order, c, data):
    ring = PolyRing(field, ("x", "y"), MonomialOrder(order))
    # two variables, exponents up to 1 and two terms at most: with three
    # variables and exponents up to 2, one draw ran for minutes
    polys = small_polys(ring, top=1)
    A = PresentedAlgebra(ring, data.draw(st.lists(polys, max_size=1)))
    kc = koszul_complex(A, data.draw(st.lists(polys, min_size=c, max_size=c)))
    for n in range(c + 2):
        assert kc.homology_is_zero(n) == kc.homology(n).is_zero(), n


def test_vanishing_readers_build_no_presentation(monkeypatch):
    """`present_subquotient`, as aq.modules binds it, runs only where a
    presentation is read: in hypersurface-sigma-s, once per instance for
    the free rank in degree 1."""
    presented, built = [], []
    real_present, real_init = present_subquotient, SubmoduleEngine.__init__

    def recording_present(*args):
        presented.append(args)
        return real_present(*args)

    def recording_init(self, *args):
        real_init(self, *args)
        built.append(self)

    monkeypatch.setattr(aq.modules, "present_subquotient", recording_present)
    monkeypatch.setattr(SubmoduleEngine, "__init__", recording_init)
    for name, calls in (("koszul-depth", 0), ("hypersurface-sigma-s", 10)):
        presented.clear()
        assert run_suite(name)["passed"]
        assert len(presented) == calls, name
    presented.clear()
    built.clear()
    plane = PresentedAlgebra(PolyRing(QQ, ("x", "y")), [])
    cotangent_from_resolution(hypersurface_resolution(plane, "x^3 - y^2", 4))
    assert (len(presented), len(built)) == (0, 1)


# -- untracked generators ---------------------------------------------------------


def tracked_kernel(columns, relations, rank, algebra):
    """`syzygies` with every generator tracked: the syzygies of columns +
    relations, cut to their first len(columns) entries."""
    m = len(columns)
    cut = [row[:m] for row in fresh_syzygies(list(columns) + list(relations),
                                             rank, algebra)]
    return [v for v in cut if any(not p.is_zero() for p in v)]


def tracked_contains(algebra, rank, haystack, needle):
    """Membership read off an engine that tracks the whole haystack."""
    engine = SubmoduleEngine(algebra.ring, rank,
                             [dense_to_vp(v) for v in haystack],
                             algebra.relations)
    return engine.contains(dense_to_vp(needle))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, GF(5)]), st.sampled_from(["degrevlex", "lex"]),
       st.integers(1, 3), st.data())
def test_untracked_kernels_and_membership_equal_the_tracked_ones(
        field, order, rank, data):
    ring = PolyRing(field, ("x", "y"), MonomialOrder(order))
    # exponents up to 1 and few vectors: rank-3 eliminations over QQ grow
    # fast beyond that
    polys = small_polys(ring, top=1)
    A = PresentedAlgebra(ring, data.draw(st.lists(polys, max_size=1)))
    vectors = st.lists(polys, min_size=rank, max_size=rank)
    columns = data.draw(st.lists(vectors, min_size=1, max_size=2))
    # relations anywhere, and one in each component by itself
    relations = data.draw(st.lists(vectors, max_size=2)) + [
        [data.draw(polys) if i == j else ring.zero() for i in range(rank)]
        for j in range(rank)]
    assert syzygies(columns, rank, A, untracked=relations) == tracked_kernel(
        columns, relations, rank, A)
    haystack = columns + relations
    needles = [data.draw(vectors),
               [a * ring.var("x") + b for a, b in zip(columns[0], relations[0])]]
    for needle in needles:
        assert span_contains(A, rank, haystack, [needle]) == tracked_contains(
            A, rank, haystack, needle)


def test_only_the_coefficients_that_are_read_are_tracked(monkeypatch):
    """A membership engine tracks nothing; a syzygy engine tracks its
    columns and not its untracked relations."""
    built = []

    class RecordingEngine(SubmoduleEngine):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(aq.modules, "SubmoduleEngine", RecordingEngine)
    A = PresentedAlgebra(PolyRing(QQ, ("x", "y")), ["x*y"])
    x, y = A.poly("x"), A.poly("y")
    zero = A.ring.zero()
    haystack = [[x, y], [y, zero], [zero, x * x]]
    assert span_contains(A, 2, haystack, [[x * y, y * y]])
    columns, relations = [[x, y], [y, x]], [[x, zero], [zero, y], [y, x]]
    assert syzygies(columns, 2, A, untracked=relations)
    contains_engine, kernel_engine = built
    assert all(c < 2 for g in contains_engine._gb for c in g)
    assert all(c < 2 + len(columns) for g in kernel_engine._gb for c in g)
    assert any(c >= 2 for g in kernel_engine._gb for c in g)
