"""Exact linear algebra, finitely presented modules, and free complexes."""

import pytest
from hypothesis import given, settings, strategies as st

import aq.modules
from aq import linalg
from aq.fields import GF, QQ
from aq.groebner import SubmoduleEngine
from aq.modules import (
    FPModule,
    FreeComplex,
    ModuleError,
    canonical_syzygies,
    dense_to_vp,
    kernel,
    koszul_complex,
    koszul_homology_all_vanish,
    matrix_product,
    span_contains,
    syzygies,
)
from aq.orders import MonomialOrder
from aq.poly import Polynomial, PolyRing
from aq.rings import PresentedAlgebra


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
        assert all(QQ.is_zero(e) for e in linalg.mat_vec(QQ, m, v))


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
        # the first nonzero entry of d_1 . d_2 = [[0, y]], row by row
        ([["x", "y"]], [["y", "0"], ["-x", "1"]], "(0,1)"),
    ]
    for d1, d2, entry in cases:
        diffs = {n: [[A.poly(e) for e in row] for row in m]
                 for n, m in ((1, d1), (2, d2))}
        ranks = {0: len(d1), 1: len(d2), 2: len(d2[0])}
        with pytest.raises(ModuleError) as exc:
            FreeComplex(A, ranks, diffs)
        assert str(exc.value) == f"d_1 . d_2 != 0 at entry {entry}"


def test_dd_check_multiplies_only_nonzero_pairs(monkeypatch):
    names = tuple(f"x{i}" for i in range(1, 7))
    A = PresentedAlgebra(PolyRing(QQ, names), [])
    kc = koszul_complex(A, [A.poly(v) for v in names])
    pairs = 0
    for n in range(1, kc.max_degree()):
        a, b = kc.differential(n), kc.differential(n + 1)
        pairs += sum(1 for row in a for k, p in enumerate(row)
                     if not p.is_zero() for e in b[k] if not e.is_zero())
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
    a = [[A.poly("x"), A.poly("1")], [A.poly("0"), A.poly("y")]]
    b = [[A.poly("x"), A.poly("y")], [A.poly("x"), A.poly("0")]]
    assert matrix_product(A, a, b) == [[A.poly("x"), A.poly("x*y")],
                                       [A.poly("x*y"), A.poly("0")]]
    # an empty inner dimension gives the rows x cols zero matrix
    assert matrix_product(A, [[], []], [], 3) == [[A.ring.zero()] * 3] * 2


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


# -- the syzygy memo ------------------------------------------------------------


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
    """What `syzygies` computes, with no memo in the way."""
    engine = SubmoduleEngine(algebra.ring, rank,
                             [dense_to_vp(v) for v in vectors],
                             algebra.relations)
    return canonical_syzygies(engine, algebra)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([QQ, GF(5)]), st.integers(1, 2), st.data())
def test_memoised_syzygies_equal_a_fresh_elimination(field, rank, data):
    ring = PolyRing(field, ("x", "y"))
    A = PresentedAlgebra(ring, data.draw(st.lists(small_polys(ring),
                                                  max_size=1)))
    vectors = data.draw(st.lists(
        st.lists(small_polys(ring), min_size=rank, max_size=rank),
        min_size=1, max_size=3))
    expected = fresh_syzygies(vectors, rank, A)
    assert syzygies(vectors, rank, A) == expected  # a miss
    assert syzygies(vectors, rank, A) == expected  # a hit
    # the same vectors as {component: polynomial} dicts share the key
    assert syzygies([dense_to_vp(v) for v in vectors], rank, A) == expected
    assert len(A._syzygy_memo) == 1


def test_rank_and_vector_order_are_part_of_the_key():
    A = plane()
    x, y = A.poly("x"), A.poly("y")
    vectors = [[x, y], [y, x], [x * y, y * y]]
    for args in ((vectors, 2), (vectors, 3), (vectors[::-1], 2)):
        assert syzygies(*args, A) == fresh_syzygies(*args, A)
    assert len(A._syzygy_memo) == 3
    # untracked vectors are part of it too; a kernel without any reads
    # the plain key
    assert kernel(vectors, [[x, A.ring.zero()]], 2, A) == tracked_kernel(
        vectors, [[x, A.ring.zero()]], 2, A) != syzygies(vectors, 2, A)
    assert kernel(vectors, [], 2, A) == syzygies(vectors, 2, A)
    assert len(A._syzygy_memo) == 4


def test_changing_a_returned_syzygy_leaves_the_memo_alone():
    A = PresentedAlgebra(PolyRing(QQ, ("x", "y")), ["x*y"])
    vectors = [[A.poly("x")], [A.poly("y")], [A.poly("x + y")]]
    expected = fresh_syzygies(vectors, 1, A)
    first = syzygies(vectors, 1, A)
    assert first == expected and len(first) > 1
    first[0][0] = A.poly("x^5")
    first[1].append(A.poly("1"))
    first.pop()
    assert syzygies(vectors, 1, A) == expected


# -- untracked generators ---------------------------------------------------------


def tracked_kernel(columns, relations, rank, algebra):
    """`kernel` with every generator tracked: the syzygies of columns +
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
    assert kernel(columns, relations, rank, A) == tracked_kernel(
        columns, relations, rank, A)
    haystack = columns + relations
    needles = [data.draw(vectors),
               [a * ring.var("x") + b for a, b in zip(columns[0], relations[0])]]
    for needle in needles:
        assert span_contains(A, rank, haystack, [needle]) == tracked_contains(
            A, rank, haystack, needle)


def test_only_the_coefficients_that_are_read_are_tracked(monkeypatch):
    """A membership engine tracks nothing; a kernel's engine tracks its
    columns and not its relations."""
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
    assert kernel(columns, relations, 2, A)
    contains_engine, kernel_engine = built
    assert all(c < 2 for g in contains_engine._gb for c in g)
    assert all(c < 2 + len(columns) for g in kernel_engine._gb for c in g)
    assert any(c >= 2 for g in kernel_engine._gb for c in g)
