"""Exact linear algebra, finitely presented modules, and free complexes."""

import pytest
from hypothesis import given, settings, strategies as st

from aq import linalg
from aq.fields import GF, QQ
from aq.modules import (
    FPModule,
    FreeComplex,
    ModuleError,
    koszul_complex,
    koszul_homology_all_vanish,
)
from aq.poly import PolyRing
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


def test_annihilator_of_generator():
    A = plane()
    M = FPModule(A, 1, [[A.poly("x")]])
    ann = M.annihilator_of_generator(0)
    assert any(str(p) == "x" for p in ann)


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
    one = A.poly("1")
    with pytest.raises(ModuleError, match=r"d_1 \. d_2 != 0"):
        FreeComplex(A, {0: 1, 1: 1, 2: 1}, {1: [[one]], 2: [[one]]})


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
    dims = [kc.homology_dim_at_point(n, {"x": 0, "y": 0}) for n in range(3)]
    assert dims == [1, 2, 1]
    # away from the vanishing locus everything dies
    dims = [kc.homology_dim_at_point(n, {"x": 1, "y": 1}) for n in range(3)]
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
        assert module.dim_at_point(point) == kc.homology_dim_at_point(n, point)


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
