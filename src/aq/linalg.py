"""Exact linear algebra over a coefficient field.

Matrices are lists of rows of field elements and act on column vectors:
column j holds the image of the j-th source basis vector.
"""

from __future__ import annotations

from .fields import Field


def mat_copy(m):
    return [row[:] for row in m]


def zero_matrix(field: Field, rows: int, cols: int):
    z = field.zero()
    return [[z] * cols for _ in range(rows)]


def unit_vectors(zero, one, n: int):
    """The n unit vectors of length n; as rows, the identity matrix.

    `zero` and `one` may be field elements or polynomials."""
    return [[one if i == j else zero for i in range(n)] for j in range(n)]


def mat_mul(field: Field, a, b):
    """The product a*b; ValueError unless a has one column per row of b."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    if a and len(a[0]) != inner:
        raise ValueError(f"cannot multiply {rows}x{len(a[0])} by {inner}x{cols}")
    out = zero_matrix(field, rows, cols)
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if field.is_zero(aik):
                continue
            for j in range(cols):
                out[i][j] = field.add(out[i][j], field.mul(aik, b[k][j]))
    return out


def rref(field: Field, matrix):
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    m = mat_copy(matrix)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if not field.is_zero(m[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(field: Field, matrix) -> int:
    """Rank of a list of vectors of one length, read as rows or as
    columns alike (rank(M) = rank(M^T)); 0 when there are no vectors or
    they have length 0."""
    if not matrix or not matrix[0]:
        return 0
    return len(rref(field, matrix)[1])


def nullspace(field: Field, matrix, cols: int | None = None):
    """Basis of {v : Mv = 0}, one vector per free column."""
    rows = len(matrix)
    if cols is None:
        cols = len(matrix[0]) if rows else 0
    if cols == 0:
        return []
    # no rows: every column is free, and the basis is the unit vectors
    red, pivots = rref(field, matrix) if rows else ([], [])
    pivot_set = set(pivots)
    basis = []
    for fc, v in enumerate(unit_vectors(field.zero(), field.one(), cols)):
        if fc in pivot_set:
            continue
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        basis.append(v)
    return basis

