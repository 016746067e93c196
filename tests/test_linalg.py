import random
from itertools import product

import pytest
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from lrcodes.errors import DimensionMismatch, IndexOutOfRange
from lrcodes.gf import field_make
from lrcodes.linalg import (
    ColumnSet,
    Matrix,
    extend_basis,
    in_span,
    rank,
    reduce_vector,
    reduced_basis,
)


def _random_matrix(rng, field, rows, cols):
    return Matrix(field, [[rng.randrange(field.q) for _ in range(cols)]
                          for _ in range(rows)])


def _sympy_rank(m, p):
    dm = DomainMatrix.from_list([list(r) for r in m.row_data()], GF(p))
    return dm.rank()


# ---------------------------------------------------------------------
# rank against an independent oracle
# ---------------------------------------------------------------------

def test_rank_matches_sympy_prime_fields():
    rng = random.Random(42)
    for p in (2, 3, 7, 31):
        f = field_make(p)
        for _ in range(60):
            m = _random_matrix(rng, f, rng.randrange(1, 7), rng.randrange(1, 8))
            assert rank(m) == _sympy_rank(m, p)


def test_rank_submatrix_matches_sympy():
    rng = random.Random(43)
    f = field_make(7)
    for _ in range(60):
        m = _random_matrix(rng, f, 5, 8)
        cols = sorted(rng.sample(range(1, 9), rng.randrange(1, 8)))
        sub = Matrix.from_columns(f, [m.column(j) for j in cols])
        assert rank(m, cols) == _sympy_rank(sub, 7)


def test_rank_binary_extension_by_span_counting():
    # no sympy domain for GF(4); |span| = q^rank is an independent check
    rng = random.Random(44)
    f = field_make(2, 2)
    for _ in range(40):
        m = _random_matrix(rng, f, 3, rng.randrange(1, 5))
        vectors = set()
        for coeffs in product(range(4), repeat=m.cols):
            acc = [0, 0, 0]
            for c, j in zip(coeffs, range(1, m.cols + 1)):
                col = m.column(j)
                for i in range(3):
                    acc[i] = f.add(acc[i], f.mul(c, col[i]))
            vectors.add(tuple(acc))
        assert len(vectors) == 4 ** rank(m)


def test_identity_and_degenerate_ranks():
    f = field_make(5)
    assert rank(Matrix.identity(f, 6)) == 6
    assert rank(Matrix(f, [[0, 0], [0, 0]])) == 0
    assert rank(Matrix(f, [[1, 2], [2, 4]])) == 1


# ---------------------------------------------------------------------
# reduced bases
# ---------------------------------------------------------------------

def test_rref_basis_unique_per_subspace():
    # feeding generators in any order, scaled arbitrarily, yields the
    # identical reduced basis
    rng = random.Random(45)
    f = field_make(11)
    for _ in range(40):
        vecs = [[rng.randrange(11) for _ in range(6)] for _ in range(3)]
        ref = reduced_basis(f, vecs)
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        scalars = [rng.randrange(1, 11) for _ in shuffled]
        scaled = [[f.mul(c, x) for x in v] for c, v in zip(scalars, shuffled)]
        # throw in a random combination of the generators as well
        combo = [0] * 6
        for v in vecs:
            c = rng.randrange(11)
            combo = [f.add(a, f.mul(c, x)) for a, x in zip(combo, v)]
        assert reduced_basis(f, scaled + [combo]) == ref


def test_reduce_vector_residual_is_zero_exactly_on_span():
    rng = random.Random(46)
    f = field_make(3)
    vecs = [(1, 0, 2, 0), (0, 1, 1, 0)]
    basis = reduced_basis(f, vecs)
    members = set()
    for a in range(3):
        for b in range(3):
            members.add(tuple(
                f.add(f.mul(a, x), f.mul(b, y)) for x, y in zip(*vecs)))
    for cand in product(range(3), repeat=4):
        residual = reduce_vector(f, basis, list(cand))
        assert (not any(residual)) == (cand in members)


def test_extend_basis_leaves_branch_copies_intact():
    # shallow list copies must be safe to extend independently
    f = field_make(7)
    basis = reduced_basis(f, [(1, 2, 3), (0, 1, 4)])
    snapshot = list(basis)
    branch = list(basis)
    assert extend_basis(f, branch, (5, 5, 5))
    assert basis == snapshot
    assert len(branch) == 3


# ---------------------------------------------------------------------
# Matrix container behavior
# ---------------------------------------------------------------------

def test_matrix_constructors_agree():
    f = field_make(7)
    rows = [[1, 2, 3], [4, 5, 6]]
    m = Matrix.from_rows(f, rows)
    m2 = Matrix.from_columns(f, [(1, 4), (2, 5), (3, 6)])
    assert m == m2
    assert m.row(1) == (1, 2, 3)
    assert m.column(3) == (3, 6)
    assert m.transpose().transpose() == m
    assert m.transpose().row(2) == (2, 5)


def test_matrix_rejects_bad_shapes_and_indices():
    f = field_make(7)
    with pytest.raises(DimensionMismatch):
        Matrix(f, [[1, 2], [3]])
    m = Matrix(f, [[1, 2], [3, 4]])
    with pytest.raises(IndexOutOfRange):
        m.row(0)
    with pytest.raises(IndexOutOfRange):
        m.column(3)
    with pytest.raises(IndexOutOfRange):
        rank(m, [1, 5])


def test_matrix_canonicalizes_entries():
    f = field_make(7)
    m = Matrix(f, [[-1, 8, 10]])
    assert m.row(1) == (6, 1, 3)


def test_matrix_json_round_trip():
    for f in (field_make(499), field_make(2, 2)):
        m = Matrix(f, [[1, 2, 3], [0, 1, f.q - 1]])
        back = Matrix.from_json(m.to_json())
        assert back == m and back.field == f
    bad = m.to_json()
    bad["rows"] = 5
    with pytest.raises(DimensionMismatch):
        Matrix.from_json(bad)


def test_columnset_normalization():
    cs = ColumnSet.of([3, 1, 2])
    assert cs.indices == (1, 2, 3)
    assert list(cs) == [1, 2, 3] and len(cs) == 3
    with pytest.raises(IndexOutOfRange):
        ColumnSet.of([1, 1, 2])
    with pytest.raises(IndexOutOfRange):
        ColumnSet((2, 1))
    with pytest.raises(IndexOutOfRange):
        ColumnSet.of([0, 1])


# ---------------------------------------------------------------------
# span membership
# ---------------------------------------------------------------------

def test_in_span_agrees_with_rank_growth():
    rng = random.Random(47)
    f = field_make(7)
    for _ in range(80):
        m = _random_matrix(rng, f, 4, 6)
        cols = sorted(rng.sample(range(1, 7), rng.randrange(1, 6)))
        v = [rng.randrange(7) for _ in range(4)]
        grown = Matrix.from_columns(f, [m.column(j) for j in cols] + [v])
        assert in_span(v, cols, m) == (rank(grown) == rank(m, cols))
