import json
import random
from itertools import product

import numpy as np
import pytest
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from lrcodes.codefile import CodeFile
from lrcodes.construct import LrcCode
from lrcodes.covers import CoverSet
from lrcodes.errors import DimensionMismatch, IndexOutOfRange
from lrcodes.gf import field_kernel, field_make
from lrcodes.linalg import (
    Matrix,
    _annihilate,
    _as_indices,
    extend_basis,
    rank,
    reduce_vector,
    reduced_basis,
)
from lrcodes.params import CodeParams

from nullspace_oracle import batch_nullspace, row_spaces


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
    assert rank(Matrix(f, [[int(i == j) for j in range(6)] for i in range(6)])) == 6
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
    # a code file stores its generator; a shape that disagrees with the
    # data is refused there (tests/test_codefile.py)
    for f in (field_make(499), field_make(2, 2)):
        m = Matrix(f, [[1, 2, 3], [0, 1, f.q - 1]])
        code = LrcCode(field=f, generator=m, structure=CoverSet(3, [[1, 2, 3]]),
                       params=CodeParams(3, 2, 2, 2), claimed_d=2)
        stored = CodeFile(code=code, seed=None, tool_version="", created_at="")
        back = CodeFile.from_json(json.loads(json.dumps(stored.to_json()))).code
        assert back.generator == m and back.generator.field == f


def test_from_columns_rejects_ragged_columns():
    f = field_make(7)
    assert Matrix.from_columns(f, [[1, 9], [2, 3]]).row_data() == ((1, 2), (2, 3))
    for cols in ([[1], [2, 3]], [[1, 2], [3]]):
        with pytest.raises(DimensionMismatch, match="ragged columns"):
            Matrix.from_columns(f, cols)


def test_as_indices_sorts_and_checks_columns():
    m = Matrix(field_make(5), [[1, 2, 3, 4]])
    assert _as_indices([3, 1, 2], m) == (1, 2, 3)
    assert _as_indices(None, m) == (1, 2, 3, 4)
    assert _as_indices([], m) == ()
    for bad in ([1, 1, 2], [0, 1], [2, 5], [-1]):
        with pytest.raises(IndexOutOfRange):
            _as_indices(bad, m)
    with pytest.raises(IndexOutOfRange):
        rank(m, [2, 2])
    with pytest.raises(IndexOutOfRange):
        m.columns([4, 5])


# ---------------------------------------------------------------------
# annihilator recurrence against Gauss-Jordan
# ---------------------------------------------------------------------

@pytest.mark.parametrize("f", [field_make(2, 2), field_make(11), field_make(2, 4),
                               field_make(1000003), field_make(4294967311)],
                         ids=repr)
@pytest.mark.parametrize("kk", [2, 3, 4, 5])
def test_annihilate_matches_gauss_jordan(f, kk):
    # from the identity, one column at a time (m = kk down to 2): the
    # flags are the full rank of each prefix T + c, and where T + c is
    # full the rows span its nullspace; planted zero columns, columns in
    # span(T), steps after T went deficient and full steps whose a_0 = 0
    # must all show up
    rng = random.Random(f.q * 10 + kk)
    kern = field_kernel(f)
    N = 60
    cols = []
    planted = {"zero": 0, "in span": 0, "after deficient": 0, "pivot past a_0": 0}
    for t in range(kk - 1):
        step = []
        for i in range(N):
            roll = rng.random()
            if roll < 0.15:
                step.append((0,) * kk)
            elif roll < 0.35:
                c = [0] * kk
                for prev in cols:
                    a = rng.randrange(f.q)
                    c = [f.add(x, f.mul(a, y)) for x, y in zip(c, prev[i])]
                step.append(tuple(c))
            elif roll < 0.45:  # a_0 = 0 at the first step, from the identity
                step.append((0,) + tuple(rng.randrange(f.q) for _ in range(kk - 1)))
            else:
                step.append(tuple(rng.randrange(f.q) for _ in range(kk)))
        cols.append(step)
    # functionals-major: A is m x N x kk, a and the flags per column of N
    A = kern.array(np.broadcast_to(np.eye(kk, dtype=np.int64)[:, None], (kk, N, kk)))
    was_full = np.ones(N, dtype=bool)
    for t, step in enumerate(cols):
        c = kern.array(step)
        a = kern.matmul(A.transpose(1, 0, 2), c[:, :, None])[:, :, 0].T
        A, full = _annihilate(kern, A, a)
        assert A.shape == (kk - t - 1, N, kk) and A.dtype == kern.dtype
        T = kern.array([[cols[s][i] for s in range(t + 1)] for i in range(N)])
        want, want_full = batch_nullspace(kern, T)
        assert full.tolist() == want_full.tolist(), (f, kk, t)
        got = A.transpose(1, 0, 2)
        assert (row_spaces(kern, got[full]) == row_spaces(kern, want[full])).all()
        assert not A[:, ~full].any()
        planted["zero"] += int((was_full & ~c.any(axis=1)).sum())
        planted["in span"] += int((was_full & ~full & c.any(axis=1)).sum())
        planted["after deficient"] += int((~was_full).sum())
        planted["pivot past a_0"] += int((full & (a[0] == 0)).sum())
        was_full = full
    if kk >= 3:
        assert all(planted.values()), planted
