"""Dense exact linear algebra over a FieldSpec.

Plain Gaussian elimination on integer representatives; matrices at the
scales handled here stay well under 64x64, so no fraction-free or sparse
machinery is warranted. Column indices in the public API are 1-based to
match coordinate-set conventions used throughout the package.

Single matrices are reduced in scalar Python (`rank`, reduced bases);
many small matrices at once go through `_batch_rref`, the one batched
elimination, on the field's numpy kernel. The functionals that vanish
on column sets are never eliminated: `_annihilate` extends a basis of
those of T to those of T + c, and their values on vectors alike, in
the functionals-major layout of both towers that step with it: the
pencil scan's, on the generator's columns, and the construction cache's,
on the vectors it walks down its stored coefficients.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange
from .gf import FieldSpec

__all__ = [
    "Matrix",
    "rank",
    "reduced_basis",
    "reduce_vector",
    "extend_basis",
]

Vector = Sequence[int]

# A reduced basis is a pivot-sorted list of (pivot_index, row) pairs where
# each row is a tuple of canonical ints, row[pivot] == 1, and every other
# basis row is zero at that pivot (reduced row echelon form). RREF bases
# are unique per subspace.
Basis = list


def _canon_vector(field: FieldSpec, v: Vector) -> list[int]:
    return [field.canon(index(x)) for x in v]


def reduce_vector(field: FieldSpec, basis: Basis, vec: Sequence[int]) -> list[int]:
    """Residual of vec after elimination against a reduced basis."""
    v = list(vec)
    for pivot, row in basis:
        c = v[pivot]
        if c:
            for i in range(pivot, len(v)):
                ri = row[i]
                if ri:
                    v[i] = field.sub(v[i], field.mul(c, ri))
    return v


def extend_basis(field: FieldSpec, basis: Basis, vec: Sequence[int]) -> bool:
    """Insert vec into the basis if independent; keeps RREF. True if rank grew."""
    v = reduce_vector(field, basis, vec)
    pivot = next((i for i, x in enumerate(v) if x), -1)
    if pivot < 0:
        return False
    lead = v[pivot]
    if lead != 1:
        inv = field.inv(lead)
        v = [field.mul(inv, x) for x in v]
    row = tuple(v)
    pos = 0
    while pos < len(basis) and basis[pos][0] < pivot:
        pos += 1
    basis.insert(pos, (pivot, row))
    # clear the new pivot from the other rows to stay fully reduced
    for idx, (p, r) in enumerate(basis):
        if p == pivot:
            continue
        c = r[pivot]
        if c:
            newr = tuple(field.sub(r[i], field.mul(c, row[i])) for i in range(len(r)))
            basis[idx] = (p, newr)
    return True


def reduced_basis(field: FieldSpec, vectors: Iterable[Sequence[int]]) -> Basis:
    """RREF basis of the span of the given vectors."""
    basis: Basis = []
    for v in vectors:
        extend_basis(field, basis, v)
    return basis


def _as_indices(cols: Optional[Iterable[int]], m: "Matrix") -> tuple[int, ...]:
    """The selected columns as sorted 1-based indices (all of them for
    None); a repeated index or one outside [1, m.cols] raises."""
    if cols is None:
        return tuple(range(1, m.cols + 1))
    idx = tuple(sorted(int(i) for i in cols))
    if len(set(idx)) != len(idx):
        raise IndexOutOfRange(f"duplicate column index in {idx}")
    if idx and (idx[0] < 1 or idx[-1] > m.cols):
        raise IndexOutOfRange(f"column index out of [1, {m.cols}]: {idx}")
    return idx


class Matrix:
    """Immutable dense matrix over a FieldSpec, entries canonical ints."""

    __slots__ = ("field", "rows", "cols", "_data", "_columns")

    def __init__(self, field: FieldSpec, rows_data: Sequence[Vector]) -> None:
        self.field = field
        canon = [_canon_vector(field, r) for r in rows_data]
        self.rows = len(canon)
        self.cols = len(canon[0]) if canon else 0
        for r in canon:
            if len(r) != self.cols:
                raise DimensionMismatch("ragged rows")
        self._data: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in canon)
        self._columns: tuple[tuple[int, ...], ...] = tuple(
            tuple(self._data[i][j] for i in range(self.rows)) for j in range(self.cols))

    @classmethod
    def from_rows(cls, field: FieldSpec, rows_data: Sequence[Vector]) -> "Matrix":
        return cls(field, rows_data)

    @classmethod
    def from_columns(cls, field: FieldSpec, cols_data: Sequence[Vector]) -> "Matrix":
        if len({len(c) for c in cols_data}) > 1:
            raise DimensionMismatch("ragged columns")
        return cls(field, list(zip(*cols_data)))

    def row(self, i: int) -> tuple[int, ...]:
        """Row by 1-based index."""
        if not 1 <= i <= self.rows:
            raise IndexOutOfRange(f"row {i} out of [1, {self.rows}]")
        return self._data[i - 1]

    def column(self, j: int) -> tuple[int, ...]:
        """Column by 1-based index."""
        if not 1 <= j <= self.cols:
            raise IndexOutOfRange(f"column {j} out of [1, {self.cols}]")
        return self._columns[j - 1]

    def columns(self, cols: Optional[Iterable[int]] = None) -> list[tuple[int, ...]]:
        return [self._columns[j - 1] for j in _as_indices(cols, self)]

    def row_data(self) -> tuple[tuple[int, ...], ...]:
        return self._data

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.field, self._data))

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"


def rank(m: Matrix, cols: Optional[Iterable[int]] = None) -> int:
    """Rank of the selected column submatrix (all columns when cols is None)."""
    idx = _as_indices(cols, m)
    basis: Basis = []
    for j in idx:
        extend_basis(m.field, basis, m.column(j))
    return len(basis)


def _batch_rref(kern, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan in place on a batch of m x kk matrices, vectorized
    across the batch. Returns each row's pivot column and each rank."""
    N, m, kk = R.shape
    piv_col = np.zeros((N, m), dtype=np.int64)
    lead = np.zeros(N, dtype=np.int64)
    row_ids = np.arange(m)
    for c in range(kk):
        eligible = (R[:, :, c] != 0) & (row_ids[None, :] >= lead[:, None])
        sel = np.flatnonzero(eligible.any(axis=1))
        if sel.size == 0:
            continue
        fr = np.argmax(eligible[sel], axis=1)
        ld = lead[sel]
        R[sel, fr], R[sel, ld] = R[sel, ld], R[sel, fr]
        pivrow = kern.mul(R[sel, ld], kern.inv(R[sel, ld, c])[:, None])
        R[sel, ld] = pivrow
        factors = R[sel, :, c]
        factors[np.arange(sel.size), ld] = 0
        if sel.size == N:
            # every matrix has a pivot here: eliminate in place, no gather
            kern.fms(R, factors[:, :, None], pivrow[:, None, :])
        else:
            block = R[sel]
            kern.fms(block, factors[:, :, None], pivrow[:, None, :])
            R[sel] = block
        piv_col[sel, ld] = c
        lead[sel] = ld + 1
    return piv_col, lead


def _annihilate(kern, A: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One annihilator step: rows A (m x N x l) and their coefficients a
    (m x N) on a new column c, to the m-1 rows a_0 A_i - a_i A_0, i >= 1,
    and the mask a != 0. For functionals A that vanish on T, a = A.c and
    the rows vanish on T + c, of full rank iff T is and a != 0; for their
    values on the columns, a is those at c. Where a_0 = 0 and a != 0, A_0
    is first replaced by A_0 + A_p and a_0 by a_p, with p a's first nonzero
    entry: a change of basis. Where a = 0 the rows are zero, and stay so
    (a = 0) in every later step."""
    full = a[0] != 0
    fix = np.flatnonzero(~full)
    nonzero = a[1:, fix] != 0
    full[fix] = live = nonzero.any(axis=0)
    fix, p = fix[live], 1 + nonzero[:, live].argmax(axis=0)
    a0, A0 = a[0], A[0]
    if fix.size:
        a0, A0 = a0.copy(), A0.copy()
        a0[fix] = a[p, fix]
        shifted = A0[fix]
        kern.fma(shifted, 1, A[p, fix])
        A0[fix] = shifted
    return kern.cross(A[1:], a0[:, None], a[1:, :, None], A0), full
