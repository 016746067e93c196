"""Dense exact linear algebra over a FieldSpec.

Plain Gaussian elimination on integer representatives; matrices at the
scales handled here stay well under 64x64, so no fraction-free or sparse
machinery is warranted. Column indices in the public API are 1-based to
match coordinate-set conventions used throughout the package.

Single matrices are reduced in scalar Python (`rank`, reduced bases);
many small matrices at once go through `_batch_rref`, the one batched
elimination, on the field's numpy kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange
from .gf import FieldSpec

__all__ = [
    "Matrix",
    "ColumnSet",
    "rank",
    "in_span",
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


def _canon_vector(field: FieldSpec, v: Vector, length: Optional[int] = None) -> list[int]:
    out = [field.canon(index(x)) for x in v]
    if length is not None and len(out) != length:
        raise DimensionMismatch(f"expected length {length}, got {len(out)}")
    return out


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


@dataclass(frozen=True)
class ColumnSet:
    """Strictly increasing 1-based column indices."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = 0
        for i in self.indices:
            if i <= prev:
                raise IndexOutOfRange(
                    f"column indices must be strictly increasing and >= 1, got {self.indices}")
            prev = i

    @classmethod
    def of(cls, indices: Iterable[int]) -> "ColumnSet":
        seq = sorted(int(i) for i in indices)
        if len(set(seq)) != len(seq):
            raise IndexOutOfRange(f"duplicate column index in {seq}")
        return cls(tuple(seq))

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)


def _as_indices(cols: Union[ColumnSet, Iterable[int], None], m: "Matrix") -> tuple[int, ...]:
    if cols is None:
        return tuple(range(1, m.cols + 1))
    if isinstance(cols, ColumnSet):
        idx = cols.indices
    else:
        idx = ColumnSet.of(cols).indices
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
        canon = [_canon_vector(field, c) for c in cols_data]
        height = len(canon[0]) if canon else 0
        return cls(field, [[c[i] for c in canon] for i in range(height)])

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

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

    def columns(self, cols: Union[ColumnSet, Iterable[int], None] = None) -> list[tuple[int, ...]]:
        return [self._columns[j - 1] for j in _as_indices(cols, self)]

    def row_data(self) -> tuple[tuple[int, ...], ...]:
        return self._data

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [list(c) for c in self._columns])

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

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "rows": self.rows,
            "cols": self.cols,
            "data": [list(r) for r in self._data],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Matrix":
        field = FieldSpec.from_json(data["field"])
        m = cls(field, data["data"])
        if m.rows != data["rows"] or m.cols != data["cols"]:
            raise DimensionMismatch("declared shape does not match data")
        return m


def rank(m: Matrix, cols: Union[ColumnSet, Iterable[int], None] = None) -> int:
    """Rank of the selected column submatrix (all columns when cols is None)."""
    idx = _as_indices(cols, m)
    basis: Basis = []
    for j in idx:
        extend_basis(m.field, basis, m.column(j))
    return len(basis)


def in_span(v: Vector, basis_cols: Union[ColumnSet, Iterable[int]], m: Matrix) -> bool:
    """True iff v lies in the span of the selected columns."""
    vec = _canon_vector(m.field, v, m.rows)
    basis = reduced_basis(m.field, (m.column(j) for j in _as_indices(basis_cols, m)))
    return not any(reduce_vector(m.field, basis, vec))


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
        block = R[sel]
        kern.fms(block, factors[:, :, None], pivrow[:, None, :])
        R[sel] = block
        piv_col[sel, ld] = c
        lead[sel] = ld + 1
    return piv_col, lead
