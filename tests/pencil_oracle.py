"""Functional-domain reference for the pencil scan in lrcodes.verify.

`oracle_pencils` derives the pencils as functionals: each (k-3)-prefix
gets the functionals that vanish on it by k-3 annihilator steps from the
k x k identity, and each pencil P + x, x > max(P), its two by one more.
The scan derives the values of those functionals on the columns instead,
down one tower from the generator; its (X, Y) batches must equal
psi . c on every column, bit for bit and pencil for pencil. The step is
written out here row by row, with its own choice of pivot, so that the
comparison also pins the pivot `lrcodes.linalg._annihilate` takes.

`oracle_cut` and `oracle_labelled` say which subtrees the scan cuts by
the canonical-prefix bound: under a fixed floor, and how many pencils
it labels one pencil per batch as the floor rises from its seed,
`oracle_seed_floor`.
"""

from itertools import combinations

import numpy as np

from lrcodes.linalg import rank


def annihilate_step(kern, A, c):
    """Functionals A (N x m x k) that vanish on column sets T, and one
    column c (N x k) each, to those of T + c: with a = A.c, the rows
    a_0 A_i - a_i A_0 for i >= 1, where first, if a_0 = 0 and a != 0, A_0
    becomes A_0 + A_p and a_0 becomes a_p, p a's first nonzero entry; zero
    rows where a = 0; and whether a != 0."""
    a = kern.matmul(A, c[:, :, None])[:, :, 0]
    N, m, k = A.shape
    out = kern.zeros((N, m - 1, k))
    for t in range(N):
        nonzero = np.flatnonzero(a[t] != 0)
        if nonzero.size:
            p = nonzero[0]
            first, a0 = A[t, 0].copy(), a[t, p]
            if p:
                kern.fma(first, 1, A[t, p])
            out[t] = kern.mul(A[t, 1:], a0)
            kern.fms(out[t], a[t, 1:, None], first[None])
    return out, (a != 0).any(axis=1)


def oracle_pencils(kern, columns):
    """The two functionals (N x 2 x k) that vanish on each independent
    (k-2)-subset of the n x k columns, in lexicographic order."""
    n, k = columns.shape
    eye = kern.array(np.eye(k, dtype=np.int64))
    if k == 2:  # the empty subset: every functional vanishes on it
        return eye[None]
    P = np.array(list(combinations(range(n), k - 3)), dtype=np.int64)
    P = P.reshape(len(P), k - 3)
    A = kern.array(np.repeat(eye[None], len(P), axis=0))
    for t in range(k - 3):
        A, _ = annihilate_step(kern, A, columns[P[:, t]])
    pairs = [(i, x) for i, prefix in enumerate(P)
             for x in range(prefix.max(initial=-1) + 1, n)]
    if not pairs:
        return kern.zeros((0, 2, k))
    owner, x = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    psi, full = annihilate_step(kern, A[owner], columns[x])
    return psi[full]


def _span(m, P):
    """The columns (0-based) in the span of the independent P."""
    return [c for c in range(m.cols)
            if c in P or rank(m, [i + 1 for i in P + [c]]) == len(P)]


def _most(m, T):
    """The most columns on one hyperplane through the independent T."""
    inside = _span(m, T)
    return max(len(_span(m, T + [c])) for c in range(m.cols) if c not in inside)


def oracle_seed_floor(m):
    """The distance scan's first floor on m of rank k >= 2: one above the
    most columns on one hyperplane through T0, the first independent
    (k-2)-subset."""
    T0 = []
    for c in range(m.cols):
        if len(T0) < m.rows - 2 and rank(m, [i + 1 for i in T0 + [c]]) > len(T0):
            T0.append(c)
    return _most(m, T0) + 1


def oracle_labelled(m, size=None):
    """How many pencils `_pencil_scan(m, size, R)` labels at one pencil per
    batch (k >= 2), by a depth-first walk of the independent subsets in
    lexicographic order with scalar ranks; none below rank k. P + x is cut
    when P's columns below x in span(P), plus the n - x columns from x on,
    fall below the floor at the time P is reached. The floor is size
    throughout; with no size it starts at `oracle_seed_floor` and is one
    above the most columns on one hyperplane through any pencil labelled
    so far."""
    k, n = m.rows, m.cols
    if rank(m) < k:
        return 0
    labelled = 0
    floor = size if size is not None else oracle_seed_floor(m)

    def visit(P):
        nonlocal floor, labelled
        if len(P) == k - 2:
            labelled += 1
            floor = size if size is not None else max(floor, _most(m, P) + 1)
            return
        stop = n - (k - 3 - len(P))
        inside = _span(m, P)
        for x in range(P[-1] + 1 if P else 0, stop):
            if rank(m, [i + 1 for i in P + [x]]) <= len(P):
                continue
            if sum(c < x for c in inside) + n - x < floor:
                continue
            visit(P + [x])

    visit([])
    return labelled


def oracle_cut(m, floor):
    """For each independent (k-2)-subset T of the columns, in
    lexicographic order, whether the scan keeps it under a fixed floor:
    whether every prefix P + x of T has at least floor columns below x in
    span(P) plus the n - x from x on."""
    k, n = m.rows, m.cols
    kept = []
    for T in combinations(range(n), k - 2):
        if rank(m, [i + 1 for i in T]) < k - 2:
            continue
        ok = True
        for j, x in enumerate(T):
            P = list(T[:j])
            inside = [c for c in range(x) if c in P
                      or rank(m, [i + 1 for i in P + [c]]) == len(P)]
            ok &= len(inside) + n - x >= floor
        kept.append(ok)
    return np.array(kept, dtype=bool)
