"""Functional-domain reference for the pencil scan in lrcodes.verify.

`oracle_pencils` derives the pencils as functionals: each (k-3)-prefix
gets the functionals that vanish on it by k-3 annihilator steps from the
k x k identity, and each pencil P + x, x > max(P), its two by one more.
The scan derives the values of those functionals on the columns instead,
down one tower from the generator; its (X, Y) batches must equal
psi . c on every column, bit for bit and pencil for pencil. The step is
written out here row by row, with its own choice of pivot, so that the
comparison also pins the pivot `lrcodes.linalg._annihilate` takes.
"""

from itertools import combinations

import numpy as np


def annihilate_step(kern, A, c):
    """Functionals A (N x m x k) that vanish on column sets T, and one
    column c (N x k) each, to those of T + c: with a = A.c and p its
    first nonzero entry, the rows a_p A_i - a_i A_p for i != p (zero where
    a = 0), and whether a != 0."""
    a = kern.matmul(A, c[:, :, None])[:, :, 0]
    N, m, k = A.shape
    out = kern.zeros((N, m - 1, k))
    for t in range(N):
        nonzero = np.flatnonzero(a[t] != 0)
        if nonzero.size:
            p = nonzero[0]
            rest = [i for i in range(m) if i != p]
            out[t] = kern.mul(A[t, rest], a[t, p])
            kern.fms(out[t], a[t, rest, None], A[t, p][None])
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
