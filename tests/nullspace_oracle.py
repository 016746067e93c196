"""Gauss-Jordan reference for the annihilator recurrence in lrcodes.linalg.

`batch_nullspace` solves each matrix of a batch from scratch: it
eliminates the rows with `_batch_rref` and reads the functionals that
vanish on them off the free columns. `_annihilate` must give the same
row spaces and full-rank flags one column at a time, with no
elimination; the tests compare the two.
"""

import numpy as np

from lrcodes.linalg import _batch_rref


def batch_nullspace(kern, A):
    """Right nullspace bases for a batch of m x kk matrices (A is
    overwritten), as N x (kk-m) x kk, with a mask of the matrices of
    full rank m. Only the masked entries are bases: their rows phi span
    the functionals with phi . a = 0 for every row a of A."""
    N, m, kk = A.shape
    piv_col, lead = _batch_rref(kern, A)
    pivmask = np.zeros((N, kk), dtype=bool)
    np.put_along_axis(pivmask, piv_col, True, axis=1)
    free = np.argsort(pivmask, axis=1, kind="stable")[:, :kk - m]
    vals = np.take_along_axis(A, free[:, None, :], axis=2)
    neg = kern.zeros(vals.shape)
    kern.fms(neg, vals, 1)
    x = kern.zeros((N, kk - m, kk))
    np.put_along_axis(x, np.broadcast_to(piv_col[:, None, :], (N, kk - m, m)),
                      neg.transpose(0, 2, 1), axis=2)
    np.put_along_axis(x, free[:, :, None], 1, axis=2)
    return x, lead == m


def row_spaces(kern, B):
    """Each basis of a batch (N x m x kk, of rank m) in reduced row
    echelon form, which two bases share iff they span the same space."""
    R = np.array(B, dtype=kern.dtype)
    _batch_rref(kern, R)
    return R
