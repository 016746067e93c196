"""The extension construction's loop invariant, checked on a built code.

The construction keeps every core inside the assigned set Omega
independent. Columns never change once assigned, and whether a set is a
core does not depend on Omega, so one check on the finished code, that
every core of [1..n] with at most k members has full rank, implies the
check after every step.
"""

from itertools import combinations

import numpy as np

from lrcodes.cores import CoreQuery, core_mask, index_batches
from lrcodes.gf import field_kernel
from lrcodes.linalg import _batch_rref


def first_dependent_core(code):
    """(core, rank) for the first core of at most k members, by size and
    then lexicographically, whose columns are dependent; or None."""
    p = code.params
    q = CoreQuery(structure=code.structure, r=p.r, k=p.k, delta=p.delta)
    kern = field_kernel(code.field)
    # columns as kernel rows, indexed by coordinate (row 0 unused)
    cols = kern.array([(0,) * p.k] + code.generator.columns())
    for size in range(1, p.k + 1):
        for E in index_batches(combinations(range(1, p.n + 1), size), size,
                               1 << 12, np.int64):
            E = E[core_mask(q, E)]
            ranks = _batch_rref(kern, cols[E])[1]
            bad = np.flatnonzero(ranks < size)
            if bad.size:
                return tuple(E[bad[0]].tolist()), int(ranks[bad[0]])
    return None
