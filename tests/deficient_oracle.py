"""Scalar oracles for the batched column-subset scans in lrcodes.verify.

`oracle_first_deficient` answers the question of `_first_deficient`
one subset at a time with reduced bases and scalar field arithmetic:
the lexicographically first size-subset of the columns whose rank is
below full_rank, or None. Once a prefix reaches full_rank every
completion does too, so that subtree is skipped.

`oracle_rank_criterion` answers the question of `_rank_criterion` by
its definition: it tries every subset size from n-1 down until one has
a subset of rank below k.
"""

from lrcodes.linalg import extend_basis


def oracle_first_deficient(m, size, full_rank, cols=None):
    pool = list(cols) if cols is not None else list(range(1, m.cols + 1))
    total = len(pool)
    chosen = []

    def rec(start, basis):
        if len(chosen) == size:
            return tuple(chosen) if len(basis) < full_rank else None
        if len(basis) >= full_rank:
            return None
        for pos in range(start, total - (size - len(chosen)) + 1):
            nb = list(basis)
            extend_basis(m.field, nb, m.column(pool[pos]))
            chosen.append(pool[pos])
            w = rec(pos + 1, nb)
            chosen.pop()
            if w is not None:
                return w
        return None

    if size > total:
        return None
    return rec(0, [])


def oracle_rank_criterion(m):
    """(d, witness): n minus the largest size s with an s-subset of the
    columns of rank below k, and the lexicographically first such subset."""
    k, n = m.rows, m.cols
    for s in range(n - 1, k - 2, -1):
        w = oracle_first_deficient(m, s, k)
        if w is not None:
            return n - s, w
    raise AssertionError("every (k-1)-subset has rank below k")
