"""Depth-first subset scan: a scalar oracle for the batched one.

The same question as `lrcodes.verify._first_deficient`, answered one
subset at a time with reduced bases and scalar field arithmetic: the
lexicographically first size-subset of the columns whose rank is below
full_rank, or None. Once a prefix reaches full_rank every completion
does too, so that subtree is skipped.
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
