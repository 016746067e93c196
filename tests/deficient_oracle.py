"""Scalar oracles for the batched column-subset scans in lrcodes.verify.

`oracle_first_deficient` answers the question `_group_scan` asks of
each group one subset at a time, with reduced bases and scalar field
arithmetic: the lexicographically first size-subset of the columns
whose rank is below full_rank, or None. Once a prefix reaches full_rank
every completion does too, so that subtree is skipped.

`oracle_rank_criterion` answers the question of `_rank_criterion` by
its definition: it tries every subset size from n-1 down until one has
a subset of rank below k.

`oracle_check_locality` and `oracle_structure_theorem` check one group
at a time, by a scalar rank and an `oracle_first_deficient` search of
that group alone, where `check_locality` and `check_structure_theorem`
share one batched scan of all the groups. The locality oracle's
`scanned` is every recovery subset of every group of rank at most r,
the sum of C(|S_i|, |S_i|-delta+1): what the batched scan eliminates
when locality holds, and a bound on it when a group fails.
"""

from math import comb

from lrcodes.linalg import extend_basis, rank
from lrcodes.verify import GroupLocality, LocalityReport, StructureReport


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


def oracle_check_locality(code):
    r, delta, n = code.params.r, code.params.delta, code.params.n
    m = code.generator
    covered = scanned = 0
    entries = []
    for i, (g, msk) in enumerate(zip(code.structure.groups, code.structure.masks),
                                 start=1):
        covered |= msk
        grank = rank(m, g)
        ok, witness = grank <= r, None
        if ok:
            witness = oracle_first_deficient(m, len(g) - delta + 1, grank, cols=g)
            scanned += comb(len(g), len(g) - delta + 1)
            ok = witness is None
        entries.append(GroupLocality(index=i, group=g, rank=grank, ok=ok,
                                     witness=witness))
    all_covered = covered == (1 << n) - 1
    return LocalityReport(per_group=tuple(entries), covered=all_covered,
                          overall=all_covered and all(e.ok for e in entries),
                          scanned=scanned)


def oracle_structure_theorem(code):
    p = code.params
    size = p.r + p.delta - 1
    msgs, seen, disjoint, sizes_ok = [], 0, True, True
    for i, (g, msk) in enumerate(zip(code.structure.groups, code.structure.masks),
                                 start=1):
        if len(g) != size:
            sizes_ok = False
            msgs.append(f"group {i} has size {len(g)} != {size}")
        if seen & msk:
            disjoint = False
            msgs.append(f"group {i} overlaps an earlier group")
        seen |= msk
    missing = sorted(set(range(1, p.n + 1)).difference(*code.structure.groups))
    if missing:
        msgs.append(f"coordinates {tuple(missing)} are in no group")
    punctured = []
    for i, g in enumerate(code.structure.groups, start=1):
        grank = rank(code.generator, g)
        if grank != p.r:
            punctured.append(False)
            msgs.append(f"group {i} spans rank {grank} != r = {p.r}")
            continue
        w = oracle_first_deficient(code.generator, p.r, p.r, cols=g)
        punctured.append(w is None)
        if w is not None:
            msgs.append(f"group {i}: columns {w} are dependent")
    ok = disjoint and not missing and sizes_ok and all(punctured)
    return ok, StructureReport(ok=ok, disjoint=disjoint, sizes_ok=sizes_ok,
                               punctured_mds=tuple(punctured), messages=tuple(msgs))
