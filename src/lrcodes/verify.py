"""Independent checks on constructed codes.

Nothing here trusts the construction pipeline: locality is re-derived
from group column ranks, the minimum distance is computed by two
unrelated exact methods (codeword weight enumeration, and the largest
column set of rank below k, found in one scan of the hyperplanes that
(k-1)-subsets of the columns span), and optimality is certified by an
exhaustive full-rank sweep at the single subset size the distance
bound makes decisive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Optional, Sequence

import numpy as np

from .construct import LrcCode
from .cores import index_batches
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    PreconditionViolated,
    RankDeficient,
    StructureMismatch,
)
from .gf import field_kernel
# extend_basis is not called here: it is imported so that the benchmark's
# tracer (perfbench/tracer.py), which wraps functions under the module
# names their callers use, finds it.
from .linalg import Matrix, _batch_nullvec, _batch_rref, extend_basis, rank
from .params import distance_bound

__all__ = [
    "GroupLocality",
    "LocalityReport",
    "DistanceReport",
    "OptimalityReport",
    "StructureReport",
    "check_locality",
    "min_distance",
    "certify_optimal",
    "check_structure_theorem",
    "check_mds",
    "WEIGHT_METHOD",
    "RANK_METHOD",
]

WEIGHT_METHOD = "weight-enumeration"
RANK_METHOD = "rank-criterion"

DEFAULT_BUDGET = 10 ** 7

# Field entries (subsets x subset size x rows) per batched elimination
# in the subset scans; this bounds the working memory of one batch.
_BATCH_CELLS = 1 << 15


@dataclass(frozen=True)
class GroupLocality:
    """Verdict for one repair group."""

    index: int
    group: tuple[int, ...]
    rank: int
    ok: bool
    witness: Optional[tuple[int, ...]] = None  # a bad recovery subset, if any


@dataclass(frozen=True)
class LocalityReport:
    per_group: tuple[GroupLocality, ...]
    covered: bool
    overall: bool


@dataclass(frozen=True)
class DistanceReport:
    d: int
    method: str
    # weight method: a minimum-weight codeword; rank method: the largest
    # column set of deficient rank, as sorted 1-based indices
    witness: tuple[int, ...]


@dataclass(frozen=True)
class OptimalityReport:
    ok: bool
    bound_d: int
    subset_size: int
    subsets_total: int
    witness: Optional[tuple[int, ...]]
    locality: LocalityReport
    note: str


@dataclass(frozen=True)
class StructureReport:
    ok: bool
    disjoint: bool
    sizes_ok: bool
    punctured_mds: tuple[bool, ...]
    messages: tuple[str, ...]


def _subset_batches(pool: Sequence[int], size: int, rows: int) -> Iterator[np.ndarray]:
    """The size-subsets of pool in lexicographic order, as N x size int64
    arrays of about _BATCH_CELLS // (size * rows) subsets each."""
    return index_batches(combinations(pool, size), size,
                         max(1, _BATCH_CELLS // max(1, size * rows)), np.int64)


def _first_deficient(m: Matrix, size: int, full_rank: int,
                     cols: Optional[Sequence[int]] = None) -> Optional[tuple[int, ...]]:
    """Lexicographically first size-subset of the columns whose rank is
    below full_rank, or None.

    The subsets are ranked in lexicographic order, a batch at a time, by
    one batched elimination over the field kernel.
    """
    pool = list(cols) if cols is not None else list(range(1, m.cols + 1))
    kern = field_kernel(m.field)
    # columns as kernel rows, indexed by coordinate (row 0 unused)
    columns = kern.array([(0,) * m.rows] + m.columns())
    for E in _subset_batches(pool, size, m.rows):
        # eliminate across the shorter side: rank is the same either way
        R = columns[E] if size >= m.rows else columns[E].transpose(0, 2, 1).copy()
        _, ranks = _batch_rref(kern, R)
        bad = np.flatnonzero(ranks < full_rank)
        if bad.size:
            return tuple(E[bad[0]].tolist())
    return None


def check_locality(code: LrcCode) -> LocalityReport:
    """Per-group rank form of the locality requirement.

    Group i passes when its columns have rank at most r and every subset
    of |S_i|-(delta-1) columns already reaches that rank, i.e. any
    delta-1 erasures inside the group leave it fully recoverable.
    """
    code.validate()
    m = code.generator
    r, delta = code.params.r, code.params.delta
    n = code.params.n
    covered = 0
    entries = []
    for i, (g, msk) in enumerate(
            zip(code.structure.groups, code.structure.masks), start=1):
        if not delta <= len(g) <= r + delta - 1:
            raise StructureMismatch(
                f"group {i} has {len(g)} members, outside "
                f"[delta, r+delta-1] = [{delta}, {r + delta - 1}]")
        covered |= msk
        grank = rank(m, g)
        ok = grank <= r
        witness = None
        if ok:
            witness = _first_deficient(m, len(g) - delta + 1, grank, cols=g)
            ok = witness is None
        entries.append(GroupLocality(index=i, group=g, rank=grank, ok=ok,
                                     witness=witness))
    all_covered = covered == (1 << n) - 1
    overall = all_covered and all(e.ok for e in entries)
    return LocalityReport(per_group=tuple(entries), covered=all_covered,
                          overall=overall)


def _weight_enumeration(m: Matrix) -> DistanceReport:
    kern = field_kernel(m.field)
    q, k, n = m.field.q, m.rows, m.cols
    total = q ** k
    chunk = 1 << 16
    best_w = n + 1
    best_cw: Optional[np.ndarray] = None
    rows = kern.array([m.row(i) for i in range(1, k + 1)])
    powers = [q ** (k - 1 - i) for i in range(k)]
    for lo in range(1, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        acc = kern.zeros((idx.size, n))
        for i in range(k):
            kern.fma_outer(acc, idx // powers[i] % q, rows[i])
        weights = (acc != 0).sum(axis=1)
        pos = int(weights.argmin())
        if weights[pos] < best_w:
            best_w = int(weights[pos])
            best_cw = acc[pos].copy()
    assert best_cw is not None
    return DistanceReport(d=best_w, method=WEIGHT_METHOD,
                          witness=tuple(int(x) for x in best_cw))


def _rank_criterion(m: Matrix, budget: int) -> DistanceReport:
    """d = n minus the most columns that lie on one hyperplane.

    A largest column set of rank below k is the full column set of a
    hyperplane spanned by k-1 independent columns, so the (k-1)-subsets
    of rank k-1 cover it. Each gives the functional phi whose kernel is
    its hyperplane, and the columns c with phi . c = 0 are the ones on
    it. The witness is the lexicographically first largest column set.
    """
    k, n = m.rows, m.cols
    total = comb(n, k - 1)
    if total > budget:
        raise BudgetExceeded(
            f"rank criterion needs C({n},{k - 1}) = {total} hyperplane checks, "
            f"budget is {budget}")
    kern = field_kernel(m.field)
    columns = kern.array(m.columns()).reshape(n, k)
    best_count, best = -1, None
    for E in _subset_batches(range(n), k - 1, k):
        phi, full = _batch_nullvec(kern, columns[E])
        if not full.any():
            continue
        phi = phi[full]
        dots = kern.zeros((phi.shape[0], n))
        for i in range(k):
            kern.fma(dots, phi[:, i, None], columns[:, i])
        on = dots == 0
        counts = on.sum(axis=1)
        # The first subset (in lexicographic order) to reach the largest
        # count spans the lexicographically first largest set: that set's
        # greedy basis is its first independent (k-1)-subset, and greedy
        # bases of two hyperplanes' sets compare as the sets do.
        pos = int(counts.argmax())
        if counts[pos] > best_count:
            best_count, best = int(counts[pos]), on[pos]
    return DistanceReport(d=n - best_count, method=RANK_METHOD,
                          witness=tuple((np.flatnonzero(best) + 1).tolist()))


def min_distance(code: LrcCode, budget: int = DEFAULT_BUDGET) -> DistanceReport:
    """Exact minimum distance by whichever exact method fits the budget.

    Weight enumeration when q^k is small enough; otherwise one scan of
    the C(n, k-1) hyperplanes spanned by column subsets for the largest
    column set of rank below k (its size is n-d).
    """
    code.validate()
    m = code.generator
    k = m.rows
    if rank(m) != k:
        raise RankDeficient(f"generator rank {rank(m)} < k = {k}")
    if code.field.q ** k <= budget:
        return _weight_enumeration(m)
    return _rank_criterion(m, budget)


def certify_optimal(code: LrcCode, budget: int = DEFAULT_BUDGET
                    ) -> tuple[bool, OptimalityReport]:
    """Certify d equals the locality-aware distance bound exactly.

    Checks locality, then that every column subset of size
    k + (ceil(k/r)-1)(delta-1) has full rank k. Full rank at that single
    size forces d above bound-1, while locality caps d at the bound, so
    the two together pin d to the bound with no distance computation.
    """
    code.validate()
    p = code.params
    bound = distance_bound(p)
    size = p.k + (p.mu - 1) * (p.delta - 1)
    total = comb(p.n, size)
    locality = check_locality(code)
    note = (f"every {size}-column set of full rank {p.k} gives d >= {bound}; "
            f"(r,delta) locality gives d <= {bound}; together d = {bound}")
    if not locality.overall:
        report = OptimalityReport(ok=False, bound_d=bound, subset_size=size,
                                  subsets_total=total, witness=None,
                                  locality=locality,
                                  note="locality check failed")
        return False, report
    if total > budget:
        raise BudgetExceeded(
            f"optimality certification needs C({p.n},{size}) = {total} subset "
            f"checks, budget is {budget}")
    witness = _first_deficient(code.generator, size, p.k)
    ok = witness is None
    report = OptimalityReport(ok=ok, bound_d=bound, subset_size=size,
                              subsets_total=total, witness=witness,
                              locality=locality,
                              note=note if ok else
                              f"column set {witness} has rank below {p.k}")
    return ok, report


def check_structure_theorem(code: LrcCode) -> tuple[bool, StructureReport]:
    """Shape every optimal code with r | k and r < k must have: disjoint
    groups of size exactly r+delta-1 whose punctured codes are
    [r+delta-1, r, delta] MDS codes (every r columns of a group
    independent).

    The caller is responsible for having certified optimality first;
    this only inspects the claimed structure.
    """
    code.validate()
    p = code.params
    if p.k % p.r or p.r == p.k:
        raise PreconditionViolated(
            f"structure theorem needs r | k with r < k, got r={p.r} k={p.k}")
    size = p.r + p.delta - 1
    msgs = []
    seen = 0
    disjoint = True
    sizes_ok = True
    for i, (g, msk) in enumerate(
            zip(code.structure.groups, code.structure.masks), start=1):
        if len(g) != size:
            sizes_ok = False
            msgs.append(f"group {i} has size {len(g)} != {size}")
        if seen & msk:
            disjoint = False
            msgs.append(f"group {i} overlaps an earlier group")
        seen |= msk
    punctured = []
    for i, g in enumerate(code.structure.groups, start=1):
        grank = rank(code.generator, g)
        if grank != p.r:
            punctured.append(False)
            msgs.append(f"group {i} spans rank {grank} != r = {p.r}")
            continue
        w = _first_deficient(code.generator, p.r, p.r, cols=g)
        punctured.append(w is None)
        if w is not None:
            msgs.append(f"group {i}: columns {w} are dependent")
    ok = disjoint and sizes_ok and all(punctured)
    return ok, StructureReport(ok=ok, disjoint=disjoint, sizes_ok=sizes_ok,
                               punctured_mds=tuple(punctured),
                               messages=tuple(msgs))


def check_mds(m: Matrix) -> bool:
    """True iff every (rows)-sized column subset has full rank."""
    if m.rows > m.cols:
        raise DimensionMismatch(f"need rows <= cols, got {m.rows}x{m.cols}")
    return _first_deficient(m, m.rows, m.rows) is None
