"""Independent checks on constructed codes.

Nothing here trusts the construction pipeline: locality is re-derived
from group column ranks, the minimum distance is computed by two
unrelated exact methods (the codeword weights of one message per line
of GF(q)^k, and the largest column set of rank below k, found in one
scan of the pencils of hyperplanes through (k-2)-subsets of the
columns), and optimality is certified by an exhaustive full-rank
check at the single subset size the distance bound makes decisive: by
the same pencil scan, or by a sweep of the subsets themselves when
that scans fewer. One elimination gives the generator's RREF, whose
last rows are the first pencil; the subsets stream down one annihilator
tower from it, each with the values on the columns of the functionals
that vanish on it, by one step a subset (`linalg._annihilate`, as in
construction); a subtree is cut when no hyperplane with its canonical
prefix in that subtree can change an answer. A pencil T = P + x is
labelled on its columns from x on only, the rest read as span(P): a
hyperplane's columns below x lie in span(P) at its canonical prefix, the
first subset in lexicographic order that holds it, where it is counted
in full; a later T through it counts a part of it. So every answer is
the one all n columns would give.
The subset sweep, locality and the structure theorem's punctured MDS
codes ask one question: which subset of a given size in a column set
is first to fall below a given rank. One batched scan answers all three.
A certificate reads the locality and the distance already proven for
the same generator, and scans only when that distance is below the
bound, for the first deficient subset its report names.
Each report says which route ran, what it covered and what it labelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .construct import LrcCode
from .cores import index_batches
from .errors import (
    BudgetExceeded,
    PreconditionViolated,
    RankDeficient,
    StructureMismatch,
)
from .gf import field_kernel
# rank and extend_basis are not called here: they are imported so that the
# benchmark's tracer (perfbench/tracer.py), which wraps functions under the
# module names their callers use, finds them.
from .linalg import (Matrix, _annihilate, _as_indices, _batch_rref,
                     extend_basis, rank)
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
    "WEIGHT_METHOD",
    "RANK_METHOD",
    "PENCIL_ROUTE",
    "SUBSET_ROUTE",
    "DISTANCE_ROUTE",
]

WEIGHT_METHOD = "weight-enumeration"
RANK_METHOD = "rank-criterion"
PENCIL_ROUTE = "pencil-scan"
SUBSET_ROUTE = "subset-scan"
DISTANCE_ROUTE = "known-distance"

DEFAULT_BUDGET = 10 ** 7

# Field entries per batch in the subset and pencil scans (a subset's
# matrix, or at level j of the pencil tower a j-subset's k-j rows of
# values on the n columns); this bounds the working memory of one batch.
_BATCH_CELLS = 1 << 15

# Facts proven about a generator, oldest first: the exact d min_distance
# returned, under ("d", m), and check_locality's report, under
# ("locality", m, groups, r, delta). Keys hold the generator Matrix, whose
# equality covers its field and every entry, never the LrcCode, which is
# mutable. Only certify_optimal reads them.
_KNOWN: dict[tuple, object] = {}
_KNOWN_ENTRIES = 8


def _remember(key: tuple, fact: object) -> None:
    _KNOWN.pop(key, None)
    _KNOWN[key] = fact
    if len(_KNOWN) > _KNOWN_ENTRIES:
        del _KNOWN[next(iter(_KNOWN))]


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
    # work done: recovery subsets eliminated, summed over the groups
    scanned: int = field(default=0, compare=False)


@dataclass(frozen=True)
class DistanceReport:
    d: int
    method: str
    # weight method: a minimum-weight codeword; rank method: the largest
    # column set of deficient rank, as sorted 1-based indices
    witness: tuple[int, ...]
    # work done: codewords enumerated (one per line), or C(n, k-2): the
    # (k-2)-subsets the pencil scan covers; and the pencils it labelled
    scanned: int = field(default=0, compare=False)
    labelled: int = field(default=0, compare=False)


@dataclass(frozen=True)
class OptimalityReport:
    ok: bool
    bound_d: int
    subset_size: int
    subsets_total: int
    witness: Optional[tuple[int, ...]]
    locality: LocalityReport
    note: str
    # PENCIL_ROUTE (scanned: C(n, k-2) subsets, as in DistanceReport),
    # SUBSET_ROUTE (the subsets eliminated) or DISTANCE_ROUTE (none: the
    # verdict is read off known_d, the d min_distance found); None if
    # locality failed first
    route: Optional[str] = field(default=None, compare=False)
    scanned: int = field(default=0, compare=False)
    labelled: int = field(default=0, compare=False)  # as in DistanceReport
    known_d: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class StructureReport:
    ok: bool
    disjoint: bool
    sizes_ok: bool
    punctured_mds: tuple[bool, ...]
    messages: tuple[str, ...]


def _ranks(kern, columns: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The rank of each row's column set (rows of indices into columns),
    by one batched elimination across the shorter side."""
    R = columns[E]
    if E.shape[1] < columns.shape[1]:
        R = R.transpose(0, 2, 1).copy()
    return _batch_rref(kern, R)[1]


def _group_scan(m: Matrix, groups: Sequence[tuple[int, ...]],
                size_of: Callable[[tuple[int, ...], int],
                                  Optional[tuple[int, int]]]
                ) -> tuple[list[int], list[Optional[tuple[int, ...]]], int]:
    """Each group's rank t; for each group g that size_of(g, t) gives a
    (size, target) pair, the lexicographically first size-subset of g of
    rank below target, or None; and how many subsets were eliminated.
    One elimination ranks all the groups; the subsets of all of them,
    tagged with their group, share bounded batches, and a group's stop at
    the batch that holds its witness. Index 0, the zero column, pads each
    set to one width without changing its rank."""
    idx = [_as_indices(g, m) for g in groups]
    kern = field_kernel(m.field)
    columns = kern.array([(0,) * m.rows] + m.columns())
    pad = max(map(len, idx), default=0)
    E = np.array([g + (0,) * (pad - len(g)) for g in idx], dtype=np.int64)
    ranks = _ranks(kern, columns, E.reshape(len(idx), pad)).tolist()
    asks = [size_of(g, t) for g, t in zip(idx, ranks)]
    pad = max((a[0] for a in asks if a is not None), default=0)
    target = np.array([a[1] if a is not None else 0 for a in asks], dtype=np.int64)
    witness: list[Optional[tuple[int, ...]]] = [None] * len(idx)

    def subsets() -> Iterator[tuple[int, ...]]:
        for j, ask in enumerate(asks):
            if ask is not None:
                tail = (0,) * (pad - ask[0]) + (j,)
                for c in combinations(idx[j], ask[0]):
                    if witness[j] is not None:
                        break
                    yield c + tail

    rows = max(1, _BATCH_CELLS // max(1, pad * m.rows))
    scanned = 0
    for E in index_batches(subsets(), pad + 1, rows, np.int64):
        scanned += len(E)
        for i in np.flatnonzero(_ranks(kern, columns, E[:, :-1]) < target[E[:, -1]]):
            j = int(E[i, -1])
            if witness[j] is None:
                witness[j] = tuple(E[i, :asks[j][0]].tolist())
    return ranks, witness, scanned


def check_locality(code: LrcCode) -> LocalityReport:
    """Per-group rank form of the locality requirement.

    Group i passes when its columns have rank at most r and every subset
    of |S_i|-(delta-1) columns already reaches that rank, i.e. any
    delta-1 erasures inside the group leave it fully recoverable.
    """
    code.validate()
    r, delta, n = code.params.r, code.params.delta, code.params.n
    groups, covered = code.structure.groups, 0
    for i, (g, msk) in enumerate(zip(groups, code.structure.masks), start=1):
        if not delta <= len(g) <= r + delta - 1:
            raise StructureMismatch(
                f"group {i} has {len(g)} members, outside "
                f"[delta, r+delta-1] = [{delta}, {r + delta - 1}]")
        covered |= msk
    ranks, witnesses, scanned = _group_scan(
        code.generator, groups,
        lambda g, grank: (len(g) - delta + 1, grank) if grank <= r else None)
    entries = tuple(
        GroupLocality(index=i, group=g, rank=grank, ok=grank <= r and w is None,
                      witness=w)
        for i, (g, grank, w) in enumerate(zip(groups, ranks, witnesses), start=1))
    all_covered = covered == (1 << n) - 1
    overall = all_covered and all(e.ok for e in entries)
    report = LocalityReport(per_group=entries, covered=all_covered,
                            overall=overall, scanned=scanned)
    _remember(("locality", code.generator, groups, r, delta), report)
    return report


def _weight_enumeration(m: Matrix) -> DistanceReport:
    """The first least-weight codeword in message order, found among the
    messages that lead with 1: a.c has the weight of c."""
    kern = field_kernel(m.field)
    q, k, n = m.field.q, m.rows, m.cols
    best_w = n + 1
    best_cw: Optional[np.ndarray] = None
    G = kern.array(m.row_data())
    for msgs in kern.lines(k, max(1, _BATCH_CELLS // (k + n))):
        words = kern.matmul(msgs, G)
        weights = (words != 0).sum(axis=1)
        pos = int(weights.argmin())
        if weights[pos] < best_w:
            best_w = int(weights[pos])
            best_cw = words[pos]
    assert best_cw is not None
    return DistanceReport(d=best_w, method=WEIGHT_METHOD,
                          witness=tuple(int(x) for x in best_cw),
                          scanned=(q ** k - 1) // (q - 1))


def _lex_first(sets: np.ndarray) -> tuple[int, ...]:
    """The lexicographically first of equal-size column sets (boolean
    rows) as sorted 1-based indices: the largest bit string from column 1."""
    top = np.lexsort(np.packbits(sets, axis=1).T[::-1])[-1]
    return tuple((np.flatnonzero(sets[top]) + 1).tolist())


def _pencil_hyperplanes(kern, XY: np.ndarray, x: np.ndarray, below: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For pencils T = P + x given by the values (X, Y) of their two
    functionals on the columns from c0 on, and the span(P) mask of the c0
    columns below: on the columns from c0 on, each one's slope label (q
    at infinity; -1 in span(T) and below the pencil's own window, its
    columns from x on), the span(T) mask, and the size of the hyperplane
    H each own column names: its slope class on the own window, plus
    span(P) below c0 and span(T) from c0 on. A column in span(T) names
    none (at rank k). At H's canonical prefix that size is |H|, as H's
    columns below x lie in span(P); at any other T through H it counts a
    part of H. The class sizes come from one sort of the batch's
    (pencil, label) keys, made in the field's dtype: a row times q + 1
    passes 2^63 at q = 2^61 - 1."""
    X, Y = XY
    c0 = below.shape[1]
    span = (X == 0) & (Y == 0)
    own = np.flatnonzero(~span & (np.arange(c0, c0 + X.shape[1]) >= x[:, None]))
    X, Y = X.reshape(-1)[own], Y.reshape(-1)[own]
    slope = np.full(own.size, kern.q, dtype=XY.dtype)
    finite = X != 0
    slope[finite] = kern.mul(Y[finite], kern.inv(X[finite]))
    row = own // span.shape[1]
    key = row.astype(XY.dtype) * (kern.q + 1) + slope
    order = np.argsort(key)
    ranked = key[order]
    starts = np.ones(key.size, dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    runs = np.diff(np.flatnonzero(starts), append=key.size)
    label = np.full(span.shape, -1, dtype=XY.dtype)
    label.reshape(-1)[own] = slope
    sizes = np.zeros(span.shape, dtype=np.int64)
    z = below.sum(axis=1) + span.sum(axis=1)
    sizes.reshape(-1)[own[order]] = z[row[order]] + np.repeat(runs, runs)
    return label, span, sizes


def _pencils(kern, G: np.ndarray, floor: Callable[[], int]
             ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The pencils of the independent (k-2)-subsets T = P + x of the
    k x n generator's columns, in lexicographic order, as batches of N:
    the values (X, Y), 2 x N x (n - c0), of two functionals that vanish
    on T on the batch's window, the columns from c0 on, the least x the
    batch stepped; each x; and the N x c0 span(P) mask below the window.
    Down one annihilator tower from G: a j-subset P's k-j rows of values
    B give P + x's, x > max(P), by one step with a = B[:, x], for a batch
    of N subsets functionals-major, (k-j) x N x n. A deficient subset is
    dropped at its level, as its extensions are deficient too.
    So is P + x with its subtree when it is no canonical prefix (the first
    columns a lexicographic greedy pass keeps as independent) of a
    hyperplane H of floor() columns or more, read once per batch of
    parents: H's columns below x would be in span(P), where B is zero, so
    H holds at most those and the n - x from x on. That bound falls as x
    grows, so each parent keeps a run of children. For the same reason a
    pencil's columns below its x are read only as span(P), and the last
    step takes the window alone. No batch is held while the next one at
    its level is derived."""
    k, n = G.shape
    cols = np.arange(n)

    def level(j: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        # the j-subsets with room for k-2-j more columns, their last, and
        # below the window (at j = k-2 only) their parents' span
        if j == 0:
            yield G[:, None], np.array([-1]), np.zeros((1, 0), dtype=bool)
            return
        stop = n - (k - 2 - j)
        rows = max(1, _BATCH_CELLS // max(1, (k - j) * n))
        for B, last, _ in level(j - 1):
            spanned = ~B.any(axis=0)
            reach = np.cumsum(spanned, axis=1) - spanned + (n - cols) >= floor()
            end = np.minimum(stop, reach.sum(axis=1))
            # parent i owns children ends[i] - count[i] .. ends[i] - 1
            count = np.maximum(end - 1 - last, 0)
            ends = np.cumsum(count)
            for lo in range(0, ends[-1], rows):
                at = np.arange(lo, min(lo + rows, ends[-1]))
                owner = np.searchsorted(ends, at, side="right")
                x = at - ends[owner] + count[owner] + last[owner] + 1
                c0 = int(x.min()) if j == k - 2 else 0
                out, full = _annihilate(kern, B[:, owner, c0:], B[:, owner, x])
                below = spanned[owner, :c0]
                if not full.all():
                    out, x, below = out[:, full], x[full], below[full]
                if x.size:
                    yield out, x, below
                del out
            del B

    return level(k - 2)


def _echelon(m: Matrix) -> np.ndarray:
    """m's RREF, as a batch of one; its last row is zero iff rank < k."""
    R = field_kernel(m.field).array(m.row_data()).reshape(1, m.rows, m.cols)
    _batch_rref(field_kernel(m.field), R)
    return R


def _pencil_scan(m: Matrix, size: Optional[int], R: np.ndarray
                 ) -> tuple[Optional[tuple[int, ...]], int]:
    """With no size, the lexicographically first largest column set of
    rank below k (k >= 2); with one, the first size-subset of rank below
    k, or None. And how many pencils were labelled (none below rank k).

    Such sets lie on hyperplanes. Those through an independent
    (k-2)-subset T form a pencil: with X = psi1.c and Y = psi2.c the
    values on column c of two functionals that span those vanishing on T,
    a column with X = Y = 0 is in span(T) and on all of them, any other
    on the one named by its slope Y/X. Every hyperplane spanned by columns
    holds such a T. Of two hyperplanes through one T, the one whose other
    columns start first has the first set and the first size-prefix.
    One of size columns or more, or more than the largest so far (a greedy
    prefix is Gale-minimal), is labelled at its canonical prefix (see
    _pencils). There a pencil's own window, its columns from x on, counts
    it in full; at a later T through it the window counts part of it, a
    real column set no larger, so the floor rises as it would over every
    column, and each set read off a window is a true one. m's RREF R, the
    tower's root, ends in the pencil of its first k-2 pivots T0, the first
    subset, which no floor up to n cuts: the distance's floor starts one
    above T0's largest hyperplane, read on every column.
    """
    k, n = m.rows, m.cols
    kern = field_kernel(m.field)
    if not R[0, -1].any():  # rank below k: every column set is deficient
        return (tuple(range(1, n + 1))[:size] if (size or 0) <= n else None), 0
    # the answer so far; largest as (-size, set), so that the min wins
    largest, first, labelled = (1, ()), None, 0  # nothing yet: size -1
    floor = size if size is not None else 1 + int(_pencil_hyperplanes(
        kern, R[0, k - 2:, None], np.array([-1]), np.zeros((1, 0), dtype=bool)
    )[2].max())
    for XY, x, below in _pencils(kern, R[0], lambda: floor):
        labelled += x.size
        label, span, sizes = _pencil_hyperplanes(kern, XY, x, below)

        def on(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
            return np.hstack([below[rows], span[rows]
                              | (label[rows] == label[rows, cols][:, None])])

        if size is None:
            best = sizes.argmax(axis=1)
            top = sizes[np.arange(best.size), best]
            most = int(top.max())
            if -most <= largest[0]:
                rows = np.flatnonzero(top == most)
                largest = min(largest, (-most, _lex_first(on(rows, best[rows]))))
            floor = 1 - largest[0]
        else:
            big = sizes >= size
            rows = np.flatnonzero(big.any(axis=1))
            if rows.size:
                sets = on(rows, big[rows].argmax(axis=1))
                sets &= np.cumsum(sets, axis=1) <= size
                cand = _lex_first(sets)
                first = cand if first is None else min(first, cand)
        del XY, below, label, span, sizes
    return (largest[1] if size is None else first), labelled


def _within_budget(what: str, n: int, j: int, unit: str, budget: int) -> int:
    """C(n, j), the work of one scan, checked before any of it runs."""
    total = comb(n, j)
    if total > budget:
        raise BudgetExceeded(
            f"{what} needs C({n},{j}) = {total} {unit}, budget is {budget}")
    return total


def _rank_criterion(m: Matrix, budget: int, R: np.ndarray) -> DistanceReport:
    """d = n minus the most columns on one hyperplane; the witness is the
    lexicographically first largest column set of rank below k."""
    k, n = m.rows, m.cols
    if k == 1:  # the zero hyperplane is the only one
        total = _within_budget("rank criterion", n, 0, "hyperplane checks", budget)
        witness = tuple(j for j, c in enumerate(m.columns(), start=1) if not any(c))
        labelled = 0
    else:
        total = _within_budget("rank criterion", n, k - 2, "(k-2)-subsets", budget)
        witness, labelled = _pencil_scan(m, None, R)
    return DistanceReport(d=n - len(witness), method=RANK_METHOD,
                          witness=witness, scanned=total, labelled=labelled)


def min_distance(code: LrcCode, budget: int = DEFAULT_BUDGET) -> DistanceReport:
    """Exact minimum distance by whichever exact method fits the budget.

    Weight enumeration when q^k is small enough; otherwise one scan of
    the C(n, k-2) pencils of hyperplanes through independent column
    subsets for the largest column set of rank below k (its size is n-d).
    Either way d is remembered for the generator, for certify_optimal.
    """
    code.validate()
    m = code.generator
    report = _weight_enumeration(m) if code.field.q ** m.rows <= budget else None
    if report is None or not report.d:  # d = 0: a message of weight 0, rank < k
        R = _echelon(m)
        if not R[0, -1].any():
            raise RankDeficient(f"generator rank {R[0].any(axis=1).sum()} < k = {m.rows}")
        report = _rank_criterion(m, budget, R)
    _remember(("d", m), report.d)
    return report


def certify_optimal(code: LrcCode, budget: int = DEFAULT_BUDGET
                    ) -> tuple[bool, OptimalityReport]:
    """Certify d equals the locality-aware distance bound exactly.

    Checks locality, then that every column subset of size
    s = k + (ceil(k/r)-1)(delta-1) has full rank k. Full rank at that
    single size forces d above bound-1, while locality caps d at the
    bound, so the two together pin d to the bound with no distance
    computation. The rank check scans whichever is fewer: the C(n, k-2)
    pencils of hyperplanes, or the C(n, s) subsets themselves; that
    route's budget gate runs either way.

    A locality report or a d that check_locality or min_distance proved
    for the same generator is read, not recomputed. Full rank at size s
    means no hyperplane holds s columns, that is n - d < s, so a known
    d >= bound passes with no scan (DISTANCE_ROUTE); a smaller one scans
    as above, for the first deficient s-set.
    """
    code.validate()
    p, m = code.params, code.generator
    bound = distance_bound(p)
    size = p.k + (p.mu - 1) * (p.delta - 1)
    total = comb(p.n, size)
    locality = (_KNOWN.get(("locality", m, code.structure.groups, p.r, p.delta))
                or check_locality(code))
    note = (f"every {size}-column set of full rank {p.k} gives d >= {bound}; "
            f"(r,delta) locality gives d <= {bound}; together d = {bound}")
    if not locality.overall:
        return False, OptimalityReport(ok=False, bound_d=bound, subset_size=size,
                                       subsets_total=total, witness=None,
                                       locality=locality, note="locality check failed")
    what = "optimality certification"
    pencils = p.k >= 2 and comb(p.n, p.k - 2) <= total
    if pencils:
        scanned = _within_budget(what, p.n, p.k - 2, "(k-2)-subsets", budget)
    else:
        _within_budget(what, p.n, size, "subset checks", budget)
    known_d = _KNOWN.get(("d", m))
    if known_d is not None and known_d >= bound:
        route, witness, scanned, labelled = DISTANCE_ROUTE, None, 0, 0
    elif pencils:
        route, known_d = PENCIL_ROUTE, None
        witness, labelled = _pencil_scan(m, size, _echelon(m))
    else:
        route, known_d, labelled = SUBSET_ROUTE, None, 0
        _, (witness,), scanned = _group_scan(m, [tuple(range(1, p.n + 1))],
                                             lambda g, grank: (size, p.k))
    ok = witness is None
    report = OptimalityReport(ok=ok, bound_d=bound, subset_size=size,
                              subsets_total=total, witness=witness,
                              locality=locality,
                              note=note if ok else
                              f"column set {witness} has rank below {p.k}",
                              route=route, scanned=scanned, labelled=labelled,
                              known_d=known_d)
    return ok, report


def check_structure_theorem(code: LrcCode) -> tuple[bool, StructureReport]:
    """Shape every optimal code with r | k and r < k must have: disjoint
    groups of size exactly r+delta-1 that cover [1..n], whose punctured
    codes are [r+delta-1, r, delta] MDS codes (every r columns of a group
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
    msgs, seen, disjoint, sizes_ok = [], 0, True, True
    for i, (g, msk) in enumerate(
            zip(code.structure.groups, code.structure.masks), start=1):
        if len(g) != size:
            sizes_ok = False
            msgs.append(f"group {i} has size {len(g)} != {size}")
        if seen & msk:
            disjoint = False
            msgs.append(f"group {i} overlaps an earlier group")
        seen |= msk
    missing = tuple(j for j in range(1, p.n + 1) if not seen >> (j - 1) & 1)
    if missing:
        msgs.append(f"coordinates {missing} are in no group")
    ranks, witnesses, _ = _group_scan(
        code.generator, code.structure.groups,
        lambda g, grank: (p.r, p.r) if grank == p.r else None)
    punctured = []
    for i, (grank, w) in enumerate(zip(ranks, witnesses), start=1):
        if grank != p.r:
            msgs.append(f"group {i} spans rank {grank} != r = {p.r}")
        elif w is not None:
            msgs.append(f"group {i}: columns {w} are dependent")
        punctured.append(grank == p.r and w is None)
    ok = disjoint and not missing and sizes_ok and all(punctured)
    return ok, StructureReport(ok=ok, disjoint=disjoint, sizes_ok=sizes_ok,
                               punctured_mds=tuple(punctured),
                               messages=tuple(msgs))
