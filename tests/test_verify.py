import random
import tracemalloc
from dataclasses import replace
from itertools import combinations, product
from math import comb
from pathlib import Path

import numpy as np
import pytest

from lrcodes.codefile import load_code
from lrcodes.construct import LrcCode, construct, mds_generator
from lrcodes.covers import CoverSet, uniform_partition
from lrcodes.errors import (
    BudgetExceeded,
    IndexOutOfRange,
    PreconditionViolated,
    RankDeficient,
    StructureMismatch,
)
from lrcodes.gf import field_at_least, field_kernel, field_make
from lrcodes.linalg import Matrix, rank
from lrcodes.params import CodeParams, distance_bound, field_bound
from lrcodes.verify import (
    RANK_METHOD,
    WEIGHT_METHOD,
    certify_optimal,
    check_locality,
    check_structure_theorem,
    min_distance,
)

import lrcodes.verify as verify_mod
from deficient_oracle import (oracle_check_locality, oracle_first_deficient,
                              oracle_rank_criterion, oracle_structure_theorem)
from nullspace_oracle import batch_nullspace, row_spaces
from pencil_oracle import (oracle_cut, oracle_labelled, oracle_pencils,
                           oracle_seed_floor)
from weight_oracle import oracle_weight_enumeration

F4 = field_make(2, 2)
FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def gf4_code(delta: int = 2) -> LrcCode:
    """Hand-checkable [6,3] code over GF(4) with groups {1,2,3}, {4,5,6}."""
    m = Matrix.from_rows(F4, [(1, 0, 1, 0, 1, 1),
                              (0, 1, 1, 0, 2, 2),
                              (0, 0, 0, 1, 1, 3)])
    return LrcCode(field=F4, generator=m, structure=uniform_partition(6, 2, 2),
                   params=CodeParams(6, 3, 2, delta),
                   claimed_d=distance_bound(CodeParams(6, 3, 2, delta)))


def dummy_code(m: Matrix) -> LrcCode:
    """Wrap a full-length matrix for distance checks only."""
    n, k = m.cols, m.rows
    return LrcCode(field=m.field, generator=m,
                   structure=CoverSet(n, [range(1, n + 1)]),
                   params=CodeParams(n, k, k, 2), claimed_d=n - k + 1)


# ---------------------------------------------------------------------
# locality
# ---------------------------------------------------------------------

def test_locality_gf4_reference():
    rep = check_locality(gf4_code())
    assert rep.overall and rep.covered
    assert [e.rank for e in rep.per_group] == [2, 2]
    assert all(e.ok and e.witness is None for e in rep.per_group)


def test_locality_fails_for_stricter_delta():
    # delta=3 keeps only one column per group after erasures; rank 1 < 2
    rep = check_locality(gf4_code(delta=3))
    assert not rep.overall
    assert [e.ok for e in rep.per_group] == [False, False]
    assert rep.per_group[0].witness == (1,)


def test_locality_uncovered_coordinate():
    code = gf4_code()
    bad = LrcCode(field=code.field, generator=code.generator,
                  structure=CoverSet(6, [(1, 2, 3)]), params=code.params,
                  claimed_d=code.claimed_d)
    rep = check_locality(bad)
    assert not rep.covered and not rep.overall
    assert all(e.ok for e in rep.per_group)


def test_locality_structure_mismatch():
    code = gf4_code()
    out_of_range = LrcCode(field=code.field, generator=code.generator,
                           structure=CoverSet(9, [(1, 2, 3), (4, 5, 9)]),
                           params=code.params, claimed_d=3)
    with pytest.raises(StructureMismatch):
        check_locality(out_of_range)
    oversized = LrcCode(field=code.field, generator=code.generator,
                        structure=CoverSet(6, [(1, 2, 3, 4), (5, 6)]),
                        params=code.params, claimed_d=3)
    with pytest.raises(StructureMismatch):
        check_locality(oversized)


def test_locality_rank_witness():
    # group {1,2,3} holds e1, e1, e2: the pair {1,2} cannot recover rank 2
    f = field_make(5)
    m = Matrix.from_columns(f, [(1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (2, 1)])
    code = LrcCode(field=f, generator=m, structure=uniform_partition(6, 2, 2),
                   params=CodeParams(6, 2, 2, 2), claimed_d=3)
    rep = check_locality(code)
    g1 = rep.per_group[0]
    assert not g1.ok and g1.witness == (1, 2)
    assert rep.per_group[1].ok
    assert not rep.overall


def test_locality_witness_matches_scalar_scan():
    # a constructed code with column 6 made parallel to column 5 inside
    # group {5,6,7,8}: every other group stays intact
    code = construct(CodeParams(12, 5, 2, 3), field_make(499), seed=0)
    cols = code.generator.columns()
    cols[5] = tuple(code.field.mul(3, x) for x in cols[4])
    m = Matrix.from_columns(code.field, cols)
    broken = LrcCode(field=code.field, generator=m, structure=code.structure,
                     params=code.params, claimed_d=code.claimed_d)
    rep = check_locality(broken)
    assert [e.ok for e in rep.per_group] == [True, False, True]
    assert rep.per_group[1].witness == (5, 6)
    for e in rep.per_group:
        keep = len(e.group) - 3 + 1
        assert e.witness == oracle_first_deficient(m, keep, e.rank, cols=e.group)


def test_locality_counts_the_subsets_it_eliminates():
    # every (|g|-delta+1)-subset of a group of rank at most r is
    # eliminated; a group over rank r fails without a scan
    assert check_locality(gf4_code()).scanned == 2 * comb(3, 2)
    assert check_locality(gf4_code(delta=3)).scanned == 2 * comb(3, 1)
    code = construct(CodeParams(12, 5, 2, 3), field_make(499), seed=0)
    rep = check_locality(code)
    assert rep.overall and rep.scanned == 3 * comb(4, 2)
    cols = code.generator.columns()
    cols[0] = cols[4]
    broken = LrcCode(field=code.field, generator=Matrix.from_columns(code.field, cols),
                     structure=code.structure, params=code.params,
                     claimed_d=code.claimed_d)
    bad = check_locality(broken)
    assert bad.per_group[0].rank == 3 and bad.scanned == 2 * comb(4, 2)
    # the count is work done, not part of the verdict
    assert bad == replace(bad, scanned=0)


def test_locality_rejects_group_below_delta():
    code = gf4_code()
    small = LrcCode(field=code.field, generator=code.generator,
                    structure=CoverSet(6, [(1, 2, 3), (4,), (5, 6)]),
                    params=code.params, claimed_d=3)
    with pytest.raises(StructureMismatch):
        check_locality(small)


# ---------------------------------------------------------------------
# the shared per-group scan against a scan of each group alone
# ---------------------------------------------------------------------

# uniform, remainder (a short last group), hub frame, paired frame, and
# r | k partitions for the structure theorem
GROUP_SCAN_PARAMS = [(12, 5, 2, 3), (11, 5, 2, 2), (7, 4, 3, 2), (10, 3, 2, 2),
                     (10, 5, 3, 2), (13, 3, 2, 3), (10, 5, 2, 2), (12, 4, 2, 3),
                     (12, 6, 3, 2)]


def _with_columns(code, cols, structure=None):
    return LrcCode(field=code.field, generator=Matrix.from_columns(code.field, cols),
                   structure=structure or code.structure, params=code.params,
                   claimed_d=code.claimed_d)


def _assert_scan_matches_oracle(code):
    rep = check_locality(code)
    want = oracle_check_locality(code)
    # every recovery subset is eliminated where locality holds; a failing
    # group's stop at the batch that holds its witness
    assert rep == want and (rep.scanned == want.scanned if rep.overall
                            else rep.scanned <= want.scanned), (
        code.structure.groups, code.generator.row_data())
    p = code.params
    if p.k % p.r == 0 and p.r < p.k:
        assert check_structure_theorem(code) == oracle_structure_theorem(code)
    return rep


def _broken_variants(rng, code):
    """The code itself, then copies with one group broken (a column made
    parallel to another of its group, or zero) or pushed above rank r (a
    column replaced by a random one), and one with a group all zero."""
    f, cols = code.field, code.generator.columns()
    yield code
    for g in code.structure.groups:
        a, b = rng.sample(g, 2)
        parallel = list(cols)
        parallel[b - 1] = tuple(f.mul(rng.randrange(1, f.q), x) for x in cols[a - 1])
        yield _with_columns(code, parallel)
        zero = list(cols)
        zero[a - 1] = (0,) * len(cols[0])
        yield _with_columns(code, zero)
        wild = list(cols)
        wild[a - 1] = tuple(rng.randrange(f.q) for _ in cols[0])
        yield _with_columns(code, wild)
    # a group of rank 0: its subsets are all scanned, none below rank 0
    gone = list(cols)
    for x in code.structure.groups[-1]:
        gone[x - 1] = (0,) * len(cols[0])
    yield _with_columns(code, gone)


@pytest.mark.parametrize("kind", ["prime", "binary", "object"])
@pytest.mark.parametrize("t", GROUP_SCAN_PARAMS, ids=str)
def test_group_scan_matches_per_group_oracle(t, kind, monkeypatch):
    # the default prime field, a binary one, and a prime too large for
    # int64 products, whose kernel works on object arrays
    p = CodeParams(*t)
    field = {"prime": None, "object": field_make(2 ** 61 - 1),
             "binary": field_at_least(max(field_bound(p), p.n), "binary")}[kind]
    code = construct(p, field=field, seed=0)
    rng = random.Random(sum(t))
    failed = 0
    for trial, variant in enumerate(_broken_variants(rng, code)):
        if trial % 2:
            # a batch of one subset: the scan runs in many batches, and a
            # witness's batch is the witness alone
            monkeypatch.setattr(verify_mod, "_BATCH_CELLS", 1)
        failed += not _assert_scan_matches_oracle(variant).overall
        monkeypatch.undo()
    assert failed > 0


def test_group_scan_broken_group_beside_a_group_above_r(monkeypatch):
    # group 1 gets a parallel pair, group 2 a column outside its span
    code = construct(CodeParams(12, 4, 2, 3), field_make(997), seed=0)
    cols = code.generator.columns()
    cols[2] = tuple(code.field.mul(5, x) for x in cols[0])
    cols[5] = cols[9]
    broken = _with_columns(code, cols)
    for cells in (1 << 15, 1):
        monkeypatch.setattr(verify_mod, "_BATCH_CELLS", cells)
        rep = _assert_scan_matches_oracle(broken)
        assert [(e.rank, e.ok, e.witness) for e in rep.per_group] == [
            (2, False, (1, 3)), (3, False, None), (2, True, None)]
        assert rep.scanned == comb(4, 2) + (2 if cells == 1 else comb(4, 2))
        _, srep = check_structure_theorem(broken)
        assert srep.punctured_mds == (False, False, True)
        assert srep.messages == ("group 1: columns (1, 3) are dependent",
                                 "group 2 spans rank 3 != r = 2")


def test_group_scan_of_uneven_and_overlapping_groups(monkeypatch):
    # groups of sizes 1 to 4, some overlapping: subsets of different
    # sizes share each batch, padded with the zero column
    code = construct(CodeParams(12, 4, 2, 3), field_make(997), seed=0)
    cols = code.generator.columns()
    cols[7] = cols[4]
    cover = CoverSet(12, [(1, 2), (2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12), (12,)])
    uneven = _with_columns(code, cols, cover)
    for cells in (1 << 15, 7, 1):
        monkeypatch.setattr(verify_mod, "_BATCH_CELLS", cells)
        ok, srep = check_structure_theorem(uneven)
        assert (ok, srep) == oracle_structure_theorem(uneven)
        assert srep.punctured_mds == (True, True, False, True, False)
    # under locality, with groups of sizes 3 and 2 (subsets of sizes 2
    # and 1) and a zero column 11: at 12 cells a scan of group (11, 12)
    # alone takes 3 subsets a batch, one of width 2 only 1
    cols[10] = (0,) * len(cols[0])
    loc = LrcCode(field=code.field, generator=Matrix.from_columns(code.field, cols),
                  structure=CoverSet(12, [(1, 2, 3), (3, 4, 5), (6, 7, 8),
                                          (9, 10, 11), (11, 12)]),
                  params=CodeParams(12, 4, 2, 2), claimed_d=1)
    for cells in (1 << 15, 12, 7, 1):
        monkeypatch.setattr(verify_mod, "_BATCH_CELLS", cells)
        rep = _assert_scan_matches_oracle(loc)
        assert rep.per_group[-1].witness == (11,) and not rep.overall


def test_group_scan_rejects_a_repeated_member():
    code = gf4_code()
    twice = LrcCode(field=code.field, generator=code.generator,
                    structure=CoverSet(6, [(1, 1, 2), (3, 4, 5, 6)]),
                    params=CodeParams(6, 3, 3, 2), claimed_d=1)
    with pytest.raises(IndexOutOfRange):
        check_locality(twice)


# ---------------------------------------------------------------------
# batched subset scan against the scalar depth-first oracle
# ---------------------------------------------------------------------

SCAN_FIELDS = [field_make(2), field_make(3), field_make(2, 4), field_make(2, 8),
               field_make(499), field_make(2 ** 61 - 1)]
RANK_FIELDS = SCAN_FIELDS[:2] + [field_make(7)] + SCAN_FIELDS[2:]


def _dependent_matrix(rng, f, rows, cols):
    """Random columns, with zero, repeated and scaled ones mixed in so
    that deficient subsets are common at every size."""
    out = []
    for _ in range(cols):
        roll = rng.random()
        if out and roll < 0.3:
            out.append(tuple(f.mul(rng.randrange(1, f.q), x) for x in rng.choice(out)))
        elif roll < 0.4:
            out.append((0,) * rows)
        else:
            out.append(tuple(rng.randrange(f.q) for _ in range(rows)))
    return Matrix.from_columns(f, out)


@pytest.mark.parametrize("f", SCAN_FIELDS, ids=repr)
def test_first_deficient_matches_scalar_oracle(f, monkeypatch):
    # one group through the shared scan, as the certificate's subset
    # route asks it: any size from 1 to the group's, any target rank
    rng = random.Random(f.q % 1009)
    for trial in range(100):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 10)
        m = _dependent_matrix(rng, f, rows, cols)
        pool = tuple(range(1, cols + 1))
        if trial % 2:
            pool = tuple(sorted(rng.sample(pool, rng.randrange(1, cols + 1))))
        size = rng.randrange(1, len(pool) + 1)
        full = rng.randrange(1, rows + 1)
        if trial % 3 == 0:
            # batches of one subset, so the scan crosses many boundaries
            monkeypatch.setattr(verify_mod, "_BATCH_CELLS", 1)
        ranks, (got,), scanned = verify_mod._group_scan(
            m, [pool], lambda g, t: (size, full))
        monkeypatch.undo()
        assert ranks == [rank(m, pool)]
        assert got == oracle_first_deficient(m, size, full, cols=pool), (
            m.row_data(), size, full, pool)
        if got is None:
            assert scanned == comb(len(pool), size)
        elif trial % 3 == 0:
            assert scanned == list(combinations(pool, size)).index(got) + 1


# ---------------------------------------------------------------------
# minimum distance
# ---------------------------------------------------------------------

def test_distance_gf4_reference_both_methods():
    code = gf4_code()
    rep = min_distance(code)
    assert rep.d == 3 == distance_bound(code.params)
    assert rep.method == WEIGHT_METHOD
    # witness is a codeword of minimum weight
    assert sum(1 for x in rep.witness if x) == 3
    assert rep.scanned == (4 ** 3 - 1) // 3  # a codeword per line of messages
    rep2 = min_distance(code, budget=30)  # q^k = 64 > 30 forces the rank path
    assert rep2.d == 3
    assert rep2.method == RANK_METHOD
    assert list(rep2.witness) == [1, 2, 3]
    assert rep2.scanned == comb(6, 1)  # every pencil
    assert rank(code.generator, rep2.witness) < 3


@pytest.mark.parametrize("f", [f for f in RANK_FIELDS if f.q <= 1 << 9], ids=repr)
def test_weight_enumeration_matches_full_space_oracle(f, monkeypatch):
    # one message per line finds the full scan's d and its first
    # least-weight codeword, also on deficient generators (d = 0)
    rng = random.Random(f.q % 1021)
    ks = [k for k in range(1, 5) if f.q ** k <= 1 << 18]
    for trial in range(30):
        k = ks[trial % len(ks)]
        m = _dependent_matrix(rng, f, k, rng.randrange(k, 9))
        if trial % 3 == 0:
            # a message or two per batch, so that ties meet across batches
            monkeypatch.setattr(verify_mod, "_BATCH_CELLS",
                                (1 + trial % 2) * (k + m.cols))
        rep = verify_mod._weight_enumeration(m)
        monkeypatch.undo()
        assert (rep.d, rep.witness) == oracle_weight_enumeration(m), m.row_data()
        assert rep.method == WEIGHT_METHOD
        assert rep.scanned == (f.q ** k - 1) // (f.q - 1)


def test_distance_mds_generator():
    code = dummy_code(mds_generator(6, 3, field_make(7)))
    rep = min_distance(code)
    assert rep.d == 4  # n-k+1


def test_distance_identity_weight_one():
    code = dummy_code(Matrix(field_make(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert min_distance(code).d == 1
    assert min_distance(code, budget=5).d == 1


def test_distance_rank_deficient_generator():
    # by weights (a message of weight 0) and by the rank criterion (the
    # RREF), before any budget is checked
    m = Matrix.from_rows(field_make(3), [(1, 1, 0), (2, 2, 0)])
    for budget in (9, 1, 0):
        with pytest.raises(RankDeficient, match="generator rank 1 < k = 2"):
            min_distance(dummy_code(m), budget=budget)


def test_distance_budget_exceeded():
    code = dummy_code(mds_generator(8, 3, field_make(11)))
    with pytest.raises(BudgetExceeded):
        min_distance(code, budget=5)  # q^k and C(8,2) = 28 both above 5


def test_distance_budget_boundary():
    # the rank criterion scans the C(n, k-2) pencils: a budget of
    # exactly that many completes, one less is refused before any work
    code = dummy_code(mds_generator(8, 3, field_make(11)))
    rep = min_distance(code, budget=comb(8, 1))
    assert rep.method == RANK_METHOD and rep.d == 6
    assert rep.scanned == comb(8, 1)
    with pytest.raises(BudgetExceeded) as exc:
        min_distance(code, budget=comb(8, 1) - 1)
    assert "C(8,1) = 8 (k-2)-subsets" in str(exc.value)


def _full_rank_matrix(rng, f, k, n):
    while True:
        m = _dependent_matrix(rng, f, k, n)
        if rank(m) == k:
            return m


def _low_rank_matrix(rng, f, k, n):
    """n columns in the span of fewer than k random vectors."""
    basis = [tuple(rng.randrange(f.q) for _ in range(k))
             for _ in range(rng.randrange(0, k))]
    cols = []
    for _ in range(n):
        v = [0] * k
        for b in basis:
            c = rng.randrange(f.q)
            v = [f.add(x, f.mul(c, y)) for x, y in zip(v, b)]
        cols.append(v)
    return Matrix.from_columns(f, cols)


def _scan(m, size):
    """The pencil scan of m, from m's RREF."""
    return verify_mod._pencil_scan(m, size, verify_mod._echelon(m))


def _two_pencils_per_batch(monkeypatch, n):
    """Pencil batches of two: a pencil's batch row is its two rows of
    values on the n columns, 2n cells. The n-k+3 pencils through the
    first (k-3)-prefix then span at least two batches (for k >= 3 and
    n >= k)."""
    monkeypatch.setattr(verify_mod, "_BATCH_CELLS", 2 * 2 * n)


def _oracle_pencils(kern, m):
    """The oracle's pencils of m's independent (k-2)-subsets T = P + x, in
    lexicographic order: their values on every column (2 x N x n), each
    x (-1 for the empty T) and each span(P) mask (N x n)."""
    k, n = m.rows, m.cols
    columns = kern.array(m.columns()).reshape(n, k)
    want = kern.matmul(oracle_pencils(kern, columns), columns.T).transpose(1, 0, 2)
    subsets = [[i + 1 for i in T] for T in combinations(range(n), k - 2)
               if rank(m, [i + 1 for i in T]) == k - 2]
    assert len(subsets) == want.shape[1]
    last = np.array([T[-1] - 1 if T else -1 for T in subsets], dtype=np.int64)
    inside = np.array([[c in T[:-1] or rank(m, T[:-1] + [c]) == len(T[:-1])
                        for c in range(1, n + 1)] for T in subsets],
                      dtype=bool).reshape(len(subsets), n)
    return want, last, inside


def _assert_windows(batches, want, last, inside, most):
    """The batches of _pencils, at most `most` pencils each (None: any),
    are bit for bit the given pencils in order: their values on the
    batch's window, columns c0.. with c0 at most each x, each x, and each
    span(P) mask below the window."""
    at = 0
    for XY, x, below in batches:
        c0 = below.shape[1]
        rows = slice(at, at + x.size)
        assert x.size <= (most or x.size) and c0 <= max(0, int(x.min()))
        assert XY.dtype == want.dtype
        assert XY.tolist() == want[:, rows, c0:].tolist()
        assert x.tolist() == last[rows].tolist()
        assert below.tolist() == inside[rows, :c0].tolist()
        at += x.size
    assert at == last.size


@pytest.mark.parametrize("f", RANK_FIELDS, ids=repr)
def test_pencils_are_each_independent_subset_in_order(f, monkeypatch):
    # the functional tower's pencils psi of the independent (k-2)-subsets
    # T = P + x, in lexicographic order, each spanning its subset's own
    # nullspace; the scan's batches are bit for bit psi . c on every
    # column of the batch's window (from c0 <= each x on), with each x and
    # each span(P) mask below the window, at pencils one, two or all per
    # batch, on matrices of rank k and below
    rng = random.Random(f.q % 1051)
    kern = field_kernel(f)
    for trial in range(24):
        k = 2 + trial % 4
        n = rng.randrange(max(1, k - 2), 9)
        low = trial % 3 == 1
        m = (_low_rank_matrix if low else _dependent_matrix)(rng, f, k, n)
        columns = kern.array(m.columns()).reshape(n, k)
        psi = oracle_pencils(kern, columns)
        T = np.array(list(combinations(range(n), k - 2)), dtype=np.int64)
        nullspace, full = batch_nullspace(kern, columns[T.reshape(len(T), k - 2)])
        assert (row_spaces(kern, psi).tolist()
                == row_spaces(kern, nullspace[full]).tolist()), m.row_data()
        want = _oracle_pencils(kern, m)
        G = kern.array(m.row_data()).reshape(k, n)
        for most in (1, 2, None):
            if most == 1:
                monkeypatch.setattr(verify_mod, "_BATCH_CELLS", 1)
            elif most == 2:
                _two_pencils_per_batch(monkeypatch, n)
            got = list(verify_mod._pencils(kern, G, lambda: 0))
            monkeypatch.undo()
            _assert_windows(got, *want, most)


@pytest.mark.parametrize("f", RANK_FIELDS, ids=repr)
def test_rank_criterion_matches_descending_oracle(f, monkeypatch):
    rng = random.Random(f.q % 1013)
    for trial in range(40):
        k = rng.randrange(1, 6)
        n = k if trial % 5 == 0 else rng.randrange(k, 9)
        m = _full_rank_matrix(rng, f, k, n)
        work = comb(n, k - 2) if k > 1 else 1
        if trial % 3 == 0:
            # pencils one at a time, so ties meet across batches
            monkeypatch.setattr(verify_mod, "_BATCH_CELLS", 1)
        rep = verify_mod._rank_criterion(m, work, verify_mod._echelon(m))
        monkeypatch.undo()
        assert rep.method == RANK_METHOD and rep.scanned == work
        assert (rep.d, tuple(rep.witness)) == oracle_rank_criterion(m), (
            m.row_data())
    for k in (2, 3, 4, 5):
        m = _full_rank_matrix(rng, f, k, k + 3)
        _two_pencils_per_batch(monkeypatch, m.cols)
        rep = verify_mod._rank_criterion(m, comb(m.cols, k - 2),
                                         verify_mod._echelon(m))
        monkeypatch.undo()
        assert (rep.d, tuple(rep.witness)) == oracle_rank_criterion(m), (
            m.row_data())


@pytest.mark.parametrize("f", RANK_FIELDS, ids=repr)
def test_pencil_certificate_matches_subset_oracle(f, monkeypatch):
    # every size at once, on matrices of rank k down to 0: the first
    # deficient subset of each size, read off the hyperplanes
    rng = random.Random(f.q % 1019)
    for trial in range(40):
        k = rng.randrange(2, 6)
        n = rng.randrange(1, 9)
        m = _dependent_matrix(rng, f, k, n)
        if trial % 4 == 1:
            # rank k-1, k-2 or below: every column inside a few of them
            m = _low_rank_matrix(rng, f, k, n)
        if trial % 3 == 0:
            monkeypatch.setattr(verify_mod, "_BATCH_CELLS", 1)
        for size in range(n + 2):
            got, _ = _scan(m, size)
            assert got == oracle_first_deficient(m, size, k), (
                m.row_data(), size)
        monkeypatch.undo()
    for k in (2, 3, 4, 5):
        for m in (_dependent_matrix(rng, f, k, k + 3),
                  _low_rank_matrix(rng, f, k, k + 3)):
            _two_pencils_per_batch(monkeypatch, m.cols)
            for size in range(m.cols + 2):
                got, _ = _scan(m, size)
                assert got == oracle_first_deficient(m, size, k), (
                    m.row_data(), size)
            monkeypatch.undo()


def _sparse_matrix(rng, f, k, n):
    """n columns, each a combination of one or two of a few sparse
    vectors: many columns lie in the span of a few others, so hyperplanes
    hold many columns and subsets span columns besides their own."""
    base = [[rng.randrange(f.q) if rng.random() < 0.4 else 0 for _ in range(k)]
            for _ in range(rng.randrange(1, k + 2))]
    cols = []
    for _ in range(n):
        v = [0] * k
        for b in rng.sample(base, min(len(base), rng.randrange(1, 3))):
            c = rng.randrange(1, f.q)
            v = [f.add(x, f.mul(c, y)) for x, y in zip(v, b)]
        cols.append(v)
    return Matrix.from_columns(f, cols)


@pytest.mark.parametrize("f", [field_make(2), field_make(3), field_make(2, 2)],
                         ids=repr)
def test_pencil_scan_cuts_keep_both_answers(f, monkeypatch):
    # on sparse columns the canonical-prefix bound cuts subtrees at every
    # level; the cut scans still give the oracles' largest deficient set
    # and first deficient size-subset, with pencils one, two or a full
    # batch at a time, and label no more than the independent subsets:
    # one at a time, exactly those of the oracle's cut walk
    rng = random.Random(f.q * 37)
    cut = [0, 0]  # scans that labelled fewer pencils: distance, certificate
    for trial in range(50):
        k = 2 + trial % 5
        n = rng.randrange(k, 10)
        m = _sparse_matrix(rng, f, k, n)
        every = tuple(range(1, n + 1))
        largest = oracle_rank_criterion(m)[1] if rank(m) == k else every
        first = [oracle_first_deficient(m, size, k) for size in range(n + 2)]
        independent = sum(rank(m, T) == k - 2
                          for T in combinations(range(1, n + 1), k - 2))
        for most in (1, 2, None):
            if most == 1:
                monkeypatch.setattr(verify_mod, "_BATCH_CELLS", 1)
            elif most == 2:
                _two_pencils_per_batch(monkeypatch, n)
            got, labelled = _scan(m, None)
            assert got == largest, (m.row_data(), most)
            assert labelled <= independent
            assert most != 1 or labelled == oracle_labelled(m), m.row_data()
            cut[0] += labelled < independent
            for size in range(n + 2):
                got, labelled = _scan(m, size)
                assert got == first[size], (m.row_data(), most, size)
                assert labelled <= independent
                assert most != 1 or labelled == oracle_labelled(m, size), (
                    m.row_data(), size)
                cut[1] += labelled < independent
            monkeypatch.undo()
    assert min(cut) > 0, cut


@pytest.mark.parametrize("f", [field_make(2), field_make(3), field_make(2, 2)],
                         ids=repr)
def test_pencils_under_a_fixed_floor_are_the_uncut_ones(f, monkeypatch):
    # under a fixed floor the scan yields, bit for bit and in order, the
    # windows, each x and the span(P) masks of the oracle's pencils of the
    # subsets the oracle keeps, with pencils one, two or a full batch at a
    # time
    rng = random.Random(f.q * 41)
    kern = field_kernel(f)
    for trial in range(30):
        k = 3 + trial % 4
        n = rng.randrange(k, 10)
        m = _sparse_matrix(rng, f, k, n)
        G = kern.array(m.row_data()).reshape(k, n)
        want, last, inside = _oracle_pencils(kern, m)
        for floor in range(1, n + 2):
            keep = oracle_cut(m, floor)
            for most in (1, 2, None):
                if most == 1:
                    monkeypatch.setattr(verify_mod, "_BATCH_CELLS", 1)
                elif most == 2:
                    _two_pencils_per_batch(monkeypatch, n)
                got = list(verify_mod._pencils(kern, G, lambda: floor))
                monkeypatch.undo()
                _assert_windows(got, want[:, keep], last[keep], inside[keep], most)


def test_pencil_scan_of_no_independent_subset_labels_none():
    # rank k-3: no k-2 columns are independent, so every column set is
    # deficient; with nothing labelled, nothing was cut either
    rng = random.Random(5)
    f = field_make(3)
    for k in (3, 4, 5, 6):
        basis = [[rng.randrange(3) for _ in range(k)] for _ in range(k - 3)]
        cols = []
        for _ in range(k + 3):
            v = [0] * k
            for b in basis:
                c = rng.randrange(3)
                v = [f.add(x, f.mul(c, y)) for x, y in zip(v, b)]
            cols.append(v)
        m = Matrix.from_columns(f, cols)
        every = tuple(range(1, m.cols + 1))
        assert _scan(m, None) == (every, 0)
        for size in range(m.cols + 2):
            want = every[:size] if size <= m.cols else None
            assert _scan(m, size) == (want, 0)


def test_certificate_scan_cuts_all_but_the_first_prefix(monkeypatch):
    # no hyperplane of an MDS generator holds n columns. The floor is set
    # before the tower expands anything: at floor n only the prefixes of
    # T0 = (1, 2, 3), whose earlier columns all lie in their span, reach
    # the bound, and above n none do. The scan still answers None rather
    # than report the every-set of a degenerate one
    m = mds_generator(9, 5, field_make(11))
    kern = field_kernel(m.field)
    G = kern.array(m.row_data()).reshape(5, 9)
    assert list(verify_mod._pencils(kern, G, lambda: 10)) == []
    monkeypatch.setattr(verify_mod, "_BATCH_CELLS", 1)
    for size, labelled in ((9, 1), (10, 0)):
        assert oracle_labelled(m, size) == labelled
        assert _scan(m, size) == (None, labelled)
    # the distance scan cuts too, and finds the first k-1 columns
    largest, labelled = _scan(m, None)
    assert largest == (1, 2, 3, 4) and labelled < comb(9, 3)


def test_pencil_scan_keeps_a_hyperplane_that_meets_its_bound(monkeypatch):
    # (3, 4, 5, 6) is the only deficient 4-set. Its canonical prefix (3, 4)
    # is reached from (3), which spans no earlier column, so the bound
    # allows 1 + (6 - 3) = 4 columns, exactly the size sought: that subtree
    # must not be cut
    m = Matrix.from_columns(field_make(5), [(2, 4, 0, 2), (0, 3, 0, 4),
                                            (1, 1, 2, 0), (0, 4, 4, 0),
                                            (4, 3, 0, 0), (4, 4, 2, 0)])
    assert oracle_first_deficient(m, 4, 4) == (3, 4, 5, 6)
    monkeypatch.setattr(verify_mod, "_BATCH_CELLS", 1)
    assert _scan(m, 4) == ((3, 4, 5, 6), oracle_labelled(m, 4))


def test_pencil_scan_labels_fewer_on_the_fixtures():
    # the stored (20,8,4,2) code: d = 12 and OPTIMAL, each scan covering
    # C(20,6) = 38,760 subsets but labelling fewer of their pencils; the
    # counts are pinned, as the floor rises while the scan runs, so a
    # change to the cut or to the batch layout shows here
    code = load_code(FIXTURES / "verify-20-8-4-2.json").code
    ok, cert = certify_optimal(code)  # no facts yet: its own scan
    assert ok and (cert.route, cert.scanned) == (verify_mod.PENCIL_ROUTE, 38760)
    rep = min_distance(code)
    assert (rep.d, rep.witness, rep.scanned) == (12, tuple(range(1, 9)), 38760)
    assert (rep.labelled, cert.labelled) == (12520, 12520)
    # once d = 12 is known, the certificate reads it: 12 >= the bound 12
    ok, warm = certify_optimal(code)
    assert ok and warm == cert
    assert (warm.route, warm.scanned, warm.labelled, warm.known_d) == (
        verify_mod.DISTANCE_ROUTE, 0, 0, 12)


def test_distance_scan_of_the_fixture_bounds_peak_memory():
    # the cold distance scan of the stored (20,8,4,2) code peaks near
    # 1.87 MiB under tracemalloc: each pencil is labelled on its own
    # window alone, by one sort of its batch's keys, and the last
    # annihilator step takes only the batch's window (2.16 MiB when every
    # pencil was labelled on all n columns by a per-row sort)
    code = load_code(FIXTURES / "verify-20-8-4-2.json").code
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        rep = min_distance(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert (rep.d, rep.labelled) == (12, 12520)
    assert peak <= 31 << 16, peak


@pytest.mark.parametrize("name, labelled", [("verify-20-8-4-2.json", 12520),
                                            ("verify-18-8-3-2.json", 3421),
                                            ("verify-18-7-4-2.json", 3015)])
def test_distance_and_certificate_scans_label_alike_on_optimal_fixtures(
        name, labelled):
    # on an optimal code the largest hyperplane has s - 1 columns, and the
    # seed pencil already holds one: both scans run at floor s throughout
    code = load_code(FIXTURES / name).code
    ok, cert = certify_optimal(code)
    assert ok and cert.route == verify_mod.PENCIL_ROUTE
    rep = min_distance(code)
    assert rep.method == RANK_METHOD
    assert code.params.n - rep.d + 1 == cert.subset_size
    assert rep.labelled == cert.labelled == labelled


@pytest.mark.parametrize("f", [field_make(2), field_make(3), field_make(2, 2)],
                         ids=repr)
def test_seed_pencil_has_the_classes_of_the_towers_first(f):
    # the generator's RREF's last two rows vanish on its first k-2 pivots,
    # the tower's first subset: they name the same hyperplanes (the same
    # slope classes and span(T)) as the tower's first pencil, by other
    # functionals
    rng = random.Random(f.q * 43)
    kern = field_kernel(f)
    seen = 0
    for trial in range(40):
        k = 2 + trial % 5
        n = rng.randrange(k, 10)
        m = (_sparse_matrix if trial % 2 else _full_rank_matrix)(rng, f, k, n)
        R = verify_mod._echelon(m)
        assert R[0].any(axis=1).sum() == rank(m)
        if rank(m) < k:
            continue
        seen += 1
        G = kern.array(m.row_data()).reshape(k, n)
        XY, x, below = next(verify_mod._pencils(kern, G, lambda: 0))
        # the first pencil on its window, with span(P) below it put back:
        # every column below the first subset's last lies in span(P)
        label, span, sizes = verify_mod._pencil_hyperplanes(
            kern, XY[:, :1], x[:1], below[:1])
        c0 = below.shape[1]
        assert below[0].all()
        first = (np.hstack([np.full((1, c0), -1, dtype=label.dtype), label]),
                 np.hstack([below[:1], span]),
                 np.hstack([np.zeros((1, c0), dtype=sizes.dtype), sizes]))
        seed = verify_mod._pencil_hyperplanes(
            kern, R[0, k - 2:, None], np.array([-1]), np.zeros((1, 0), dtype=bool))
        classes = []
        for label, span, sizes in (seed, first):
            classes.append((span.tolist(), sizes.tolist(),
                            (label[0][:, None] == label[0][None, :]).tolist()))
        assert classes[0] == classes[1], m.row_data()
    assert seen >= 20


@pytest.mark.parametrize("f", [field_make(2 ** 61 - 1), field_make(3037000493)],
                         ids=repr)
def test_pencil_scan_keys_its_classes_in_the_fields_dtype(f):
    # a class key is a pencil's batch row times q + 1 plus its label, which
    # passes 2^63 from the fifth row on at q = 2^61 - 1; 3,037,000,493 is
    # the largest prime on int64 residues. With every subset of a level in
    # one batch, five pencils or more, the scans of optimal codes, and of
    # their edits with one column a multiple of another, give the oracles'
    # d, witness, first deficient s-sets and labelled counts: each floor
    # is read before any pencil is labelled, so the distance scan's stays
    # at its seed
    rng = random.Random(f.q % 1031)
    seen = 0
    for params in ((9, 4, 2, 2), (10, 5, 3, 2), (10, 4, 3, 3)):
        p = CodeParams(*params)
        code = construct(p, field=f, seed=0)
        s = p.k + (p.mu - 1) * (p.delta - 1)
        columns = code.generator.columns()
        edits = [columns]
        for _ in range(3):
            i, j = rng.sample(range(p.n), 2)
            edit = list(columns)
            edit[j] = tuple(f.mul(rng.randrange(1, f.q), v) for v in columns[i])
            edits.append(edit)
        for cols in edits:
            m = Matrix.from_columns(f, cols)
            if rank(m) < p.k:
                continue
            seen += 1
            n = p.n
            assert 5 <= comb(n, p.k - 2) <= verify_mod._BATCH_CELLS // (2 * n)
            largest, labelled = _scan(m, None)
            assert (n - len(largest), largest) == oracle_rank_criterion(m), cols
            assert labelled == oracle_cut(m, oracle_seed_floor(m)).sum(), cols
            assert cols is not columns or n - len(largest) == distance_bound(p)
            for size in (s - 1, s, s + 1):
                got = _scan(m, size)
                assert got == (oracle_first_deficient(m, size, p.k),
                               oracle_labelled(m, size)), (cols, size)
    assert seen >= 9


def test_distance_methods_agree_on_random_codes():
    # white-box cross-check of the two exact engines on small random codes
    rng = random.Random(97)
    f = field_make(7)
    trials = 0
    while trials < 80:
        # the rank-path budget q^k-1 stays above C(n, k-1) at these sizes
        n = rng.randrange(5, 9)
        k = rng.randrange(3, 5)
        m = Matrix.from_rows(
            f, [[rng.randrange(7) for _ in range(n)] for _ in range(k)])
        if rank(m) != k:
            continue
        trials += 1
        code = dummy_code(m)
        by_weight = min_distance(code, budget=7 ** k)
        by_rank = min_distance(code, budget=7 ** k - 1)
        assert by_weight.method == WEIGHT_METHOD
        assert by_rank.method == RANK_METHOD
        assert by_weight.d == by_rank.d


def test_distance_binary_extension_field():
    rng = random.Random(13)
    f = field_make(2, 3)
    for _ in range(20):
        n = rng.randrange(3, 8)
        k = rng.randrange(2, min(3, n - 1) + 1)
        m = Matrix.from_rows(
            f, [[rng.randrange(8) for _ in range(n)] for _ in range(k)])
        if rank(m) != k:
            continue
        code = dummy_code(m)
        assert min_distance(code, budget=8 ** k).d == min_distance(
            code, budget=8 ** k - 1).d


# ---------------------------------------------------------------------
# optimality certificates
# ---------------------------------------------------------------------

def test_certify_optimal_positive():
    code = construct(CodeParams(6, 3, 2, 2), field_make(17), seed=0)
    ok, rep = certify_optimal(code)
    assert ok and rep.ok
    assert rep.bound_d == 3
    assert rep.subset_size == 4
    assert rep.subsets_total == 15
    # C(6,1) = 6 pencils are fewer than the C(6,4) = 15 subsets
    assert (rep.route, rep.scanned) == (verify_mod.PENCIL_ROUTE, 6)
    assert rep.witness is None
    assert rep.locality.overall
    assert rep.note == ("every 4-column set of full rank 3 gives d >= 3; "
                        "(r,delta) locality gives d <= 3; together d = 3")


def test_certify_optimal_detects_rank_gap():
    # locality holds but total rank is 2 < k: every 4-subset is deficient
    f = field_make(17)
    m = Matrix.from_columns(f, [(1, 0, 0), (0, 1, 0), (1, 1, 0),
                                (1, 0, 0), (0, 1, 0), (1, 2, 0)])
    code = LrcCode(field=f, generator=m, structure=uniform_partition(6, 2, 2),
                   params=CodeParams(6, 3, 2, 2), claimed_d=3)
    assert check_locality(code).overall
    ok, rep = certify_optimal(code)
    assert not ok
    assert rep.route == verify_mod.PENCIL_ROUTE
    assert rep.witness == (1, 2, 3, 4)
    assert "rank below 3" in rep.note
    _cold_and_warm(code)


def test_certify_optimal_rank_far_below_k():
    # rank 2 < k-2 = 3: no 3 columns are independent, so no pencil
    # exists, and the certificate must still refuse, not pass vacuously
    f = field_make(5)
    pts = [(1, 0), (0, 1), (1, 1), (1, 2)]
    cols = [pts[i % 4] + (0, 0, 0) for i in (0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3)]
    m = Matrix.from_columns(f, cols)
    code = LrcCode(field=f, generator=m, structure=uniform_partition(12, 2, 2),
                   params=CodeParams(12, 5, 2, 2), claimed_d=6)
    assert check_locality(code).overall
    ok, rep = certify_optimal(code)
    assert not ok
    # C(12,3) = 220 pencils against C(12,7) = 792 subsets
    assert (rep.route, rep.scanned, rep.subsets_total) == (
        verify_mod.PENCIL_ROUTE, 220, 792)
    assert rep.witness == (1, 2, 3, 4, 5, 6, 7)
    _cold_and_warm(code)


def test_certify_optimal_routes_by_counted_work():
    # (8,6,3,2): s = 7 and C(8,7) = 8 subsets beat C(8,4) = 70 pencils;
    # (9,4,2,2): s = 5 and C(9,2) = 36 pencils beat C(9,5) = 126 subsets
    for params, route, scanned, total in [
            (CodeParams(8, 6, 3, 2), verify_mod.SUBSET_ROUTE, 8, 8),
            (CodeParams(9, 4, 2, 2), verify_mod.PENCIL_ROUTE, 36, 126)]:
        code = construct(params, seed=0)
        ok, rep = certify_optimal(code)
        assert ok and rep.witness is None
        assert (rep.route, rep.scanned, rep.subsets_total) == (route, scanned, total)
        # the budget gate counts the route taken, and names its binomial
        with pytest.raises(BudgetExceeded) as exc:
            certify_optimal(code, budget=scanned - 1)
        unit = "subset checks" if route == verify_mod.SUBSET_ROUTE else "(k-2)-subsets"
        assert f"= {scanned} {unit}" in str(exc.value)
        # a zero last row keeps locality but leaves rank k-1 overall
        rows = [list(r) for r in code.generator.row_data()]
        rows[-1] = [0] * params.n
        broken = LrcCode(field=code.field, generator=Matrix.from_rows(code.field, rows),
                         structure=code.structure, params=params,
                         claimed_d=code.claimed_d)
        ok, rep = certify_optimal(broken)
        assert rep.locality.overall and not ok and rep.route == route
        assert rep.witness == tuple(range(1, rep.subset_size + 1))
        _cold_and_warm(broken)


def test_certify_optimal_fails_on_locality():
    f = field_make(17)
    m = Matrix.from_columns(f, [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                (1, 1, 0), (1, 2, 0), (1, 3, 0)])
    code = LrcCode(field=f, generator=m, structure=uniform_partition(6, 2, 2),
                   params=CodeParams(6, 3, 2, 2), claimed_d=3)
    ok, rep = certify_optimal(code)
    assert not ok
    assert rep.note == "locality check failed"
    assert rep.witness is None
    _cold_and_warm(code)


def test_certify_optimal_budget():
    code = construct(CodeParams(6, 3, 2, 2), field_make(17), seed=0)
    assert certify_optimal(code, budget=6)[0]
    with pytest.raises(BudgetExceeded) as exc:
        certify_optimal(code, budget=5)  # needs C(6,1) = 6 pencils
    assert "C(6,1) = 6 (k-2)-subsets" in str(exc.value)


def _cold_and_warm(code, budget=verify_mod.DEFAULT_BUDGET):
    """certify_optimal on a fresh copy of code's generator, which holds
    no facts, and on code after check_locality and min_distance(code,
    budget); the two reports must agree on every compared field (ok,
    bound_d, subset_size, subsets_total, witness, locality and note).
    The second reads its verdict off d when locality holds and d >= the
    bound, and otherwise scans as the first did."""
    m = code.generator
    cold = certify_optimal(
        replace(code, generator=Matrix.from_rows(m.field, m.row_data())))[1]
    check_locality(code)
    try:
        d = min_distance(code, budget=budget).d
    except RankDeficient:
        d = None
    warm = certify_optimal(code)[1]
    assert warm == cold and warm.locality.scanned == cold.locality.scanned
    if cold.ok and d is not None:
        assert d >= cold.bound_d
        assert (warm.route, warm.scanned, warm.labelled, warm.known_d) == (
            verify_mod.DISTANCE_ROUTE, 0, 0, d)
    else:
        assert (warm.route, warm.scanned, warm.labelled, warm.known_d) == (
            cold.route, cold.scanned, cold.labelled, None)
    return cold, warm, d


# GROUP_SCAN_PARAMS (partitions and frames), then (8,6,3,2) on the subset
# route, (9,4,2,2) on the pencil route, two k = 1 codes and an r = k code
# of two groups
CERTIFY_PARAMS = GROUP_SCAN_PARAMS + [(8, 6, 3, 2), (9, 4, 2, 2), (6, 1, 1, 3),
                                      (6, 1, 1, 2), (8, 3, 3, 2)]


def test_certificate_reads_known_facts_as_it_would_scan():
    # the oracle codes and their broken variants, after the weight engine
    # (a budget of q^k, where q^k is small) and the rank engine (q^k - 1)
    seen = {"route": set(), "engine": set(), "not optimal, d known": 0,
            "not optimal, rank below k": 0, "locality failed": 0}
    for t in CERTIFY_PARAMS:
        p = CodeParams(*t)
        code = construct(p, seed=0)
        q = code.field.q
        budgets = [q ** p.k - 1] + ([q ** p.k] if q ** p.k <= 2 * 10 ** 6 else [])
        rng = random.Random(sum(t))
        for variant, budget in product(_broken_variants(rng, code), budgets):
            cold, warm, d = _cold_and_warm(variant, budget)
            seen["route"] |= {cold.route, warm.route}
            seen["engine"].add(WEIGHT_METHOD if budget == q ** p.k else RANK_METHOD)
            if not cold.locality.overall:
                seen["locality failed"] += 1
            elif not cold.ok:
                seen["not optimal, rank below k" if d is None
                     else "not optimal, d known"] += 1
                assert cold.witness == oracle_first_deficient(
                    variant.generator, cold.subset_size, p.k)
    assert seen.pop("route") == {None, verify_mod.PENCIL_ROUTE,
                                 verify_mod.SUBSET_ROUTE, verify_mod.DISTANCE_ROUTE}
    assert seen.pop("engine") == {WEIGHT_METHOD, RANK_METHOD}
    assert min(seen.values()) > 0, seen


def test_certificate_keys_what_it_remembers_by_content():
    # the facts belong to the generator object, proven from its entries:
    # an edit makes a new Matrix, which holds none of the old one's.
    # (8,3,3,2): two groups of 4 with r = k, so locality asks that every 3
    # columns of a group be independent, the certificate that every 3
    # columns be; a one-entry edit that puts a column in the plane of two
    # columns of the other group keeps locality and breaks the certificate
    code = construct(CodeParams(8, 3, 3, 2), seed=0)
    assert min_distance(code).d == 6
    ok, rep = certify_optimal(code)
    assert ok and rep.route == verify_mod.DISTANCE_ROUTE
    # other groups, or another delta, on the same object are other facts:
    # one group leaves 5..8 uncovered, and at delta = 3 two columns of a
    # group cannot reach its rank 3
    structure, params = code.structure, code.params
    code.structure = CoverSet(8, structure.groups[:1])
    assert certify_optimal(code)[1].note == "locality check failed"
    code.structure, code.params = structure, CodeParams(8, 3, 3, 3)
    assert certify_optimal(code)[1].note == "locality check failed"
    code.params = params
    f, rows = code.field, code.generator.row_data()
    for i, j, v in product(range(3), range(8), range(f.q)):
        edited = [list(row) for row in rows]
        edited[i][j] = v
        m = Matrix.from_rows(f, edited)
        bad = oracle_first_deficient(m, 3, 3)
        if (bad is not None and rank(m) == 3
                and oracle_check_locality(replace(code, generator=m)).overall):
            break
    else:
        raise AssertionError("no one-entry edit keeps locality and breaks optimality")
    code.generator = m  # the same LrcCode object, holding the edited matrix
    ok, rep = certify_optimal(code)
    assert not ok and rep.locality.overall and rep.witness == bad
    assert rep.route == verify_mod.PENCIL_ROUTE and rep.known_d is None


def test_facts_live_on_the_generator_object():
    # two loads of one file are two generators: a d proven on the first
    # is not the second's, whose certificate runs its own scan; a copy of
    # the code that shares the generator reads it. No module memo remains
    first, second = (load_code(FIXTURES / "verify-20-8-4-2.json").code
                     for _ in range(2))
    assert first.generator == second.generator
    assert min_distance(first).d == 12
    warm = certify_optimal(first)[1]
    assert (warm.route, warm.scanned, warm.labelled, warm.known_d) == (
        verify_mod.DISTANCE_ROUTE, 0, 0, 12)
    cold = certify_optimal(second)[1]
    assert (cold.route, cold.scanned, cold.labelled, cold.known_d) == (
        verify_mod.PENCIL_ROUTE, 38760, 12520, None)
    shared = replace(first, structure=CoverSet(20, first.structure.groups))
    assert certify_optimal(shared)[1].known_d == 12
    assert not hasattr(verify_mod, "_KNOWN")


def test_certificate_budget_gate_comes_before_a_known_distance():
    # a known d never turns "out of budget" into a verdict: the gate
    # counts the route's own scan, C(n,s) subsets or C(n,k-2) pencils
    for params, work, need in [
            (CodeParams(8, 6, 3, 2), 8, "C(8,7) = 8 subset checks"),
            (CodeParams(9, 4, 2, 2), 36, "C(9,2) = 36 (k-2)-subsets")]:
        code = construct(params, seed=0)
        with pytest.raises(BudgetExceeded) as cold:
            certify_optimal(code, budget=work - 1)
        check_locality(code)
        min_distance(code)
        with pytest.raises(BudgetExceeded) as warm:
            certify_optimal(code, budget=work - 1)
        assert str(warm.value) == str(cold.value) == (
            f"optimality certification needs {need}, budget is {work - 1}")
        ok, rep = certify_optimal(code, budget=work)
        assert ok and rep.route == verify_mod.DISTANCE_ROUTE


# ---------------------------------------------------------------------
# structure theorem
# ---------------------------------------------------------------------

def test_structure_theorem_positive():
    code = construct(CodeParams(12, 4, 2, 3), field_make(997), seed=0)
    ok, rep = check_structure_theorem(code)
    assert ok and rep.ok
    assert rep.disjoint and rep.sizes_ok
    assert rep.punctured_mds == (True, True, True)
    assert rep.messages == ()


def test_structure_theorem_preconditions():
    code = construct(CodeParams(12, 5, 2, 3), field_make(499), seed=0)
    with pytest.raises(PreconditionViolated):
        check_structure_theorem(code)  # r does not divide k
    mds = construct(CodeParams(4, 3, 3, 2), field_make(17), seed=0)
    with pytest.raises(PreconditionViolated):
        check_structure_theorem(mds)  # r = k


def test_structure_theorem_rejects_overlap_and_sizes():
    code = construct(CodeParams(12, 4, 2, 3), field_make(997), seed=0)
    shuffled = LrcCode(
        field=code.field, generator=code.generator,
        structure=CoverSet(12, [(1, 2, 3, 4), (4, 5, 6, 7), (8, 9, 10)]),
        params=code.params, claimed_d=code.claimed_d)
    ok, rep = check_structure_theorem(shuffled)
    assert not ok
    assert not rep.disjoint and not rep.sizes_ok
    assert any("overlaps" in s for s in rep.messages)
    assert any("size 3" in s for s in rep.messages)


def test_structure_theorem_rejects_groups_that_miss_coordinates():
    # the theorem describes a partition of all n coordinates: two of the
    # three groups, or none, fail and name what they leave out
    code = construct(CodeParams(12, 4, 2, 3), field_make(997), seed=0)
    for groups, missing in ((code.structure.groups[:2], (9, 10, 11, 12)),
                            ((), tuple(range(1, 13)))):
        cut = replace(code, structure=CoverSet(12, groups))
        ok, rep = check_structure_theorem(cut)
        assert not ok and not rep.ok
        assert rep.disjoint and rep.sizes_ok and all(rep.punctured_mds)
        assert rep.messages == (f"coordinates {missing} are in no group",)
        assert (ok, rep) == oracle_structure_theorem(cut)


def test_structure_theorem_rejects_dependent_group_columns():
    # group 1 keeps rank r=2 but columns 1,2 are parallel: punctured code
    # is not MDS
    f = field_make(5)
    m = Matrix.from_columns(f, [(1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0),
                                (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)])
    code = LrcCode(field=f, generator=m,
                   structure=CoverSet(6, [(1, 2, 3), (4, 5, 6)]),
                   params=CodeParams(6, 4, 2, 2), claimed_d=1)
    ok, rep = check_structure_theorem(code)
    assert not ok
    assert rep.punctured_mds == (False, True)
    assert any("columns (1, 2) are dependent" in s for s in rep.messages)
