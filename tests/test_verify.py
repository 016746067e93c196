import random

import pytest

from lrcodes.construct import LrcCode, construct, mds_generator
from lrcodes.covers import CoverSet, uniform_partition
from lrcodes.errors import (
    BudgetExceeded,
    DimensionMismatch,
    PreconditionViolated,
    RankDeficient,
    StructureMismatch,
)
from lrcodes.gf import field_make
from lrcodes.linalg import Matrix, rank
from lrcodes.params import CodeParams, distance_bound
from lrcodes.verify import (
    RANK_METHOD,
    WEIGHT_METHOD,
    certify_optimal,
    check_locality,
    check_mds,
    check_structure_theorem,
    min_distance,
)

import lrcodes.verify as verify_mod
from deficient_oracle import oracle_first_deficient

F4 = field_make(2, 2)


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


def test_locality_rejects_group_below_delta():
    code = gf4_code()
    small = LrcCode(field=code.field, generator=code.generator,
                    structure=CoverSet(6, [(1, 2, 3), (4,), (5, 6)]),
                    params=code.params, claimed_d=3)
    with pytest.raises(StructureMismatch):
        check_locality(small)


# ---------------------------------------------------------------------
# batched subset scan against the scalar depth-first oracle
# ---------------------------------------------------------------------

SCAN_FIELDS = [field_make(2), field_make(3), field_make(2, 4), field_make(2, 8),
               field_make(499), field_make(2 ** 61 - 1)]


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
    rng = random.Random(f.q % 1009)
    for trial in range(100):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 10)
        m = _dependent_matrix(rng, f, rows, cols)
        pool = None
        if trial % 2:
            pool = sorted(rng.sample(range(1, cols + 1), rng.randrange(0, cols + 1)))
        size = rng.randrange(0, (cols if pool is None else len(pool)) + 2)
        full = rng.randrange(1, rows + 1)
        if trial % 3 == 0:
            # batches of one subset, so the scan crosses many boundaries
            monkeypatch.setattr(verify_mod, "_BATCH_CELLS", 1)
        got = verify_mod._first_deficient(m, size, full, cols=pool)
        monkeypatch.undo()
        assert got == oracle_first_deficient(m, size, full, cols=pool), (
            m.row_data(), size, full, pool)


def test_first_deficient_beyond_pool_size():
    m = mds_generator(5, 3, field_make(7))
    assert verify_mod._first_deficient(m, 6, 3) is None
    assert verify_mod._first_deficient(m, 3, 3, cols=(1, 2)) is None
    assert verify_mod._first_deficient(m, 0, 1) == ()


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
    rep2 = min_distance(code, budget=30)  # q^k = 64 > 30 forces the rank path
    assert rep2.d == 3
    assert rep2.method == RANK_METHOD
    assert list(rep2.witness) == [1, 2, 3]
    assert rank(code.generator, rep2.witness) < 3


def test_distance_mds_generator():
    code = dummy_code(mds_generator(6, 3, field_make(7)))
    rep = min_distance(code)
    assert rep.d == 4  # n-k+1
    assert check_mds(code.generator)


def test_distance_identity_weight_one():
    code = dummy_code(Matrix.identity(field_make(3), 3))
    assert min_distance(code).d == 1
    assert min_distance(code, budget=5).d == 1


def test_distance_rank_deficient_generator():
    m = Matrix.from_rows(field_make(3), [(1, 1, 0), (2, 2, 0)])
    with pytest.raises(RankDeficient):
        min_distance(dummy_code(m))


def test_distance_budget_exceeded():
    code = dummy_code(mds_generator(8, 3, field_make(11)))
    with pytest.raises(BudgetExceeded):
        min_distance(code, budget=5)  # q^k and C(8,7) both above 5


def test_distance_methods_agree_on_random_codes():
    # white-box cross-check of the two exact engines on small random codes
    rng = random.Random(97)
    f = field_make(7)
    trials = 0
    while trials < 80:
        # k >= 3 keeps the rank-path budget q^k-1 above every C(n,s)
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
    assert rep.witness == (1, 2, 3, 4)
    assert "rank below 3" in rep.note


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


def test_certify_optimal_budget():
    code = construct(CodeParams(6, 3, 2, 2), field_make(17), seed=0)
    with pytest.raises(BudgetExceeded):
        certify_optimal(code, budget=14)  # needs C(6,4) = 15 checks


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


# ---------------------------------------------------------------------
# MDS predicate
# ---------------------------------------------------------------------

def test_check_mds():
    assert check_mds(mds_generator(7, 3, field_make(7)))
    code = gf4_code()
    sub = Matrix.from_columns(F4, [code.generator.column(j) for j in (4, 5, 6)])
    assert not check_mds(sub)  # columns 5,6 are parallel over GF(4)
    with pytest.raises(DimensionMismatch):
        check_mds(Matrix.from_rows(field_make(5), [(1,), (0,)]))
