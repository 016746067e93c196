import random
from itertools import combinations

import numpy as np
import pytest

from lrcodes.cores import (
    CoreQuery,
    core_mask,
    is_core,
    lambda_cores,
    omega0,
)
from lrcodes.covers import Frame, hub_frame, paired_frame, remainder_partition, uniform_partition
from lrcodes.errors import IndexOutOfRange


def hetero_frame_37() -> Frame:
    """Eight groups of size five on [37]: two hub blocks plus three tail groups."""
    return Frame(
        37,
        groups=[(1, 2, 3, 4, 5), (1, 6, 7, 8, 9), (1, 10, 11, 12, 13),
                (14, 15, 16, 17, 18), (14, 19, 20, 21, 22),
                (23, 24, 25, 26, 27), (28, 29, 30, 31, 32),
                (33, 34, 35, 36, 37)],
        hub_blocks=[(1, 2, 3), (4, 5)],
        tail_block=(6, 7, 8),
        hubs=(1, 14),
    )


# ---------------------------------------------------------------------
# CoreQuery
# ---------------------------------------------------------------------

def test_query_normalizes_ground():
    p = uniform_partition(6, 2, 2)
    q = CoreQuery(structure=p, r=2, k=3, delta=2, ground=(5, 1, 5, 2, 1))
    assert q.ground == (1, 2, 5)
    q2 = q.with_ground([4, 4, 6])
    assert q2.ground == (4, 6)
    assert q.ground == (1, 2, 5)
    assert q2.structure is p and q2.k == 3


def test_query_rejects_out_of_range_ground():
    p = uniform_partition(6, 2, 2)
    with pytest.raises(IndexOutOfRange):
        CoreQuery(structure=p, r=2, k=3, delta=2, ground=(0, 1))
    with pytest.raises(IndexOutOfRange):
        CoreQuery(structure=p, r=2, k=3, delta=2, ground=(1, 7))


# ---------------------------------------------------------------------
# is_core
# ---------------------------------------------------------------------

def test_is_core_partition_caps():
    # groups {1,2,3,4} {5,6,7,8} {9,10,11,12}, cap 2 per group
    q = CoreQuery(structure=uniform_partition(12, 2, 3), r=2, k=5, delta=3)
    assert is_core((1, 2, 5, 6, 9), q)
    assert is_core((1, 4, 6, 7, 12), q)
    assert not is_core((1, 2, 3, 5, 9), q)
    assert not is_core((9, 10, 11), q)
    assert is_core((), q)
    assert is_core((7,), q)


def test_is_core_rejects_out_of_range():
    q = CoreQuery(structure=uniform_partition(6, 2, 2), r=2, k=3, delta=2)
    with pytest.raises(IndexOutOfRange):
        is_core((1, 99), q)


def test_is_core_frame_hub_split():
    q = CoreQuery(structure=hetero_frame_37(), r=3, k=7, delta=3)
    # hub 1 present: every group of its block may reach r=3
    assert is_core((1, 2, 3, 6, 7, 10, 11), q)
    # hub 1 absent: one designated group may reach 3, the others stay <= 2,
    # but here both {2,3,4} and {6,7,8} hit 3
    assert not is_core((2, 3, 4, 6, 7, 8, 28), q)
    # same set minus one element of the second group is fine
    assert is_core((2, 3, 4, 6, 7, 28), q)
    assert is_core((), q)
    # tail group cap is r regardless of hubs
    assert is_core((23, 24, 25), q)
    assert not is_core((23, 24, 25, 26), q)


def test_is_core_frame_hub_counts_toward_cap():
    # with the hub taken, a hub group still may not exceed r elements
    q = CoreQuery(structure=hetero_frame_37(), r=3, k=7, delta=3)
    assert not is_core((1, 2, 3, 4), q)
    assert is_core((1, 2, 3), q)


# ---------------------------------------------------------------------
# omega0
# ---------------------------------------------------------------------

def test_omega0_partitions():
    o = omega0(uniform_partition(6, 2, 2), 2, 2)
    assert o.indices == (1, 2, 4, 5)
    assert o.per_group_picks == ((1, 2), (4, 5))
    o = omega0(uniform_partition(12, 2, 3), 2, 3)
    assert o.indices == (1, 2, 5, 6, 9, 10)
    # single group, r=1: exactly one pick survives
    o = omega0(uniform_partition(3, 1, 3), 1, 3)
    assert o.indices == (1,)
    assert o.per_group_picks == ((1,),)


def test_omega0_partition_pick_sizes():
    rng = random.Random(11)
    for _ in range(60):
        delta = rng.randrange(2, 5)
        r = rng.randrange(1, 5)
        t = rng.randrange(1, 5)
        n = t * (r + delta - 1)
        s = uniform_partition(n, r, delta)
        o = omega0(s, r, delta)
        for g, pick in zip(s.groups, o.per_group_picks):
            assert len(pick) == len(g) - delta + 1
            assert set(pick) <= set(g)
        assert o.indices == tuple(sorted(set().union(*o.per_group_picks)))


def test_omega0_hub_frames():
    o = omega0(hub_frame(8, 2, 2), 2, 2)
    assert o.indices == (1, 2, 4, 6, 7)
    assert o.per_group_picks == ((1, 2), (1, 4), (6, 7))
    o = omega0(hub_frame(37, 3, 3), 3, 3)
    assert o.indices == (1, 2, 3, 6, 7, 10, 11, 14, 15, 18, 19, 20,
                         23, 24, 25, 28, 29, 30, 33, 34, 35)
    assert len(o.indices) == 37 - 8 * (3 - 1)


def test_omega0_frame_invariants():
    # |Omega0| = n - t(delta-1); every hub group pick contains its hub
    cases = [
        (hub_frame(8, 2, 2), 2, 2),
        (hub_frame(37, 3, 3), 3, 3),
        (paired_frame(10, 2, 2), 2, 2),
        (paired_frame(60, 4, 5), 4, 5),
        (hetero_frame_37(), 3, 3),
    ]
    for s, r, delta in cases:
        o = omega0(s, r, delta)
        assert len(o.indices) == s.n - s.t * (delta - 1)
        for i, pick in enumerate(o.per_group_picks, start=1):
            hub = s.hub_of_group(i)
            assert len(pick) == r
            assert set(pick) <= set(s.groups[i - 1])
            if hub is not None:
                assert hub in pick


def test_omega0_is_a_core():
    cases = [
        (uniform_partition(12, 2, 3), 2, 5, 3),
        (remainder_partition(11, 2, 2, 5), 2, 5, 2),
        (hub_frame(8, 2, 2), 2, 3, 2),
        (paired_frame(10, 2, 2), 2, 5, 2),
        (hetero_frame_37(), 3, 7, 3),
    ]
    for s, r, k, delta in cases:
        q = CoreQuery(structure=s, r=r, k=k, delta=delta)
        assert is_core(omega0(s, r, delta).indices, q)


# ---------------------------------------------------------------------
# lambda_cores
# ---------------------------------------------------------------------

def test_lambda_cores_pinned_small():
    p = uniform_partition(6, 2, 2)
    q = CoreQuery(structure=p, r=2, k=3, delta=2, ground=(1, 2, 4, 5))
    assert list(lambda_cores(q, 3)) == [(1, 4), (1, 5), (2, 4), (2, 5), (4, 5)]
    q = q.with_ground((1, 2, 3, 4, 5))
    assert list(lambda_cores(q, 6)) == [
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)]


def test_lambda_cores_k1():
    # with k=1 the only candidate is the empty prefix; it appears exactly
    # when {lam} alone is a core
    p = uniform_partition(6, 2, 2)
    q = CoreQuery(structure=p, r=2, k=1, delta=2, ground=(1, 2, 4, 5))
    assert list(lambda_cores(q, 3)) == [()]


def test_lambda_cores_excludes_lam_from_ground():
    p = uniform_partition(6, 2, 2)
    q = CoreQuery(structure=p, r=2, k=3, delta=2, ground=(1, 2, 3, 4, 5))
    for s0 in lambda_cores(q, 3):
        assert 3 not in s0


def test_lambda_cores_matches_brute_force():
    rng = random.Random(23)
    cases = [
        (uniform_partition(12, 2, 3), 2, 5, 3),
        (uniform_partition(14, 4, 4), 4, 5, 4),
        (remainder_partition(11, 2, 2, 5), 2, 5, 2),
        (hub_frame(8, 2, 2), 2, 3, 2),
        (paired_frame(10, 2, 2), 2, 5, 2),
        (hub_frame(13, 3, 2), 3, 5, 2),
    ]
    for s, r, k, delta in cases:
        for trial in range(8):
            size = rng.randrange(k, min(s.n, 14) + 1)
            ground = tuple(sorted(rng.sample(range(1, s.n + 1), size)))
            lam = rng.choice(ground)
            q = CoreQuery(structure=s, r=r, k=k, delta=delta, ground=ground)
            got = list(lambda_cores(q, lam))
            pool = [x for x in ground if x != lam]
            want = [c for c in combinations(pool, k - 1)
                    if is_core(c + (lam,), q)]
            assert got == want


def test_lambda_cores_sorted_lexicographic():
    q = CoreQuery(structure=hetero_frame_37(), r=3, k=7, delta=3,
                  ground=tuple(range(1, 15)))
    out = list(lambda_cores(q, 20))
    assert out == sorted(out)
    assert all(s0 == tuple(sorted(s0)) for s0 in out)
    assert len(out) == len(set(out))


def test_cores_closed_downward():
    rng = random.Random(31)
    cases = [
        (uniform_partition(12, 2, 3), 2, 5, 3),
        (hub_frame(8, 2, 2), 2, 3, 2),
        (paired_frame(10, 2, 2), 2, 5, 2),
        (hetero_frame_37(), 3, 7, 3),
    ]
    checked = 0
    for s, r, k, delta in cases:
        q = CoreQuery(structure=s, r=r, k=k, delta=delta)
        for _ in range(400):
            size = rng.randrange(0, k + 1)
            S = tuple(sorted(rng.sample(range(1, s.n + 1), size)))
            if not is_core(S, q):
                continue
            checked += 1
            for drop in range(len(S)):
                sub = S[:drop] + S[drop + 1:]
                assert is_core(sub, q)
    assert checked > 200


# ---------------------------------------------------------------------
# the batched predicate
# ---------------------------------------------------------------------

def _caps_hold(S, s, r, delta):
    """Independent restatement of the caps over Python sets."""
    counts = [len(set(S) & set(g)) for g in s.groups]
    if not isinstance(s, Frame):
        return all(c <= len(g) - delta + 1 for c, g in zip(counts, s.groups))
    if any(c > r for c in counts):
        return False
    for hub, block in zip(s.hubs, s.hub_blocks):
        if hub not in S and sum(counts[i - 1] == r for i in block) > 1:
            return False
    return True


def test_core_mask_matches_set_restatement():
    rng = random.Random(53)
    cases = [
        (uniform_partition(12, 2, 3), 2, 5, 3),
        (remainder_partition(11, 2, 2, 5), 2, 5, 2),
        (hub_frame(13, 3, 2), 3, 5, 2),
        (paired_frame(10, 2, 2), 2, 5, 2),
        (hetero_frame_37(), 3, 7, 3),
    ]
    for s, r, k, delta in cases:
        q = CoreQuery(structure=s, r=r, k=k, delta=delta)
        for size in range(0, k + 2):
            rows = [sorted(rng.sample(range(1, s.n + 1), size)) for _ in range(300)]
            got = core_mask(q, np.array(rows, dtype=np.int64).reshape(300, size))
            assert got.tolist() == [_caps_hold(S, s, r, delta) for S in rows]
            assert got.tolist() == [is_core(S, q) for S in rows]

