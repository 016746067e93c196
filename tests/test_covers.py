import json
import random
from itertools import combinations

import pytest

from lrcodes.codefile import CodeFile
from lrcodes.construct import run_extension
from lrcodes.covers import (
    CoverSet,
    Frame,
    coverage_check,
    deficiency_witness,
    hub_frame,
    paired_frame,
    remainder_partition,
    uniform_partition,
    validate,
)
from lrcodes.errors import (
    CoverIncomplete,
    IndexOutOfRange,
    NotDivisible,
    PreconditionViolated,
    TooFewGroups,
)
from lrcodes.gf import field_make
from lrcodes.params import EXISTS, CodeParams, classify

# the n=13 covering family whose deficiency certifies non-existence for
# (k, r, delta) = (7, 2, 2)
FAMILY_13 = [(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12), (1, 5, 13),
             (5, 8, 13)]


# ---------------------------------------------------------------------
# builders: frozen layouts
# ---------------------------------------------------------------------

def test_uniform_partition_layouts():
    assert uniform_partition(12, 2, 3).groups == (
        (1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12))
    assert uniform_partition(6, 2, 2).groups == ((1, 2, 3), (4, 5, 6))
    assert uniform_partition(4, 1, 2).groups == ((1, 2), (3, 4))
    with pytest.raises(NotDivisible):
        uniform_partition(11, 2, 2)


def test_remainder_partition_layouts():
    s = remainder_partition(11, 2, 2, k=5)
    assert s.groups == ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11))
    s = remainder_partition(60, 9, 5, k=11)
    assert s.t == 5
    assert all(len(g) == 13 for g in s.groups[:4])
    assert s.groups[4] == tuple(range(53, 61))
    with pytest.raises(PreconditionViolated):
        remainder_partition(13, 2, 3, k=3)  # m=1 < delta
    with pytest.raises(PreconditionViolated):
        remainder_partition(12, 2, 3, k=5)  # m=0: nothing to trail


def test_hub_frame_layouts():
    f = hub_frame(8, 2, 2)
    assert f.groups == ((1, 2, 3), (1, 4, 5), (6, 7, 8))
    assert f.hubs == (1,) and f.hub_blocks == ((1, 2),)
    assert f.tail_block == (3,)

    f = hub_frame(37, 3, 3)
    assert f.t == 8 and f.hub_blocks == ((1, 2, 3, 4),)
    assert f.groups[0] == (1, 2, 3, 4, 5)
    assert f.groups[3] == (1, 14, 15, 16, 17)
    assert f.groups[4] == (18, 19, 20, 21, 22)
    assert f.groups[7] == (33, 34, 35, 36, 37)

    with pytest.raises(PreconditionViolated):
        hub_frame(12, 2, 3)  # m=0
    with pytest.raises(PreconditionViolated):
        hub_frame(16, 4, 4)  # w=2 < ell=5


def test_paired_frame_layouts():
    f = paired_frame(10, 2, 2)
    assert f.groups == ((1, 2, 3), (3, 4, 5), (6, 7, 8), (8, 9, 10))
    assert f.hubs == (3, 8)
    assert f.hub_blocks == ((1, 2), (3, 4)) and f.tail_block == ()

    f = paired_frame(60, 4, 5)
    assert f.t == 8 and len(f.hub_blocks) == 4 and f.tail_block == ()
    assert all(len(g) == 8 for g in f.groups)
    assert f.hubs == (8, 23, 38, 53)

    with pytest.raises(PreconditionViolated):
        paired_frame(9, 2, 2)  # m=0
    with pytest.raises(PreconditionViolated):
        paired_frame(13, 3, 3)  # w+1=3 < 2*ell=4


def test_builder_outputs_validate_and_cover():
    """Every Exists-classified tuple with n <= 20 yields a structure that
    passes validate and coverage_check."""
    from lrcodes.construct import _build_structure

    checked = 0
    for n in range(2, 21):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                for delta in (2, 3, 4):
                    p = CodeParams(n, k, r, delta)
                    c = classify(p)
                    if c.verdict != EXISTS:
                        continue
                    s = _build_structure(p, c.method)
                    ok, bad = validate(s, r, delta)
                    assert ok, (p, c.method, bad)
                    assert coverage_check(s, k, r, delta), (p, c.method)
                    checked += 1
    assert checked > 200


def test_frame_sizes_and_element_counts():
    rng = random.Random(2)
    for _ in range(60):
        r = rng.randrange(1, 6)
        delta = rng.randrange(2, 6)
        size = r + delta - 1
        w = rng.randrange(1, 6)
        m = rng.randrange(1, size)
        n = w * size + m
        ell = size - m
        if w >= ell:
            f = hub_frame(n, r, delta)
            assert all(len(g) == size for g in f.groups)
            assert len({x for g in f.groups for x in g}) == n
        if w + 1 >= 2 * ell:
            f = paired_frame(n, r, delta)
            assert all(len(g) == size for g in f.groups)
            assert len({x for g in f.groups for x in g}) == n


# ---------------------------------------------------------------------
# validate on hand-built structures
# ---------------------------------------------------------------------

def test_validate_heterogeneous_frame():
    # two hub blocks of different sizes plus three tail groups, n=37
    f = Frame(
        37,
        groups=[(1, 2, 3, 4, 5), (1, 6, 7, 8, 9), (1, 10, 11, 12, 13),
                (14, 15, 16, 17, 18), (14, 19, 20, 21, 22),
                (23, 24, 25, 26, 27), (28, 29, 30, 31, 32),
                (33, 34, 35, 36, 37)],
        hub_blocks=[(1, 2, 3), (4, 5)],
        tail_block=(6, 7, 8),
        hubs=(1, 14),
    )
    ok, bad = validate(f, 3, 3)
    assert ok and bad == []
    assert f.hub_of_group(2) == 1
    assert f.hub_of_group(5) == 14
    assert f.hub_of_group(7) is None


def test_validate_rejects_bad_frames():
    # groups 1 and 2 share two elements: not a singleton hub
    f = Frame(8, [(1, 2, 3), (1, 2, 4), (5, 6, 7)],
              hub_blocks=[(1, 2)], tail_block=(3,), hubs=(1,))
    ok, bad = validate(f, 2, 2)
    assert not ok
    assert any("hub intersection not a singleton" in msg for msg in bad)

    # coverage gap on an otherwise well-formed frame
    f = Frame(9, [(1, 2, 3), (1, 4, 5), (6, 7, 8)],
              hub_blocks=[(1, 2)], tail_block=(3,), hubs=(1,))
    ok, bad = validate(f, 2, 2)
    assert not ok and any("not covered: [9]" in msg for msg in bad)

    # declared hub is not the shared element
    f = Frame(8, [(1, 2, 3), (1, 4, 5), (6, 7, 8)],
              hub_blocks=[(1, 2)], tail_block=(3,), hubs=(2,))
    ok, bad = validate(f, 2, 2)
    assert not ok and any("declared hub" in msg for msg in bad)

    # tail group overlapping a hub block
    f = Frame(7, [(1, 2, 3), (1, 4, 5), (5, 6, 7)],
              hub_blocks=[(1, 2)], tail_block=(3,), hubs=(1,))
    ok, bad = validate(f, 2, 2)
    assert not ok and any("overlap" in msg for msg in bad)


def test_validate_rejects_bad_partitions():
    ok, bad = validate(CoverSet(6, [(1, 2, 3), (3, 4, 5, 6)]), 2, 2)
    assert not ok and any("overlaps" in msg for msg in bad)
    ok, bad = validate(CoverSet(7, [(1, 2, 3), (4, 5, 6)]), 2, 2)
    assert not ok and any("not covered" in msg for msg in bad)
    ok, bad = validate(CoverSet(6, [(1, 2, 3, 4, 5), (6,)]), 2, 2)
    assert not ok  # first group too big, second below delta
    assert len(bad) == 2


def test_validate_names_each_defect():
    # one defect a structure, each named by its own message alone
    cases = [
        (CoverSet(6, [(1, 1, 2, 3), (4, 5, 6)]), 3, "group 1: repeated element"),
        (Frame(7, [(1, 2, 2), (1, 4, 5), (3, 6, 7)], hub_blocks=[(1, 2)],
               tail_block=(3,), hubs=(1,)), 2, "group 1: repeated element"),
        (Frame(9, [(1, 2, 3), (1, 4, 5), (6, 7, 8, 9)], hub_blocks=[(1, 2)],
               tail_block=(3,), hubs=(1,)), 2, "group 3: size 4 != 3"),
        (Frame(8, [(1, 2, 3), (1, 4, 5), (6, 7, 8)], hub_blocks=[(1, 2)],
               tail_block=(3,), hubs=(1, 6)), 2, "1 hub blocks but 2 hubs"),
        (Frame(8, [(1, 2, 3), (1, 4, 5), (6, 7, 8)], hub_blocks=[(1, 2)],
               tail_block=(2, 3), hubs=(1,)), 2, "group index 2 in two blocks"),
        (Frame(8, [(1, 2, 3), (1, 4, 5), (6, 7, 8)], hub_blocks=[(1, 2)],
               tail_block=(), hubs=(1,)), 2,
         "hub blocks plus tail do not cover all groups"),
        # the three groups share only the hub, but groups 1 and 2 share 2
        (Frame(6, [(1, 2, 3), (1, 2, 4), (1, 5, 6)], hub_blocks=[(1, 2, 3)],
               tail_block=(), hubs=(1,)), 2,
         "hub block 1: groups overlap outside the hub"),
    ]
    for structure, r, message in cases:
        assert validate(structure, r, 2) == (False, [message])


def test_structures_reject_out_of_range_coordinates():
    # members and hubs must lie in [1, n], block entries in [1, t]; the
    # bitmasks are never built from anything else
    for bad in (0, -1, 6, 10 ** 20):
        with pytest.raises(IndexOutOfRange):
            CoverSet(5, [[bad]])
        with pytest.raises(IndexOutOfRange):
            CoverSet(5, [(1, 2), (3, 4, bad)])
        with pytest.raises(IndexOutOfRange):
            Frame(5, [(1, 2, 3), (1, 4, bad)], hub_blocks=[(1, 2)],
                  tail_block=(), hubs=(1,))
        with pytest.raises(IndexOutOfRange):
            Frame(5, [(1, 2, 3), (1, 4, 5)], hub_blocks=[(1, 2)],
                  tail_block=(), hubs=(bad,))
    for bad in (0, 3, 10 ** 20):
        with pytest.raises(IndexOutOfRange):
            Frame(5, [(1, 2, 3), (1, 4, 5)], hub_blocks=[(1, bad)],
                  tail_block=(), hubs=(1,))
        with pytest.raises(IndexOutOfRange):
            Frame(5, [(1, 2, 3), (1, 4, 5)], hub_blocks=[(1,)],
                  tail_block=(bad,), hubs=(1,))
    ok, _ = validate(Frame(5, [(1, 2, 3), (1, 4, 5)], hub_blocks=[(1, 2)],
                           tail_block=(), hubs=(1,)), 2, 2)
    assert ok


def test_validate_accepts_builder_degenerates():
    ok, bad = validate(uniform_partition(6, 2, 2), 2, 2)
    assert ok and bad == []
    ok, _ = validate(remainder_partition(11, 2, 2, 5), 2, 2)
    assert ok


# ---------------------------------------------------------------------
# coverage check and witnesses
# ---------------------------------------------------------------------

def test_coverage_check_examples():
    assert coverage_check(uniform_partition(12, 2, 3), 5, 2, 3)
    assert coverage_check(hub_frame(8, 2, 2), 3, 2, 2)
    assert not coverage_check(CoverSet(13, FAMILY_13), 7, 2, 2)
    with pytest.raises(TooFewGroups):
        coverage_check(uniform_partition(6, 2, 2), 6, 2, 2)


def test_deficiency_witness_pinned_family():
    w = deficiency_witness(FAMILY_13, 7, 2, 2)
    assert w == (1, 2, 3, 5)
    union = set()
    for i in w:
        union.update(FAMILY_13[i - 1])
    assert len(union) == 10 < 11


def test_deficiency_witness_none_for_good_partitions():
    assert deficiency_witness(uniform_partition(12, 2, 3).groups, 5, 2, 3) is None
    assert deficiency_witness(hub_frame(8, 2, 2).groups, 3, 2, 2) is None


def test_deficiency_witness_errors():
    with pytest.raises(PreconditionViolated):
        deficiency_witness([(1, 2, 3, 4), (5, 6)], 3, 2, 2)
    with pytest.raises(CoverIncomplete):
        deficiency_witness([(1, 2), (5, 6)], 2, 1, 2)
    with pytest.raises(CoverIncomplete):
        deficiency_witness([], 2, 1, 2)
    with pytest.raises(TooFewGroups):
        deficiency_witness([(1, 2, 3)], 4, 2, 2)
    # members are range-checked before any bitmask is built, and a huge
    # member is reported as an incomplete cover without sizing 1 << n
    for bad in (0, -1):
        with pytest.raises(IndexOutOfRange):
            deficiency_witness([[bad, 1, 2], [3, 4, 5]], 3, 2, 2)
    with pytest.raises(CoverIncomplete, match=r"first: \[6, 7, .*15\]"):
        deficiency_witness([[1, 2, 10 ** 20], [3, 4, 5]], 3, 2, 2)


def test_witness_equivalent_to_coverage_for_partitions():
    rng = random.Random(31)
    for _ in range(200):
        r = rng.randrange(1, 4)
        delta = rng.randrange(2, 4)
        size = r + delta - 1
        t = rng.randrange(2, 5)
        n = size * t
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        groups = [perm[i * size:(i + 1) * size] for i in range(t)]
        s = CoverSet(n, groups)
        for k in range(r, min(n, r * t) + 1):
            mu = -(-k // r)
            if mu > t:
                continue
            assert coverage_check(s, k, r, delta) == (
                deficiency_witness(groups, k, r, delta) is None)


def test_random_small_covers_of_13_always_deficient():
    """Any 3-set family covering [13] with few groups is deficient for
    (k, r, delta) = (7, 2, 2): 200 random families, witness every time."""
    rng = random.Random(77)
    n, k, r, delta = 13, 7, 2, 2
    for _ in range(200):
        t = rng.randrange(5, 8)
        groups = _random_cover(rng, n, t, size=3)
        w = deficiency_witness(groups, k, r, delta)
        assert w is not None
        union = set()
        for i in w:
            union.update(groups[i - 1])
        assert len(union) < k + 4 * (delta - 1)


def _random_cover(rng, n, t, size):
    """t sets of the given size jointly covering [1..n]."""
    while True:
        groups = []
        pool = list(range(1, n + 1))
        rng.shuffle(pool)
        # deal out whole blocks first so coverage is guaranteed, then top
        # up short blocks with repeats
        idx = 0
        for _ in range(t):
            block = []
            for _ in range(size):
                if idx < n:
                    block.append(pool[idx])
                    idx += 1
            groups.append(block)
        if idx < n:
            continue  # t*size < n: cannot cover, reshuffle pointless
        for block in groups:
            while len(block) < size:
                x = rng.randrange(1, n + 1)
                if x not in block:
                    block.append(x)
        return [tuple(sorted(b)) for b in groups]


# ---------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------

def test_structure_json_round_trip():
    # a code file stores its structure, both kinds in one layout
    for s, params, q in (
            (uniform_partition(12, 2, 3), CodeParams(12, 5, 2, 3), 499),
            (remainder_partition(11, 2, 2, 5), CodeParams(11, 5, 2, 2), 331),
            (hub_frame(8, 2, 2), CodeParams(8, 3, 2, 2), 29),
            (paired_frame(10, 2, 2), CodeParams(10, 5, 2, 2), 211)):
        code = run_extension(s, params, field_make(q))
        stored = CodeFile(code=code, seed=None, tool_version="", created_at="")
        back = CodeFile.from_json(json.loads(json.dumps(stored.to_json()))).code
        assert type(back.structure) is type(s) and back.structure == s
