"""Repair-group structures over the coordinate set [1..n].

Two shapes: CoverSet, a plain partition into groups of size between
delta and r+delta-1, and Frame, a family of exactly-(r+delta-1)-sized
groups where designated blocks of groups share a single hub element
each and everything else is disjoint. Builders emit the two canonical
partition shapes and the two canonical frame shapes used by the
construction algorithms; validate() accepts arbitrary user structures.

Coordinates are 1-based everywhere. Groups are stored sorted; bitmasks
(bit i-1 for coordinate i) back the subset arithmetic.
"""

from __future__ import annotations

from itertools import chain, combinations, islice
from operator import index
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    CoverIncomplete,
    IndexOutOfRange,
    NotDivisible,
    PreconditionViolated,
    TooFewGroups,
)

__all__ = [
    "CoverSet",
    "Frame",
    "Structure",
    "uniform_partition",
    "remainder_partition",
    "hub_frame",
    "paired_frame",
    "validate",
    "coverage_check",
    "deficiency_witness",
    "structure_from_json",
]


def _norm_groups(groups: Sequence[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(index(x) for x in g)) for g in groups)


def _check_range(what: str, values: Iterable[int], hi: int) -> None:
    for x in values:
        if not 1 <= x <= hi:
            raise IndexOutOfRange(f"{what} {x} outside [1, {hi}]")


def _mask(g: Iterable[int]) -> int:
    m = 0
    for x in g:
        m |= 1 << (x - 1)
    return m


class CoverSet:
    """A partition of [1..n] into repair groups S_1..S_t."""

    __slots__ = ("n", "groups", "masks")

    def __init__(self, n: int, groups: Sequence[Iterable[int]]) -> None:
        self.n = index(n)
        self.groups = _norm_groups(groups)
        for g in self.groups:
            _check_range("group member", g, self.n)
        self.masks = tuple(_mask(g) for g in self.groups)

    @property
    def t(self) -> int:
        return len(self.groups)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CoverSet) and self.n == other.n
                and self.groups == other.groups)

    def __hash__(self) -> int:
        return hash((self.n, self.groups))

    def __repr__(self) -> str:
        return f"CoverSet(n={self.n}, t={self.t})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "groups": [list(g) for g in self.groups],
            "hub_blocks": [],
            "tail_block": [],
            "hubs": [],
        }


class Frame:
    """Groups S_1..S_t with hub blocks A_1..A_alpha and tail block B.

    hub_blocks and tail_block hold 1-based indices into groups; hubs
    lists the shared element xi_j of each hub block. All groups in a hub
    block contain its hub and are otherwise disjoint; tail groups and
    distinct hub blocks are fully disjoint.
    """

    __slots__ = ("n", "groups", "hub_blocks", "tail_block", "hubs", "masks")

    def __init__(self, n: int, groups: Sequence[Iterable[int]],
                 hub_blocks: Sequence[Iterable[int]],
                 tail_block: Iterable[int],
                 hubs: Sequence[int]) -> None:
        self.n = index(n)
        self.groups = _norm_groups(groups)
        self.hub_blocks = _norm_groups(hub_blocks)
        self.tail_block = tuple(sorted(index(x) for x in tail_block))
        self.hubs = tuple(index(x) for x in hubs)
        for g in self.groups:
            _check_range("group member", g, self.n)
        _check_range("hub", self.hubs, self.n)
        for b in self.hub_blocks + (self.tail_block,):
            _check_range("group index", b, self.t)
        self.masks = tuple(_mask(g) for g in self.groups)

    @property
    def t(self) -> int:
        return len(self.groups)

    @property
    def alpha(self) -> int:
        return len(self.hub_blocks)

    def hub_of_group(self, i: int) -> Optional[int]:
        """The hub element of group i (1-based), or None for tail groups."""
        for j, block in enumerate(self.hub_blocks):
            if i in block:
                return self.hubs[j]
        return None

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Frame) and self.n == other.n
                and self.groups == other.groups
                and self.hub_blocks == other.hub_blocks
                and self.tail_block == other.tail_block
                and self.hubs == other.hubs)

    def __hash__(self) -> int:
        return hash((self.n, self.groups, self.hub_blocks, self.tail_block, self.hubs))

    def __repr__(self) -> str:
        return f"Frame(n={self.n}, t={self.t}, alpha={self.alpha})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "groups": [list(g) for g in self.groups],
            "hub_blocks": [list(b) for b in self.hub_blocks],
            "tail_block": list(self.tail_block),
            "hubs": list(self.hubs),
        }


Structure = Union[CoverSet, Frame]


def structure_from_json(data: dict) -> Structure:
    """Rebuild a stored structure."""
    if data.get("hub_blocks") or data.get("hubs"):
        return Frame(data["n"], data["groups"], data["hub_blocks"],
                     data["tail_block"], data["hubs"])
    return CoverSet(data["n"], data["groups"])


def uniform_partition(n: int, r: int, delta: int) -> CoverSet:
    """Consecutive blocks of size r+delta-1; requires (r+delta-1) | n."""
    size = r + delta - 1
    if n % size:
        raise NotDivisible(f"{size} does not divide n={n}")
    groups = [range(a + 1, a + size + 1) for a in range(0, n, size)]
    return CoverSet(n, groups)


def remainder_partition(n: int, r: int, delta: int, k: int) -> CoverSet:
    """Full-size consecutive blocks plus one trailing block of size n mod (r+delta-1).

    The trailing block must be large enough to keep both the group-size
    floor (>= delta) and the optimality argument (>= (k mod r)+delta-1).
    """
    size = r + delta - 1
    w, m = divmod(n, size)
    v = k % r
    if m < v + delta - 1 or m < delta:
        raise PreconditionViolated(
            f"trailing block size m={m} must be >= max(delta, v+delta-1)"
            f"={max(delta, v + delta - 1)} for n={n} r={r} delta={delta} k={k}")
    groups = [range(a + 1, a + size + 1) for a in range(0, w * size, size)]
    groups.append(range(w * size + 1, n + 1))
    return CoverSet(n, groups)


def hub_frame(n: int, r: int, delta: int) -> Frame:
    """Single-hub frame: ell+1 groups share element 1, the rest are disjoint.

    ell = (r+delta-1) - (n mod (r+delta-1)); needs 0 < n mod (r+delta-1)
    and w >= ell so the leftover region splits into whole groups.
    """
    size = r + delta - 1
    w, m = divmod(n, size)
    if m <= 0:
        raise PreconditionViolated(
            f"n={n} divisible by {size}: use uniform_partition")
    ell = size - m
    if w < ell:
        raise PreconditionViolated(f"need w >= {ell}, got w={w} (n={n} r={r} delta={delta})")
    big = (ell + 1) * (size - 1) + 1
    groups = []
    for i in range(ell + 1):
        start = 2 + i * (size - 1)
        groups.append([1] + list(range(start, start + size - 1)))
    for a in range(big, n, size):
        groups.append(range(a + 1, a + size + 1))
    t = len(groups)
    if t != w + 1:
        raise PreconditionViolated(f"internal layout error: t={t} != w+1={w + 1}")
    return Frame(n, groups,
                 hub_blocks=[range(1, ell + 2)],
                 tail_block=range(ell + 2, t + 1),
                 hubs=[1])


def paired_frame(n: int, r: int, delta: int) -> Frame:
    """Frame of ell group pairs, each pair overlapping in one middle element.

    ell = (r+delta-1) - (n mod (r+delta-1)); needs 0 < n mod (r+delta-1)
    and w+1 >= 2*ell.
    """
    size = r + delta - 1
    w, m = divmod(n, size)
    if m <= 0:
        raise PreconditionViolated(
            f"n={n} divisible by {size}: use uniform_partition")
    ell = size - m
    if w + 1 < 2 * ell:
        raise PreconditionViolated(
            f"need w+1 >= {2 * ell}, got w+1={w + 1} (n={n} r={r} delta={delta})")
    span = 2 * size - 1
    groups = []
    hubs = []
    for i in range(ell):
        start = i * span + 1
        groups.append(range(start, start + size))
        groups.append(range(start + size - 1, start + span))
        hubs.append(start + size - 1)
    for a in range(ell * span, n, size):
        groups.append(range(a + 1, a + size + 1))
    t = len(groups)
    if t != w + 1:
        raise PreconditionViolated(f"internal layout error: t={t} != w+1={w + 1}")
    return Frame(n, groups,
                 hub_blocks=[(2 * i + 1, 2 * i + 2) for i in range(ell)],
                 tail_block=range(2 * ell + 1, t + 1),
                 hubs=hubs)


def _validate_cover(s: CoverSet, r: int, delta: int) -> list[str]:
    bad = []
    size = r + delta - 1
    seen = 0
    for i, (g, msk) in enumerate(zip(s.groups, s.masks), start=1):
        if not (delta <= len(g) <= size):
            bad.append(f"group {i}: size {len(g)} outside [{delta}, {size}]")
        if len(set(g)) != len(g):
            bad.append(f"group {i}: repeated element")
        if seen & msk:
            bad.append(f"group {i}: overlaps an earlier group")
        seen |= msk
    if seen != (1 << s.n) - 1:
        gaps = [x for x in range(1, s.n + 1) if not seen >> (x - 1) & 1]
        bad.append(f"coordinates not covered: {gaps}")
    return bad


def _validate_frame(f: Frame, r: int, delta: int) -> list[str]:
    bad = []
    size = r + delta - 1
    for i, g in enumerate(f.groups, start=1):
        if len(set(g)) != len(g):
            bad.append(f"group {i}: repeated element")
        elif len(g) != size:
            bad.append(f"group {i}: size {len(g)} != {size}")
    if len(f.hubs) != len(f.hub_blocks):
        bad.append(f"{len(f.hub_blocks)} hub blocks but {len(f.hubs)} hubs")
        return bad
    # hub blocks plus tail must partition the group index range [1..t]
    used: set[int] = set()
    blocks = list(f.hub_blocks) + [f.tail_block]
    for b in blocks:
        for i in b:
            if i in used:
                bad.append(f"group index {i} in two blocks")
            used.add(i)
    if len(used) != f.t:
        bad.append("hub blocks plus tail do not cover all groups")
    if bad:
        return bad
    union_masks = []
    for j, block in enumerate(f.hub_blocks, start=1):
        inter = ~0
        union = 0
        for i in block:
            inter &= f.masks[i - 1]
            union |= f.masks[i - 1]
        if bin(inter & ((1 << f.n) - 1)).count("1") != 1:
            bad.append(f"hub block {j}: hub intersection not a singleton")
        elif inter != 1 << (f.hubs[j - 1] - 1):
            bad.append(f"hub block {j}: declared hub {f.hubs[j - 1]} is not the shared element")
        else:
            # outside the hub, groups of one block must not touch
            expect = len(block) * (size - 1) + 1
            if bin(union).count("1") != expect:
                bad.append(f"hub block {j}: groups overlap outside the hub")
        union_masks.append(union)
    for i in f.tail_block:
        union_masks.append(f.masks[i - 1])
    total = 0
    for msk in union_masks:
        if total & msk:
            bad.append("blocks overlap each other")
            break
        total |= msk
    if not bad and total != (1 << f.n) - 1:
        gaps = [x for x in range(1, f.n + 1) if not total >> (x - 1) & 1]
        bad.append(f"coordinates not covered: {gaps}")
    return bad


def validate(structure: Structure, r: int, delta: int) -> tuple[bool, list[str]]:
    """Check all structural invariants; returns (ok, violation messages)."""
    if isinstance(structure, Frame):
        bad = _validate_frame(structure, r, delta)
    else:
        bad = _validate_cover(structure, r, delta)
    return (not bad, bad)


def _mu(k: int, r: int) -> int:
    return -(-k // r)


def coverage_check(structure: Structure, k: int, r: int, delta: int) -> bool:
    """True iff every ceil(k/r)-subset of groups covers k + ceil(k/r)(delta-1) coordinates."""
    mu = _mu(k, r)
    if structure.t < mu:
        raise TooFewGroups(f"need {mu} groups, structure has {structure.t}")
    need = k + mu * (delta - 1)
    for sel in combinations(structure.masks, mu):
        union = 0
        for msk in sel:
            union |= msk
        if bin(union).count("1") < need:
            return False
    return True


def deficiency_witness(groups: Sequence[Iterable[int]], k: int, r: int,
                       delta: int) -> Optional[tuple[int, ...]]:
    """Lexicographically first ceil(k/r)-subset J (1-based group indices)
    whose union is smaller than k + ceil(k/r)(delta-1); None if no such J.

    The groups need not be disjoint but must each fit in r+delta-1
    elements and jointly cover [1..max element]; a member below 1 raises
    IndexOutOfRange.
    """
    gs = _norm_groups(groups)
    size = r + delta - 1
    for i, g in enumerate(gs, start=1):
        if len(g) > size:
            raise PreconditionViolated(f"group {i} has {len(g)} > {size} elements")
    if not gs or not any(gs):
        raise CoverIncomplete("no coordinates covered")
    covered = sorted(set().union(*gs))
    if covered[0] < 1:
        raise IndexOutOfRange(f"group member {covered[0]} is below 1")
    n = covered[-1]
    if len(covered) < n:
        # the first few gaps, found without touching all of [1..n]
        gaps = list(islice(chain.from_iterable(
            range(a + 1, b) for a, b in zip([0] + covered, covered)), 10))
        raise CoverIncomplete(
            f"{n - len(covered)} of the coordinates [1..{n}] not covered, "
            f"first: {gaps}")
    masks = [_mask(g) for g in gs]
    mu = _mu(k, r)
    if len(gs) < mu:
        raise TooFewGroups(f"need {mu} groups, got {len(gs)}")
    need = k + mu * (delta - 1)
    for sel in combinations(range(1, len(gs) + 1), mu):
        union = 0
        for i in sel:
            union |= masks[i - 1]
        if bin(union).count("1") < need:
            return sel
    return None
