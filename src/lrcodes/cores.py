"""Core predicates and enumerators over a cover structure.

A core is an index set whose per-group intersections are small enough
that an optimal code may (indeed must) keep the matching columns
linearly independent. Partition groups cap intersections at
|S_i|-delta+1; frame groups cap at r with a case split on whether a
block's hub element is taken:

  hub in S:  |S n S_i| <= r for every group i of the block;
  hub not:   some designated group may reach r, the block's others
             stay <= r-1;
  tail:      |S n S_i| <= r.

The rule is written once, as `core_mask` over a batch of index tuples;
`is_core`, `lambda_cores` and the construction's avoidance step all
read it. Cores are closed downward: any subset of a core is a core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, islice
from typing import Iterable, Iterator

import numpy as np

from .covers import Frame, Structure
from .errors import IndexOutOfRange

__all__ = ["CoreQuery", "Omega0", "is_core", "omega0", "lambda_cores",
           "core_mask"]

_BATCH = 1 << 17


@dataclass(frozen=True)
class CoreQuery:
    """A structure with the (r, k, delta) limits and the live index set Omega."""

    structure: Structure
    r: int
    k: int
    delta: int
    ground: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        norm = tuple(sorted(set(int(x) for x in self.ground)))
        if norm and (norm[0] < 1 or norm[-1] > self.structure.n):
            raise IndexOutOfRange(
                f"ground set not within [1, {self.structure.n}]: {norm}")
        object.__setattr__(self, "ground", norm)

    def with_ground(self, ground: Iterable[int]) -> "CoreQuery":
        return CoreQuery(self.structure, self.r, self.k, self.delta, tuple(ground))


@dataclass(frozen=True)
class Omega0:
    """Initial index set: one max-cap pick U_i per group, hub elements first."""

    indices: tuple[int, ...]
    per_group_picks: tuple[tuple[int, ...], ...]


class _BlockModel:
    """Both structure kinds as arrays for the core predicate.

    member[x] marks the groups holding coordinate x; cap[i] bounds
    |S n S_i| (|S_i|-delta+1 in a partition, r in a frame); hub_blocks
    holds (hub, group indices) pairs, whose groups may all reach r only
    when the hub is in S.
    """

    def __init__(self, structure: Structure, r: int, delta: int) -> None:
        self.r = r
        self.member = np.zeros((structure.n + 1, structure.t), dtype=np.int64)
        for i, g in enumerate(structure.groups):
            self.member[list(g), i] = 1
        if isinstance(structure, Frame):
            self.cap = np.full(structure.t, r)
            self.hub_blocks = [(hub, np.array(block) - 1) for hub, block
                               in zip(structure.hubs, structure.hub_blocks)]
        else:
            self.cap = np.array([len(g) - delta + 1 for g in structure.groups])
            self.hub_blocks = []


@lru_cache(maxsize=64)
def _block_model(structure: Structure, r: int, delta: int) -> _BlockModel:
    return _BlockModel(structure, r, delta)


def core_mask(q: CoreQuery, E: np.ndarray) -> np.ndarray:
    """Which rows of E, an N x s array of distinct coordinates, are cores."""
    model = _block_model(q.structure, q.r, q.delta)
    counts = np.zeros((E.shape[0], model.cap.size), dtype=np.int64)
    for j in range(E.shape[1]):
        counts += model.member[E[:, j]]
    ok = (counts <= model.cap).all(axis=1)
    for hub, idx in model.hub_blocks:
        at_r = (counts[:, idx] == model.r).sum(axis=1)
        ok &= (at_r <= 1) | (E == hub).any(axis=1)
    return ok


def is_core(S: Iterable[int], q: CoreQuery) -> bool:
    """Whether S satisfies every per-group intersection cap of the structure."""
    S = sorted(set(S))
    if S and not (1 <= S[0] and S[-1] <= q.structure.n):
        bad = S[0] if S[0] < 1 else S[-1]
        raise IndexOutOfRange(f"index {bad} outside [1, {q.structure.n}]")
    return bool(core_mask(q, np.array([S], dtype=np.int64))[0])


def omega0(structure: Structure, r: int, delta: int) -> Omega0:
    """Deterministic maximal initial core: smallest indices, hubs forced in."""
    picks = []
    if isinstance(structure, Frame):
        hub_by_group: dict[int, int] = {}
        for j, block in enumerate(structure.hub_blocks):
            for i in block:
                hub_by_group[i - 1] = structure.hubs[j]
        for i, g in enumerate(structure.groups):
            hub = hub_by_group.get(i)
            if hub is None:
                picks.append(tuple(g[:r]))
            else:
                rest = [x for x in g if x != hub]
                picks.append(tuple(sorted([hub] + rest[:r - 1])))
    else:
        for g in structure.groups:
            picks.append(tuple(g[:len(g) - delta + 1]))
    indices = sorted(set().union(*picks)) if picks else []
    return Omega0(tuple(indices), tuple(picks))


def lambda_cores(q: CoreQuery, lam: int) -> Iterator[tuple[int, ...]]:
    """All (k-1)-subsets S0 of the ground set with S0 u {lam} a core,
    as sorted tuples in lexicographic order."""
    target = q.k - 1
    if target < 0:
        return
    it = combinations([x for x in q.ground if x != lam], target)
    while chunk := list(islice(it, _BATCH)):
        E = np.empty((len(chunk), target + 1), dtype=np.int64)
        E[:, :target] = np.fromiter(
            chain.from_iterable(chunk), dtype=np.int64,
            count=len(chunk) * target).reshape(len(chunk), target)
        E[:, target] = lam
        yield from map(tuple, E[core_mask(q, E), :target].tolist())
