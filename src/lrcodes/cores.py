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

The rule is written once, as a test on a set's group counts; `core_mask`
sums them over a batch of index tuples, the construction carries them in
its cache. Cores are closed downward: any subset of a core is a core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .covers import Frame, Structure
from .errors import IndexOutOfRange

__all__ = ["CoreQuery", "Omega0", "is_core", "omega0", "lambda_cores",
           "core_mask", "index_batches"]

_BATCH = 1 << 17


def index_batches(tuples: Iterable[Sequence[int]], width: int, rows: int,
                  dtype) -> Iterator[np.ndarray]:
    """The index tuples of length `width`, in their order, as N x width
    arrays of `dtype` holding at most `rows` tuples each."""
    it = iter(tuples)
    while chunk := list(islice(it, rows)):
        yield np.fromiter(chain.from_iterable(chunk), dtype=dtype,
                          count=len(chunk) * width).reshape(len(chunk), width)


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


@dataclass(frozen=True)
class Omega0:
    """Initial index set: one max-cap pick U_i per group, hub elements first."""

    indices: tuple[int, ...]
    per_group_picks: tuple[tuple[int, ...], ...]


class _BlockModel:
    """Both structure kinds as arrays for the core predicate.

    counted[x] marks the groups holding coordinate x, then the hubs equal
    to x, so the counts of S (counted summed over S) hold each |S n S_i|
    and which hubs S holds. cap bounds each column (|S_i|-delta+1 in a
    partition, r in a frame, 1 for a hub); hub_blocks holds (hub column,
    group indices) pairs, whose groups may all reach r only when the hub
    is in S.
    """

    def __init__(self, structure: Structure, r: int, delta: int) -> None:
        self.r, t = r, structure.t
        frame = isinstance(structure, Frame)
        hubs, blocks = (structure.hubs, structure.hub_blocks) if frame else ((), ())
        size = max(map(len, structure.groups), default=1)
        self.counted = np.zeros((structure.n + 1, t + len(hubs)),
                                dtype=np.min_scalar_type(-1 - size))  # holds +size
        for c, xs in enumerate([*structure.groups, *([h] for h in hubs)]):
            self.counted[list(xs), c] = 1
        caps = [r if frame else len(g) - delta + 1 for g in structure.groups]
        # a cap clipped to the counts' range admits the same sets
        self.cap = np.clip(caps + [1] * len(hubs), -1, size).astype(self.counted.dtype)
        self.hub_blocks = [(t + h, np.array(b) - 1) for h, b in enumerate(blocks)]

    def mask(self, counts: np.ndarray) -> np.ndarray:
        """Which rows of counts, each a set of distinct coordinates', are cores."""
        ok = (counts <= self.cap).all(axis=1)
        for col, idx in self.hub_blocks:
            ok &= ((counts[:, idx] == self.r).sum(axis=1) <= 1) | (counts[:, col] > 0)
        return ok


@lru_cache(maxsize=64)
def _block_model(structure: Structure, r: int, delta: int) -> _BlockModel:
    return _BlockModel(structure, r, delta)


def core_mask(q: CoreQuery, E: np.ndarray) -> np.ndarray:
    """Which rows of E, an N x s array of distinct coordinates, are cores."""
    model = _block_model(q.structure, q.r, q.delta)
    return model.mask(model.counted[E].sum(axis=1, dtype=model.counted.dtype))


def is_core(S: Iterable[int], q: CoreQuery) -> bool:
    """Whether S satisfies every per-group intersection cap of the structure."""
    S = sorted(set(S))
    if S and not (1 <= S[0] and S[-1] <= q.structure.n):
        bad = S[0] if S[0] < 1 else S[-1]
        raise IndexOutOfRange(f"index {bad} outside [1, {q.structure.n}]")
    return bool(core_mask(q, np.array([S], dtype=np.int64))[0])


def omega0(structure: Structure, r: int, delta: int) -> Omega0:
    """Deterministic maximal initial core: smallest indices, hubs forced in."""
    if not isinstance(structure, Frame):
        picks = [tuple(g[:len(g) - delta + 1]) for g in structure.groups]
    else:
        picks = []
        for i, g in enumerate(structure.groups, start=1):
            hub = structure.hub_of_group(i)
            if hub is None:
                picks.append(tuple(g[:r]))
            else:
                rest = [x for x in g if x != hub]
                picks.append(tuple(sorted([hub] + rest[:r - 1])))
    return Omega0(tuple(sorted(set().union(*picks))), tuple(picks))


def lambda_cores(q: CoreQuery, lam: int) -> Iterator[tuple[int, ...]]:
    """All (k-1)-subsets S0 of the ground set with S0 u {lam} a core,
    as sorted tuples in lexicographic order."""
    target = q.k - 1
    if target < 0:
        return
    subsets = combinations([x for x in q.ground if x != lam], target)
    for S0 in index_batches(subsets, target, _BATCH, np.int64):
        E = np.concatenate([S0, np.full((len(S0), 1), lam)], axis=1)
        yield from map(tuple, S0[core_mask(q, E)].tolist())
