"""Deterministic construction of distance-optimal locally repairable codes.

The pipeline: place a Vandermonde MDS base on the initial core Omega_0,
then assign the remaining columns group by group. Each new column for
coordinate lam must lie in the span of its group's already-assigned
columns while avoiding span(S0) for every (k-1)-set S0 that would form
a core together with lam. Random draws from the group span (seeded)
almost always succeed when q is at least C(n, k-1); a deterministic
lexicographic scan of one candidate per line of the span backs them
up, since a candidate's multiples pass or fail with it.

Avoidance is one batched test for every field: each (k-1)-subset S0 of
assigned coordinates has a linear functional whose kernel is span(S0),
and a candidate is accepted when none of the functionals of the cores
paired with lam vanishes on it. The functionals are cached across
steps: a subset's functional depends only on its own columns, which
never change once assigned. Each is derived from its (k-2)-prefix's
pencil, the two functionals vanishing on that prefix, with two dot
products; only the pencils are solved (by Gauss-Jordan on the field's
numpy kernel), each once per construction. Each step picks the paired
cores out of the cache with one batched core mask.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations
from math import comb
from operator import index
from typing import Iterator, Optional

import numpy as np

from .covers import (
    CoverSet,
    Frame,
    Structure,
    coverage_check,
    hub_frame,
    paired_frame,
    remainder_partition,
    structure_from_json,
    uniform_partition,
)
from .covers import validate as validate_structure
# lambda_cores and reduce_vector are not called here: they are imported
# so that the benchmark's tracer (perfbench/tracer.py), which wraps
# functions under the module names their callers use, finds them.
from .cores import _BATCH, CoreQuery, core_mask, index_batches, lambda_cores, omega0
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    FieldTooSmall,
    NotConstructible,
    NoValidVector,
    PreconditionViolated,
    StructureMismatch,
    UnknownCase,
)
from .gf import FieldSpec, field_at_least, field_kernel
from .linalg import (Basis, Matrix, _batch_nullspace, _batch_rref,
                     reduce_vector, reduced_basis)
from .params import (
    EXISTS,
    EXISTS_MDS,
    METHOD_A1_REMAINDER,
    METHOD_A1_UNIFORM,
    METHOD_A2_HUB,
    METHOD_A2_PAIRED,
    NOT_EXISTS,
    CodeParams,
    classify,
    distance_bound,
    field_bound,
)

__all__ = [
    "ExtensionState",
    "LrcCode",
    "StepStats",
    "mds_generator",
    "pick_extension_vector",
    "run_extension",
    "construct",
]

RANDOM_ATTEMPTS = 64

# Cap on the deterministic fallback scan when the span is too large to
# sweep completely (only reachable after 64 failed draws at huge q).
_SCAN_LIMIT = 1 << 20

# Subsets per elimination, and pencils per derivation, when the functional
# cache grows. Smaller than the cache's blocks of _BATCH rows: the
# gathered matrices and their temporaries are several times a block's own
# size. At [37,7,3,3] an eighth of _BATCH eliminated as fast as a full one
# with 50 MB less peak memory, and deriving in such slices kept
# construct-large's peak RSS about 3% below deriving whole blocks at once.
_SOLVE_ROWS = _BATCH // 8


@dataclass(frozen=True)
class StepStats:
    """What one extension step did: the coordinate lam it assigned, the
    (k-1)-subsets whose functionals it derived into the cache, the
    (k-2)-subsets it eliminated for their pencils, the cores paired with
    lam, the random draws and scan candidates it tried, and its wall time.
    """

    lam: int
    rows_added: int
    pencils_solved: int
    cores: int
    draws: int
    scan_steps: int
    seconds: float


@dataclass
class LrcCode:
    """A constructed code: generator matrix plus its repair-group witness.

    `steps` holds one StepStats per extension step; it is not serialized
    and takes no part in equality, since its timings vary run to run.
    """

    field: FieldSpec
    generator: Matrix
    structure: Structure
    params: CodeParams
    claimed_d: int
    trace: tuple[tuple[int, tuple[int, ...]], ...] = ()
    steps: tuple[StepStats, ...] = dataclass_field(default=(), compare=False)

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "params": {"n": self.params.n, "k": self.params.k,
                       "r": self.params.r, "delta": self.params.delta},
            "claimed_d": self.claimed_d,
            "generator": self.generator.to_json(),
            "structure": self.structure.to_json(),
            "trace": [[lam, list(col)] for lam, col in self.trace],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LrcCode":
        pp = data["params"]
        code = cls(
            field=FieldSpec.from_json(data["field"]),
            generator=Matrix.from_json(data["generator"]),
            structure=structure_from_json(data["structure"]),
            params=CodeParams(*(index(pp[key]) for key in ("n", "k", "r", "delta"))),
            claimed_d=index(data["claimed_d"]),
            trace=tuple((lam, tuple(col)) for lam, col in data["trace"]),
        )
        code.validate()
        if isinstance(code.structure, Frame):
            # cores read a frame's hub layout; a CoverSet may overlap (the
            # windows of an r = k code), so it keeps the range checks only
            ok, bad = validate_structure(code.structure, code.params.r,
                                         code.params.delta)
            if not ok:
                raise StructureMismatch("invalid frame: " + "; ".join(bad))
        return code

    def validate(self) -> None:
        """Raise unless the parts agree: a k x n generator over the code's
        field, and a structure on the coordinates [1..n]."""
        m, p = self.generator, self.params
        if (m.rows, m.cols) != (p.k, p.n):
            raise DimensionMismatch(
                f"generator is {m.rows} x {m.cols}, params declare k={p.k}, n={p.n}")
        if m.field != self.field:
            raise FieldMismatch(
                f"generator is over {m.field!r}, the code over {self.field!r}")
        if self.structure.n != p.n:
            raise StructureMismatch(
                f"structure covers [1..{self.structure.n}], params declare n={p.n}")


@dataclass
class ExtensionState:
    """Mutable state of one construction run."""

    field: FieldSpec
    params: CodeParams
    structure: Structure
    rng_seed: int
    columns: dict[int, tuple[int, ...]] = dataclass_field(default_factory=dict)
    omega: list[int] = dataclass_field(default_factory=list)
    trace: list[tuple[int, tuple[int, ...]]] = dataclass_field(default_factory=list)
    steps: list[StepStats] = dataclass_field(default_factory=list)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.rng_seed)
        self.functionals = _FunctionalCache(self.field, self.params.n, self.params.k)

    def assign(self, lam: int, col: tuple[int, ...]) -> None:
        self.columns[lam] = col
        self.omega.append(lam)
        self.omega.sort()
        self.trace.append((lam, col))

    def core_query(self) -> CoreQuery:
        return CoreQuery(self.structure, self.params.r, self.params.k,
                         self.params.delta, tuple(self.omega))


def mds_generator(L: int, k: int, field: FieldSpec) -> Matrix:
    """k x L matrix with every k columns independent.

    Column j is (1, x, x^2, ..., x^(k-1)) at the j-th canonical field
    element; distinct evaluation points make all maximal minors
    Vandermonde determinants, hence nonzero.
    """
    if not 1 <= k <= L:
        raise PreconditionViolated(f"need 1 <= k <= L, got k={k} L={L}")
    if field.q < L:
        raise FieldTooSmall(f"need q >= {L} evaluation points, field has q={field.q}")
    cols = []
    for j in range(L):
        x = j
        col = [1]
        for _ in range(k - 1):
            col.append(field.mul(col[-1], x))
        cols.append(col)
    return Matrix.from_columns(field, cols)


def _group_span_basis(state: ExtensionState, group: int) -> Basis:
    g = state.structure.groups[group - 1]
    assigned = [state.columns[x] for x in g if x in state.columns]
    return reduced_basis(state.field, assigned)


def _avoidance_search(state: ExtensionState, lam: int, b: int, accept,
                      contained, ncores: int) -> tuple[tuple[int, ...], int, int]:
    """Coefficient search: 64 seeded draws, then a containment check
    (certifying impossibility cheaply before any long sweep), then a
    lexicographic scan of the lines of GF(q)^b, whose members all pass or
    all fail. `accept` maps N x b coefficients to a mask. Returns the
    accepted coefficient tuple with the number of draws and of lines it took.
    """
    q = state.field.q
    kern = field_kernel(state.field)
    for draws in range(1, RANDOM_ATTEMPTS + 1):
        coeffs = tuple(state.rng.randrange(q) for _ in range(b))
        if any(coeffs) and accept(kern.array([coeffs]))[0]:
            return coeffs, draws, 0
    if contained():
        raise NoValidVector(
            f"no usable column for coordinate {lam}: the group span lies "
            f"inside a core span", num_cores=ncores, q=q, exhausted=True)
    total = (q ** b - 1) // (q - 1)
    limit = total if total <= _SCAN_LIMIT * 4 else _SCAN_LIMIT
    scanned = 0
    for C in kern.lines(b, max(1, _BATCH // max(1, ncores))):
        C = C[:limit - scanned]
        hits = np.flatnonzero(accept(C))
        if hits.size:
            return (tuple(C[hits[0]].tolist()), RANDOM_ATTEMPTS,
                    scanned + int(hits[0]) + 1)
        scanned += len(C)
        if scanned == limit < total:
            raise NoValidVector(
                f"no usable column for coordinate {lam} among the first "
                f"{scanned} of {total} lines of candidates: scan budget hit, "
                f"span not exhausted", num_cores=ncores, q=q, exhausted=False)
    raise NoValidVector(
        f"no usable column for coordinate {lam}: every candidate hits one of "
        f"{ncores} core spans", num_cores=ncores, q=q, exhausted=True)


def _column_array(state: ExtensionState) -> np.ndarray:
    """Assigned columns as kernel rows indexed by coordinate; others zero."""
    cols = field_kernel(state.field).zeros((state.params.n + 1, state.params.k))
    for x, col in state.columns.items():
        cols[x] = col
    return cols


def _append_rows(blocks: list, rows: tuple[np.ndarray, ...]) -> None:
    """Add rows to a list of blocks of parallel arrays, filling its last
    block up to _BATCH rows before starting another."""
    if blocks and len(blocks[-1][0]) + len(rows[0]) <= _BATCH:
        rows = tuple(map(np.concatenate, zip(blocks.pop(), rows)))
    blocks.append(rows)


class _FunctionalCache:
    """Every (k-1)-subset S0 of the covered coordinates with the
    functional whose kernel is span(S0) and a full-rank flag, as index,
    functional and flag arrays in blocks of at most _BATCH rows.

    The functionals are derived, not solved. A second cache, of pencils,
    holds each (k-2)-subset T of the covered coordinates with two
    functionals psi1, psi2 that vanish on T and its full-rank flag; when T
    is independent they span every functional vanishing on T. Covering x
    derives, for every cached T, the functional of T + x as
    (psi2 . c_x) psi1 - (psi1 . c_x) psi2, which vanishes on T and on c_x,
    and is zero exactly when T is deficient or c_x lies in span(T). Only
    pencils are eliminated, each once, when the coordinate covered after
    their last one is: at most C(n-2, k-2) per construction, as the last
    covered coordinate's pencils are never needed.

    A cached row is never recomputed, so a covered coordinate must keep
    its column. Subset indices are stored in the narrowest unsigned
    dtype that holds n, and int64 functionals in the narrowest one that
    holds q-1; they are widened back to the kernel's dtype when read.
    Rows of deficient subsets stay, flagged: only a deficient subset
    paired with lam as a core breaks the loop invariant.
    """

    def __init__(self, field: FieldSpec, n: int, k: int) -> None:
        self.kern = field_kernel(field)
        self.k = k
        self.dtype = np.min_scalar_type(n)
        self.phi_dtype = (np.min_scalar_type(field.q - 1)
                          if self.kern.dtype == np.int64 else self.kern.dtype)
        self.covered: list[int] = []
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.pencils: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        if k == 2:
            # the empty subset: every functional on GF(q)^2 vanishes on it
            self.pencils.append((np.zeros((1, 0), self.dtype),
                                 np.eye(2, dtype=self.phi_dtype)[None],
                                 np.ones(1, dtype=bool)))

    def grow(self, state: ExtensionState) -> tuple[int, int]:
        """Cover the coordinates of Omega not covered yet, in increasing
        order; returns how many functionals that derived and how many
        pencils it solved."""
        old = len(self.covered)
        order = self.covered = self.covered + sorted(
            set(state.omega).difference(self.covered))
        if self.k == 1:
            if old or not order:
                return 0, 0
            # the one (k-1)-subset is the empty one, killed by 1 in GF(q)^1
            self.blocks.append((np.zeros((1, 0), self.dtype),
                                np.ones((1, 1), self.phi_dtype),
                                np.ones(1, dtype=bool)))
            return 1, 0
        cols = _column_array(state)
        solved = 0
        if self.k > 2:
            # pencils through each covered coordinate but the last, in cover
            # order, so the (k-2)-subsets of order[:i] are the first C(i, k-2)
            solved = self._solve(cols, (
                (*S, order[i]) for i in range(max(old - 1, 0), len(order) - 1)
                for S in combinations(order[:i], self.k - 3)))
        added = sum(self._derive(cols, order[i], comb(i, self.k - 2))
                    for i in range(old, len(order)))
        return added, solved

    def _solve(self, cols: np.ndarray, subsets: Iterator[tuple[int, ...]]) -> int:
        """Eliminate the (k-2)-subsets and cache their pencils."""
        solved = 0
        for T in index_batches(subsets, self.k - 2, _SOLVE_ROWS, self.dtype):
            psi, full = _batch_nullspace(self.kern, cols[T])
            _append_rows(self.pencils, (T, psi.astype(self.phi_dtype), full))
            solved += len(T)
        return solved

    def _derive(self, cols: np.ndarray, x: int, count: int) -> int:
        """Cache the functional of T + x for the first `count` cached
        pencils T, _SOLVE_ROWS pencils at a time."""
        kern = self.kern
        c = cols[x][:, None]
        added = 0
        for T, pencil, full in self.pencils:
            for lo in range(0, min(len(T), count), _SOLVE_ROWS):
                rows = slice(lo, min(lo + _SOLVE_ROWS, count))
                psi = pencil[rows].astype(kern.dtype)
                dots = kern.matmul(psi, c)
                phi = kern.mul(psi[:, 0], dots[:, 1])
                kern.fms(phi, psi[:, 1], dots[:, 0])
                E = np.concatenate(
                    [T[rows], np.full((len(psi), 1), x, dtype=self.dtype)], axis=1)
                ok = full[rows] & (phi != 0).any(axis=1)
                _append_rows(self.blocks, (E, phi.astype(self.phi_dtype), ok))
                added += len(E)
            count -= len(T)
        return added

    def paired(self, q: CoreQuery, lam: int) -> list[np.ndarray]:
        """Per block, the mask of the cached S0 for which S0 + lam is a
        core."""
        masks = []
        for E, _, full in self.blocks:
            ok = core_mask(q, np.concatenate(
                [E, np.full((len(E), 1), lam, dtype=E.dtype)], axis=1))
            if not full[ok].all():
                raise RuntimeError(
                    "loop invariant violated: rank-deficient core basis in batch")
            masks.append(ok)
        return masks


def _core_functionals(state: ExtensionState, lam: int,
                      basis: np.ndarray) -> tuple[np.ndarray, int, int]:
    """For every core S0 paired with lam, the b coefficients of the linear
    functional ker = span(S0) restricted to the b x k group-span basis,
    with the numbers of functionals and pencils this step added to the cache.

    A candidate with coefficient vector c avoids span(S0) iff the matching
    row of the returned Psi has nonzero dot product with c. Rows follow
    the cache's order, each up to a nonzero scalar; only the lines the
    rows span matter.
    """
    kern = field_kernel(state.field)
    cache = state.functionals
    added, solved = cache.grow(state)
    masks = cache.paired(state.core_query(), lam)
    # filled in place: concatenating projected blocks would hold Psi twice,
    # which set the peak memory of a large build
    psi = kern.zeros((sum(int(ok.sum()) for ok in masks), len(basis)))
    at = 0
    for (_, phi, _), ok in zip(cache.blocks, masks):
        rows = kern.matmul(phi[ok].astype(kern.dtype), basis.T)
        psi[at:at + len(rows)] = rows
        at += len(rows)
    return psi, added, solved


def pick_extension_vector(state: ExtensionState, lam: int, group: int) -> tuple[int, ...]:
    """A nonzero vector in the group span avoiding every paired-core span.

    64 seeded random draws, then a lexicographic scan of the span's
    lines. The scan certifies NoValidVector for small spans; for spans too
    large to sweep it gives up after a fixed budget (the draw stage is then
    overwhelmingly likely to have succeeded first when q >= C(n, k-1)),
    and the error says the span was not exhausted. A successful step
    appends its StepStats to `state.steps`.
    """
    start = time.perf_counter()
    g = state.structure.groups[group - 1]
    if lam not in g or lam in state.columns:
        raise PreconditionViolated(
            f"coordinate {lam} is not an unassigned member of group {group}")
    kern = field_kernel(state.field)
    basis = kern.array([row for _, row in _group_span_basis(state, group)]
                       ).reshape(-1, state.params.k)
    psi, added, solved = _core_functionals(state, lam, basis)

    def accept(C: np.ndarray) -> np.ndarray:
        return (kern.matmul(psi, C.T) != 0).all(axis=0)

    def contained() -> bool:
        # an all-zero row means that core's functional kills the whole span
        return not (psi != 0).any(axis=1).all()

    coeffs, draws, scanned = _avoidance_search(
        state, lam, len(basis), accept, contained, psi.shape[0])
    state.steps.append(StepStats(lam, added, solved, psi.shape[0], draws,
                                 scanned, time.perf_counter() - start))
    return tuple(kern.matmul(kern.array([coeffs]), basis)[0].tolist())


def _assert_invariant(state: ExtensionState) -> None:
    """Full recheck: every core inside Omega has independent columns,
    checked _SOLVE_ROWS subsets at a time."""
    q = state.core_query()
    cols = _column_array(state)
    kern = field_kernel(state.field)
    for size in range(1, min(state.params.k, len(q.ground)) + 1):
        for E in index_batches(combinations(q.ground, size), size,
                               _SOLVE_ROWS, np.int64):
            E = E[core_mask(q, E)]
            _, ranks = _batch_rref(kern, cols[E])
            bad = np.flatnonzero(ranks < size)
            if bad.size:
                raise RuntimeError(
                    f"loop invariant violated: core {tuple(E[bad[0]].tolist())} "
                    f"has rank {ranks[bad[0]]}")


def run_extension(structure: Structure, params: CodeParams, field: FieldSpec,
                  seed: int = 0, check_invariants: bool = False) -> LrcCode:
    """Extension construction over a partition or a frame.

    Places the MDS base on Omega_0, then assigns every remaining
    coordinate group by group with `pick_extension_vector`.
    """
    if structure.n != params.n:
        raise PreconditionViolated(
            f"structure covers [1..{structure.n}] but params have n={params.n}")
    ok, bad = validate_structure(structure, params.r, params.delta)
    if not ok:
        raise PreconditionViolated("invalid structure: " + "; ".join(bad))
    if not coverage_check(structure, params.k, params.r, params.delta):
        raise PreconditionViolated(
            "structure fails the union-size coverage requirement")
    om = omega0(structure, params.r, params.delta)
    L = len(om.indices)
    base = mds_generator(L, params.k, field)
    state = ExtensionState(field=field, params=params, structure=structure,
                           rng_seed=seed)
    for j, x in enumerate(om.indices, start=1):
        state.columns[x] = base.column(j)
    state.omega = list(om.indices)
    if check_invariants:
        _assert_invariant(state)
    for gi, g in enumerate(structure.groups, start=1):
        for lam in g:
            if lam in state.columns:
                continue
            col = pick_extension_vector(state, lam, gi)
            state.assign(lam, col)
            if check_invariants:
                _assert_invariant(state)
    gen = Matrix.from_columns(
        field, [state.columns[j] for j in range(1, params.n + 1)])
    return LrcCode(field=field, generator=gen, structure=structure,
                   params=params, claimed_d=distance_bound(params),
                   trace=tuple(state.trace), steps=tuple(state.steps))


def _build_structure(params: CodeParams, method: str) -> Structure:
    n, r, delta = params.n, params.r, params.delta
    if method == METHOD_A1_UNIFORM:
        return uniform_partition(n, r, delta)
    if method == METHOD_A1_REMAINDER:
        return remainder_partition(n, r, delta, params.k)
    if method == METHOD_A2_HUB:
        return hub_frame(n, r, delta)
    if method == METHOD_A2_PAIRED:
        return paired_frame(n, r, delta)
    raise PreconditionViolated(f"unknown construction method {method!r}")


def _base_length(params: CodeParams) -> int:
    """Columns of the MDS base an extension route places on Omega_0:
    n - t(delta-1) for its t = ceil(n/(r+delta-1)) groups."""
    t = -(-params.n // params.group_size)
    return params.n - t * (params.delta - 1)


def construct(params: CodeParams, field: Optional[FieldSpec] = None,
              seed: int = 0, check_invariants: bool = False) -> LrcCode:
    """Classify, build the matching structure, and run its algorithm.

    The default field is the smallest prime at least max(C(n, k-1), n),
    which guarantees the extension loop succeeds; the r = k route also
    takes it. An explicit field is checked against the MDS base the
    route needs before any structure is built. NotExists parameters
    raise NotConstructible carrying the deciding rule's tag; Unknown
    parameters raise UnknownCase.
    """
    verdict = classify(params)
    if verdict.verdict == NOT_EXISTS:
        raise NotConstructible(
            f"no optimal code exists for n={params.n} k={params.k} "
            f"r={params.r} delta={params.delta}", tag=verdict.tag)
    if verdict.verdict not in (EXISTS, EXISTS_MDS):
        raise UnknownCase(
            f"existence unsettled for n={params.n} k={params.k} "
            f"r={params.r} delta={params.delta}", tag=verdict.tag)
    if field is None:
        field = field_at_least(max(field_bound(params), params.n), "prime")
    n, size = params.n, params.group_size
    if verdict.verdict == EXISTS_MDS and (n == size or n % size):
        return _mds_windows(params, field)
    base = _base_length(params)
    if field.q < base:
        raise FieldTooSmall(
            f"need q >= {base} for the {base}-column MDS base, field has q={field.q}")
    method = METHOD_A1_UNIFORM if verdict.verdict == EXISTS_MDS else verdict.method
    structure = _build_structure(params, method)
    return run_extension(structure, params, field, seed, check_invariants)


def _mds_windows(params: CodeParams, field: FieldSpec) -> LrcCode:
    """r = k, with n = L or n not a multiple of L = k+delta-1: optimal
    codes are the MDS codes, and an [n, k] MDS code has (k, delta)
    locality on any cover by L-sets, since its puncturings are MDS. So
    the Vandermonde code gets windows [1..L], [L+1..2L], ... and a last
    window [n-L+1..n], which overlaps its neighbour unless n = L.
    """
    n, size = params.n, params.group_size
    gen = mds_generator(n, params.k, field)
    windows = [range(a + 1, a + size + 1) for a in range(0, n - size, size)]
    windows.append(range(n - size + 1, n + 1))
    return LrcCode(field=field, generator=gen, structure=CoverSet(n, windows),
                   params=params, claimed_d=distance_bound(params))
