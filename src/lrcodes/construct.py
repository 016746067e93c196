"""Deterministic construction of distance-optimal locally repairable codes.

The pipeline: place a Vandermonde MDS base on the initial core Omega_0,
then assign the remaining columns group by group. Each new column for
coordinate lam must lie in the span of its group's already-assigned
columns while avoiding span(S0) for every (k-1)-set S0 that would form
a core together with lam. Random draws from the group span (seeded)
almost always succeed when q is at least C(n, k-1); a deterministic
lexicographic scan backs them up.

Avoidance is one batched test for every field: each (k-1)-subset S0 of
assigned coordinates has a linear functional whose kernel is span(S0),
and a candidate is accepted when none of the functionals of the cores
paired with lam vanishes on it. The functionals are cached across
steps: a subset's functional depends only on its own columns, which
never change once assigned, so each step solves (by Gauss-Jordan on the
field's numpy kernel) only the subsets that contain a newly assigned
coordinate, and picks the paired cores out of the cache with one
batched core mask.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dataclass_field
from itertools import chain, combinations, islice, product
from operator import index
from typing import Iterator, Optional, Sequence

import numpy as np

from .covers import (
    CoverSet,
    Structure,
    coverage_check,
    hub_frame,
    paired_frame,
    remainder_partition,
    structure_from_json,
    uniform_partition,
)
# lambda_cores and reduce_vector are not called here: they are imported
# so that the benchmark's tracer (perfbench/tracer.py), which wraps
# functions under the module names their callers use, finds them.
from .cores import _BATCH, CoreQuery, core_mask, lambda_cores, omega0
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
from .linalg import (Basis, Matrix, _batch_nullvec, _batch_rref, reduce_vector,
                     reduced_basis)
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

# Subsets per elimination when the functional cache grows. Smaller than
# the cache's blocks of _BATCH rows: the gathered (k-1) x k matrices and
# their elimination temporaries are several times a block's own size, and
# at [37,7,3,3] an eighth of _BATCH built as fast as a full one with
# 50 MB less peak memory.
_SOLVE_ROWS = _BATCH // 8


@dataclass(frozen=True)
class StepStats:
    """What one extension step did: the coordinate lam it assigned, the
    (k-1)-subsets it added to the functional cache, the cores paired with
    lam, the random draws and scan candidates it tried, and its wall time.
    """

    lam: int
    rows_added: int
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

    @property
    def matrix(self) -> Matrix:
        """Current k x n matrix; unassigned coordinates hold zero columns."""
        k, n = self.params.k, self.params.n
        zero = (0,) * k
        return Matrix.from_columns(
            self.field, [self.columns.get(j, zero) for j in range(1, n + 1)])

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


def _combine(field: FieldSpec, coeffs: Sequence[int], rows: Sequence[tuple[int, ...]],
             k: int) -> tuple[int, ...]:
    acc = [0] * k
    for c, row in zip(coeffs, rows):
        if c:
            for i in range(k):
                if row[i]:
                    acc[i] = field.add(acc[i], field.mul(c, row[i]))
    return tuple(acc)


def _avoidance_search(state: ExtensionState, lam: int, b: int, accept,
                      contained, ncores: int) -> tuple[tuple[int, ...], int, int]:
    """Coefficient search: 64 seeded draws, then a containment check
    (certifying impossibility cheaply before any long sweep), then a
    lexicographic scan. Returns the accepted coefficient tuple with the
    number of draws and of scanned candidates it took.
    """
    q = state.field.q
    for draws in range(1, RANDOM_ATTEMPTS + 1):
        coeffs = tuple(state.rng.randrange(q) for _ in range(b))
        if any(coeffs) and accept(coeffs):
            return coeffs, draws, 0
    if contained():
        raise NoValidVector(
            f"no usable column for coordinate {lam}: the group span lies "
            f"inside a core span", num_cores=ncores, q=q, exhausted=True)
    can_finish = q ** b <= _SCAN_LIMIT * 4
    scanned = 0
    for coeffs in product(range(q), repeat=b):
        if not any(coeffs):
            continue
        scanned += 1
        if accept(coeffs):
            return coeffs, RANDOM_ATTEMPTS, scanned
        if not can_finish and scanned >= _SCAN_LIMIT:
            raise NoValidVector(
                f"no usable column for coordinate {lam} among the first "
                f"{scanned} of {q ** b - 1} candidates: scan budget hit, "
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


class _FunctionalCache:
    """Every (k-1)-subset S0 of the covered coordinates with the
    functional whose kernel is span(S0) and a full-rank flag, as index,
    functional and flag arrays in blocks of at most _BATCH rows.

    A cached functional is never recomputed, so a covered coordinate must
    keep its column. Subset indices are stored in the narrowest unsigned
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
        self.covered: set[int] = set()
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def _new_subsets(self, new: list[int]) -> Iterator[np.ndarray]:
        """Batches of the subsets holding a coordinate of `new`: for each
        x in turn, the (k-2)-subsets of what is covered so far plus x."""
        k = self.k
        if k == 1:
            # the empty subset lies in every ground set
            if not self.blocks:
                yield np.zeros((1, 0), dtype=self.dtype)
            self.covered.update(new)
            return

        def subsets():
            for x in new:
                for S in combinations(sorted(self.covered), k - 2):
                    yield *S, x
                self.covered.add(x)

        it = subsets()
        while chunk := list(islice(it, _SOLVE_ROWS)):
            yield np.fromiter(chain.from_iterable(chunk), dtype=self.dtype,
                              count=len(chunk) * (k - 1)).reshape(len(chunk), k - 1)

    def grow(self, state: ExtensionState) -> int:
        """Solve and store the subsets of Omega not cached yet; returns
        how many rows that added."""
        new = sorted(set(state.omega) - self.covered)
        cols = _column_array(state)
        added = 0
        for E in self._new_subsets(new):
            phi, full = _batch_nullvec(self.kern, cols[E])
            rows = (E, phi.astype(self.phi_dtype), full)
            if self.blocks and len(self.blocks[-1][0]) + len(E) <= _BATCH:
                rows = tuple(map(np.concatenate, zip(self.blocks.pop(), rows)))
            self.blocks.append(rows)
            added += len(E)
        return added

    def paired(self, q: CoreQuery, lam: int) -> Iterator[np.ndarray]:
        """Block by block, the functionals of the cached S0 for which
        S0 + lam is a core."""
        for E, phi, full in self.blocks:
            ok = core_mask(q, np.concatenate(
                [E, np.full((len(E), 1), lam, dtype=E.dtype)], axis=1))
            if not full[ok].all():
                raise RuntimeError(
                    "loop invariant violated: rank-deficient core basis in batch")
            yield phi[ok].astype(self.kern.dtype)


def _core_functionals(state: ExtensionState, lam: int,
                      basis_rows: list[tuple[int, ...]]) -> tuple[np.ndarray, int]:
    """For every core S0 paired with lam, the b coefficients of the linear
    functional ker = span(S0) restricted to the group-span basis, with
    the number of subsets this step added to the cache.

    A candidate with coefficient vector c avoids span(S0) iff the matching
    row of the returned Psi has nonzero dot product with c. Rows follow
    the cache's order; only the set of rows matters.
    """
    kern = field_kernel(state.field)
    added = state.functionals.grow(state)
    psi_chunks = [kern.zeros((0, len(basis_rows)))]
    for phi in state.functionals.paired(state.core_query(), lam):
        psi_chunks.append(np.stack([kern.matvec(phi, w) for w in basis_rows], axis=1))
    return np.concatenate(psi_chunks), added


def pick_extension_vector(state: ExtensionState, lam: int, group: int) -> tuple[int, ...]:
    """A nonzero vector in the group span avoiding every paired-core span.

    64 seeded random draws, then a lexicographic scan of the span. The
    scan certifies NoValidVector for small spans; for spans too large to
    sweep it gives up after a fixed budget (the draw stage is then
    overwhelmingly likely to have succeeded first when q >= C(n, k-1)),
    and the error says the span was not exhausted. A successful step
    appends its StepStats to `state.steps`.
    """
    start = time.perf_counter()
    g = state.structure.groups[group - 1]
    if lam not in g or lam in state.columns:
        raise PreconditionViolated(
            f"coordinate {lam} is not an unassigned member of group {group}")
    basis_rows = [row for _, row in _group_span_basis(state, group)]
    kern = field_kernel(state.field)
    psi, added = _core_functionals(state, lam, basis_rows)

    def accept(coeffs: Sequence[int]) -> bool:
        return bool((kern.matvec(psi, coeffs) != 0).all())

    def contained() -> bool:
        # an all-zero row means that core's functional kills the whole span
        return not (psi != 0).any(axis=1).all()

    coeffs, draws, scanned = _avoidance_search(
        state, lam, len(basis_rows), accept, contained, psi.shape[0])
    state.steps.append(StepStats(lam, added, psi.shape[0], draws, scanned,
                                 time.perf_counter() - start))
    return _combine(state.field, coeffs, basis_rows, state.params.k)


def _assert_invariant(state: ExtensionState) -> None:
    """Full recheck: every core inside Omega has independent columns."""
    q = state.core_query()
    cols = _column_array(state)
    kern = field_kernel(state.field)
    for size in range(1, min(state.params.k, len(q.ground)) + 1):
        E = np.array(list(combinations(q.ground, size)), dtype=np.int64)
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
    from .covers import validate as validate_structure

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


def construct(params: CodeParams, field: Optional[FieldSpec] = None,
              seed: int = 0, check_invariants: bool = False) -> LrcCode:
    """Classify, build the matching structure, and run its algorithm.

    The default field is the smallest prime at least max(C(n, k-1), n),
    which guarantees the extension loop succeeds. NotExists parameters
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
    if verdict.verdict == EXISTS_MDS:
        return _construct_mds(params, field, seed, check_invariants)
    structure = _build_structure(params, verdict.method)
    return run_extension(structure, params, field, seed, check_invariants)


def _construct_mds(params: CodeParams, field: FieldSpec, seed: int,
                   check_invariants: bool) -> LrcCode:
    """r = k: optimal codes are exactly the MDS codes.

    Three shapes: n = k+delta-1 fits one repair group; group-size-divisible
    n runs the standard partition pipeline (whose output is MDS); anything
    else needs overlapping repair groups, which no partition or frame here
    expresses, so it is reported not constructible despite existing.
    """
    n, k, delta = params.n, params.k, params.delta
    size = params.group_size
    if n == k + delta - 1:
        gen = mds_generator(n, k, field)
        structure = CoverSet(n, [range(1, n + 1)])
        return LrcCode(field=field, generator=gen, structure=structure,
                       params=params, claimed_d=distance_bound(params))
    if n % size == 0:
        structure = uniform_partition(n, params.r, delta)
        return run_extension(structure, params, field, seed, check_invariants)
    raise NotConstructible(
        f"optimal codes for r=k, n={n} need overlapping repair groups, "
        "which this builder does not emit", tag="mds-overlapping-cover")
