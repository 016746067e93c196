import importlib
import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import combinations, islice
from math import comb
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lrcodes.codefile import CodeFile
from lrcodes.construct import (
    ExtensionState,
    LrcCode,
    construct,
    mds_generator,
    pick_extension_vector,
    run_extension,
)
from lrcodes.cores import CoreQuery, is_core, lambda_cores, omega0
from lrcodes.covers import CoverSet, Frame, hub_frame, paired_frame, uniform_partition
from lrcodes.errors import (
    FieldTooSmall,
    NotConstructible,
    NoValidVector,
    PreconditionViolated,
    UnknownCase,
)
from lrcodes.gf import field_at_least, field_kernel, field_make
from lrcodes.linalg import Matrix, _annihilate, rank
from lrcodes.params import (
    EXISTS,
    EXISTS_MDS,
    METHOD_A1_UNIFORM,
    CodeParams,
    classify,
    distance_bound,
    field_bound,
)
from lrcodes.verify import certify_optimal, min_distance

from avoidance_oracle import oracle_pick
from core_check import first_dependent_core
from nullspace_oracle import batch_nullspace, row_spaces

construct_mod = importlib.import_module("lrcodes.construct")


# ---------------------------------------------------------------------
# MDS base matrices
# ---------------------------------------------------------------------

def test_mds_generator_pinned():
    m = mds_generator(4, 2, field_make(5))
    assert [m.column(j) for j in range(1, 5)] == [(1, 0), (1, 1), (1, 2), (1, 3)]


def test_mds_generator_every_k_columns_independent():
    cases = [(6, 3, field_make(7)), (5, 2, field_make(5)),
             (8, 4, field_make(11)), (6, 3, field_make(2, 3)),
             (4, 4, field_make(5)), (7, 1, field_make(7))]
    for L, k, f in cases:
        m = mds_generator(L, k, f)
        assert m.rows == k and m.cols == L
        for cols in combinations(range(1, L + 1), k):
            assert rank(m, cols) == k


def test_mds_generator_errors():
    f = field_make(7)
    with pytest.raises(PreconditionViolated):
        mds_generator(4, 0, f)
    with pytest.raises(PreconditionViolated):
        mds_generator(4, 5, f)
    with pytest.raises(FieldTooSmall):
        mds_generator(8, 3, f)
    # q = L is enough: evaluation points 0..L-1
    mds_generator(7, 3, f)


# ---------------------------------------------------------------------
# pipeline examples
# ---------------------------------------------------------------------

def test_construct_uniform_example():
    code = construct(CodeParams(12, 5, 2, 3), field_make(499), seed=0)
    assert code.claimed_d == 4 == distance_bound(CodeParams(12, 5, 2, 3))
    assert isinstance(code.structure, CoverSet)
    assert code.structure.groups == ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12))
    assert code.generator.rows == 5 and code.generator.cols == 12
    # extension fills exactly the complement of Omega0, in group order
    assert [lam for lam, _ in code.trace] == [3, 4, 7, 8, 11, 12]
    assert rank(code.generator, range(1, 13)) == 5


def test_construct_remainder_example():
    code = construct(CodeParams(11, 5, 2, 2), field_make(331), seed=0)
    assert code.claimed_d == 5
    assert code.structure.groups == ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11))


def test_construct_paired_frame_example():
    code = construct(CodeParams(10, 5, 2, 2), field_make(211), seed=0)
    assert code.claimed_d == 4
    assert isinstance(code.structure, Frame)
    assert code.structure.groups == ((1, 2, 3), (3, 4, 5), (6, 7, 8), (8, 9, 10))


def test_construct_hub_frame_example():
    code = run_extension(hub_frame(8, 2, 2), CodeParams(8, 3, 2, 2),
                         field_make(29), seed=0)
    assert code.claimed_d == 5
    assert code.structure.groups == ((1, 2, 3), (1, 4, 5), (6, 7, 8))


def test_construct_binary_field():
    code = construct(CodeParams(6, 3, 2, 2), field_make(2, 4), seed=0)
    assert code.field.q == 16
    ok, _ = certify_optimal(code, budget=10**6)
    assert ok


def test_construct_default_field_is_smallest_adequate_prime():
    code = construct(CodeParams(12, 5, 2, 3), seed=0)
    p = CodeParams(12, 5, 2, 3)
    assert code.field.q == field_at_least(max(field_bound(p), p.n), "prime").q == 499
    code = construct(CodeParams(6, 3, 2, 2), seed=0)
    assert code.field.q == 17


# ---------------------------------------------------------------------
# determinism and the avoidance oracle
# ---------------------------------------------------------------------

def test_construct_deterministic_per_seed():
    a = construct(CodeParams(12, 5, 2, 3), field_make(499), seed=7)
    b = construct(CodeParams(12, 5, 2, 3), field_make(499), seed=7)
    assert a == b
    c = construct(CodeParams(12, 5, 2, 3), field_make(499), seed=8)
    assert a.generator != c.generator


def test_engine_matches_scalar_oracle(monkeypatch):
    # batched kernel avoidance against per-core reduced bases, step by
    # step, over prime and binary fields and both structure kinds
    cases = [
        (CodeParams(12, 5, 2, 3), field_make(499)),
        (CodeParams(15, 6, 2, 2), field_make(3011)),
        (CodeParams(13, 7, 3, 2), field_make(1721)),
        (CodeParams(14, 8, 3, 2), field_make(3433)),
        (CodeParams(12, 5, 2, 3), field_make(2, 9)),
        (CodeParams(11, 5, 2, 2), field_make(2, 8)),
        (CodeParams(13, 7, 3, 2), field_make(2, 12)),
        (CodeParams(10, 5, 2, 2), field_make(2, 8)),
    ]
    for params, f in cases:
        for seed in (0, 1, 5):
            engine = construct(params, f, seed=seed)
            monkeypatch.setattr(construct_mod, "pick_extension_vector", oracle_pick)
            oracle = construct(params, f, seed=seed)
            monkeypatch.undo()
            assert engine == oracle, (params, f, seed)
    for seed in (0, 3):
        args = (hub_frame(8, 2, 2), CodeParams(8, 3, 2, 2), field_make(29))
        engine = run_extension(*args, seed=seed)
        monkeypatch.setattr(construct_mod, "pick_extension_vector", oracle_pick)
        oracle = run_extension(*args, seed=seed)
        monkeypatch.undo()
        assert engine == oracle


def _per_step_psi(state, lam, basis):
    """Psi as solved before the cache: every core paired with lam
    enumerated afresh and eliminated in one batch."""
    kern = field_kernel(state.field)
    E = np.array(list(lambda_cores(state.core_query(), lam)), dtype=np.int64)
    E = E.reshape(len(E), state.params.k - 1)
    phi, full = batch_nullspace(kern, construct_mod._column_array(state)[E])
    phi = phi[:, 0]
    if not full.all():
        raise RuntimeError("loop invariant violated: rank-deficient core basis")
    return kern.matmul(phi, basis.T)


def _projective_rows(f, rows):
    """The rows, each nonzero one scaled to lead with 1, sorted: two
    arrays give the same list iff their rows agree up to order and
    nonzero scalars."""
    out = []
    for row in rows.tolist():
        inv = f.inv(next((v for v in row if v), 1))
        out.append(tuple(f.mul(inv, v) for v in row))
    return sorted(out)


def _checked_core_values(compared):
    real = construct_mod._core_values

    def step(state, lam, basis):
        want = _per_step_psi(state, lam, basis)
        values, cores, added, subsets = real(state, lam, basis)
        # each top row's functional, rebuilt from the cache's layout and
        # restricted to the basis, is its value on the unit coefficient
        # vectors; the paired rows, picked by is_core row by row, are the
        # per-step solve's, up to order and scalars
        cache = state.functionals
        kern = field_kernel(state.field)
        q = CoreQuery(state.structure, state.params.r, state.params.k, state.params.delta)
        ok = np.array([is_core(S0 + [lam], q)
                       for S0 in _cover_order(cache.covered, cache.k - 1)])
        phi = _cache_levels(cache)[-1][1][0]
        psi = kern.matmul(phi, basis.T)
        assert psi.shape == (len(ok), len(basis)) and ok.sum() == cores
        assert (_projective_rows(state.field, psi[ok])
                == _projective_rows(state.field, want)), (state.params, lam)
        # values' masks say, over every top row, whether each unit vector
        # avoids the row's span, and are True on the rows not paired with lam
        unit = kern.array(np.eye(len(basis), dtype=np.int64))
        avoids = np.concatenate(list(values(unit)[0]))
        assert (avoids == ((psi != 0) | ~ok[:, None])).all(), (state.params, lam)
        compared.append(lam)
        return values, cores, added, subsets
    return step


def test_cached_functionals_match_per_step_solve(monkeypatch):
    # the cores' values on the unit coefficient vectors, at every step, are
    # the rows of solving each paired core afresh, up to row order and
    # nonzero row scalars; also with slices of a few cells, so that the
    # values gather many blocks and cut the larger ones
    compared = []
    monkeypatch.setattr(construct_mod, "_core_values",
                        _checked_core_values(compared))
    builds = [
        lambda: construct(CodeParams(12, 5, 2, 3), field_make(499), seed=1),
        lambda: construct(CodeParams(12, 5, 2, 3), field_make(2, 9), seed=2),
        lambda: construct(CodeParams(10, 5, 2, 2), field_make(211), seed=0),
        lambda: construct(CodeParams(10, 5, 2, 2), field_make(2, 8), seed=3),
        lambda: run_extension(hub_frame(8, 2, 2), CodeParams(8, 3, 2, 2),
                              field_make(29), seed=0),
        lambda: run_extension(hub_frame(8, 2, 2), CodeParams(8, 3, 2, 2),
                              field_make(2, 5), seed=1),
        # k = 1 and k = 2: zero-column and one-column subsets
        lambda: construct(CodeParams(6, 1, 1, 3), field_make(7), seed=0),
        lambda: construct(CodeParams(6, 1, 1, 2), field_make(2, 3), seed=0),
        lambda: construct(CodeParams(9, 2, 1, 3), field_make(11), seed=0),
        lambda: construct(CodeParams(8, 2, 1, 2), field_make(2, 4), seed=1),
    ]
    for cells in (10, construct_mod._SOLVE_CELLS):
        monkeypatch.setattr(construct_mod, "_SOLVE_CELLS", cells)
        for build in builds:
            before = len(compared)
            build()
            assert len(compared) > before
    # hand-built states: Omega set directly, nothing cached yet
    state = _gf5_five_lines_state()
    a, b = pick_extension_vector(state, 3, 1)
    assert b == 4 * a % 5 and state.steps[0].rows_added == 5
    state = ExtensionState(field=field_make(17), params=CodeParams(6, 3, 2, 2),
                           structure=uniform_partition(6, 2, 2), rng_seed=0)
    state.columns = {1: (1, 0, 0), 2: (0, 1, 0), 4: (0, 0, 1), 5: (1, 1, 1)}
    state.omega = [1, 2, 4, 5]
    state.assign(3, pick_extension_vector(state, 3, 1))
    pick_extension_vector(state, 6, 2)
    assert compared[-3:] == [3, 3, 6]
    assert [s.rows_added for s in state.steps] == [comb(4, 2), comb(4, 1)]


def _cache_state(f, n, k, rng):
    """Random columns for coordinates 1..n over f with planted defects: a
    zero column, a column parallel to another (for k >= 3, every subset
    through both is deficient) and, for k >= 4, a column in the span of
    two others."""
    cols = {x: tuple(rng.randrange(f.q) for _ in range(k)) for x in range(1, n + 1)}
    x0, x1, x2, x3, x4, x5 = rng.sample(range(1, n + 1), 6)
    cols[x0] = (0,) * k
    cols[x1] = tuple(f.mul(3, v) for v in cols[x2])
    if k >= 4:
        cols[x3] = tuple(f.add(u, f.mul(5, v)) for u, v in zip(cols[x4], cols[x5]))
    return SimpleNamespace(field=f, params=SimpleNamespace(n=n, k=k),
                           columns=cols, omega=[])


def _cover_order(covered, j):
    """The j-subsets of the covered coordinates in the cache's row order:
    by last covered member, then by the rest, so that the first C(i, j)
    are the j-subsets of the first i covered coordinates."""
    return [[covered[i] for i in t] for t in
            sorted(combinations(range(len(covered)), j), key=lambda t: t[::-1])]


def _counts_of(counted, subsets):
    """The group counts of each subset, summed in Python."""
    return [[sum(int(counted[x][c]) for x in T) for c in range(counted.shape[1])]
            for T in subsets]


def _walked(cache, V):
    """Each level's values of V (k x N) as the cache walks them headed for
    cover index L, L the number of covered coordinates: j = 0 .. k-2,
    (k-j) x C(L, j) x N, every row of the level."""
    heads = np.full(V.shape[1], len(cache.covered))
    return [W.astype(cache.kern.dtype) for W in cache.walk(V, heads)]


def _cache_levels(cache):
    """(counts, functionals, flags) of each level j = 0 .. k-1 of the
    cache over every live row, the functionals (k-j) x rows x k, a row's
    flag whether its functionals are nonzero. Level 0 is the empty subset
    and the identity. Level j >= 1 is rebuilt from its layout: covered
    coordinate i's rows are T + x_i
    for the rows T = 0 .. C(i, j-1) - 1 of level j-1 in order, each with
    T's counts plus counted[x_i] and, by one `_annihilate` step with its
    stored coefficients a, the functionals of T + x_i, T's read off the
    cache's walk of I_k. Below the top the counts are read off the class
    ids, and the walk's values are the functionals, entry for entry.
    For k = 1 the top level is level 0."""
    kern, k = cache.kern, cache.k
    held = [counts[i] for i, counts in zip(cache.ids, cache.counts)]
    levels = [(held[0], kern.array(np.eye(k, dtype=np.int64)[:, None]),
               np.ones(1, dtype=bool))]
    walked = _walked(cache, kern.array(np.eye(k, dtype=np.int64)))
    for j in range(1, k):
        counts, A, _ = levels[-1]
        rows = [(s, x) for i, x in enumerate(cache.covered)
                for s in range(comb(i, j - 1))]
        parent = np.array([s for s, _ in rows], dtype=np.int64)
        new = np.array([x for _, x in rows], dtype=np.int64)
        a = cache.coeffs[j][:, :len(rows)].astype(kern.dtype)
        phi = _annihilate(kern, A[:, parent], a)[0]
        counts = counts[parent] + cache.model.counted[new]
        if j < k - 1:
            assert (held[j][:len(rows)] == counts).all()
            W = walked[j]
            assert (W == phi).all(), j
        levels.append((counts, phi, (phi != 0).any(axis=(0, 2))))
    return levels


def _assert_levels_in_cover_order(cache):
    # every live row of every level holds its subset's counts, in cover
    # order; the top level's, derived from its parents, too. Each class of
    # a level is one distinct count vector, its ids fit the level's dtype,
    # and the deficient top rows are listed
    for ids, counts in zip(cache.ids, cache.counts):
        assert len({v.tobytes() for v in counts}) == len(counts)
        assert len(counts) <= np.iinfo(ids.dtype).max + 1
    for j, (counts, _, full) in enumerate(_cache_levels(cache)):
        subsets = _cover_order(cache.covered, j)
        assert (counts[:len(subsets)].tolist()
                == _counts_of(cache.model.counted, subsets)), j
    if cache.k > 1:
        assert (cache.deficient.tolist()
                == np.flatnonzero(~full[:len(subsets)]).tolist())


def _cut_order(rng, n):
    """A random order of 1..n, cut after a few coordinates and then one or
    two at a time."""
    order = rng.sample(range(1, n + 1), n)
    cuts = [rng.randrange(1, 5)]
    while cuts[-1] < n:
        cuts.append(min(n, cuts[-1] + rng.randrange(1, 3)))
    return order, cuts


@pytest.mark.parametrize("f", [field_make(11), field_make(1000003),
                               field_make(2, 4), field_make(4294967311)], ids=repr)
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_derived_functionals_match_their_own_elimination(f, k, monkeypatch):
    # after every growth, level j of the cache, walked on I_k, holds each
    # j-subset T of the covered coordinates once, in cover order; its rows
    # are nonzero iff T has full rank, and then span T's own nullspace;
    # the top level's, rebuilt from two coefficients and a parent pencil,
    # too; also with slices of a few cells, so that a coordinate's rows
    # span several slices and a slice several coordinates
    rng = random.Random(f.q * 10 + k)
    kern = field_kernel(f)
    deficient = 0
    n = 9
    # one indicator column per coordinate, so a row's counts name its
    # subset, then random 0/1 columns that a row's counts sum
    model = SimpleNamespace(counted=np.concatenate(
        [np.eye(n + 1, dtype=np.int8),
         np.array([[rng.randrange(2) for _ in range(4)] for _ in range(n + 1)],
                  dtype=np.int8)], axis=1))
    for cells in [1 << 17, 40, 60, 1]:
        monkeypatch.setattr(construct_mod, "_SOLVE_CELLS", cells)
        state = _cache_state(f, n, k, rng)
        # sized for n + 1 coordinates, so that all n can be covered
        cache = construct_mod._FunctionalCache(f, n + 1, k, model)
        # cover a few coordinates, then one or two at a time, in an order
        # that is not increasing
        order, cuts = _cut_order(rng, n)
        for cut in cuts:
            state.omega = order[:cut]
            cache.grow(state)
            assert sorted(cache.covered) == sorted(order[:cut])
            _assert_levels_in_cover_order(cache)
            for j, (_, A, full) in enumerate(_cache_levels(cache)):
                live = comb(cut, j)
                A, full = A[:, :live].transpose(1, 0, 2), full[:live]
                E = np.array(_cover_order(cache.covered, j),
                             dtype=np.int64).reshape(live, j)
                if j == 0:
                    assert full.all() and (A == np.eye(k)).all()
                    continue
                want, want_full = batch_nullspace(
                    kern, construct_mod._column_array(state)[E])
                assert full.tolist() == want_full.tolist(), (f, k, j, cut)
                assert (row_spaces(kern, A[full])
                        == row_spaces(kern, want[full])).all(), (f, k, j, cut)
                deficient += int((~full).sum())
    if k >= 3:
        assert deficient
    # a cache of n coordinates holds subsets of n - 1: covering all n raises
    cache = construct_mod._FunctionalCache(f, n, k, model)
    state.omega = list(range(1, n + 1))
    with pytest.raises(PreconditionViolated, match="at most 8 coordinates"):
        cache.grow(state)


@pytest.mark.parametrize("f", [field_make(1000003), field_make(4294967311),
                               field_make(2, 4)], ids=repr)
def test_walk_is_exact_against_repeated_annihilation(f, monkeypatch):
    # the functionals of every subset, derived from the identity by one
    # `_annihilate` step per member in cover order, are the walk of I_k,
    # entry for entry, and each stored a is the functionals of its parent
    # at its column; the walk of random vectors is those functionals times
    # them. Random structures over an int64 prime, a prime whose kernel
    # holds Python ints and GF(2^4), where a_0 = 0 with a != 0 is common
    rng = random.Random(f.q)
    kern = field_kernel(f)
    pivots = 0
    for trial in range(6):
        n, k = rng.randrange(6, 10), rng.randrange(2, 6)
        monkeypatch.setattr(construct_mod, "_SOLVE_CELLS", rng.choice([1, 30, 1 << 17]))
        model = SimpleNamespace(counted=np.array(
            [[rng.randrange(2) for _ in range(3)] for _ in range(n + 1)], dtype=np.int8))
        state = _cache_state(f, n, k, rng)
        # a column with first entry 0 and another nonzero: its level 1 row
        # takes pivot 1 in every field
        x = rng.randrange(1, n + 1)
        state.columns[x] = (0, 1 + rng.randrange(f.q - 1)) + state.columns[x][2:]
        cache = construct_mod._FunctionalCache(f, n + 1, k, model)
        cols = construct_mod._column_array(state)
        order, cuts = _cut_order(rng, n)
        for cut in cuts:
            state.omega = order[:cut]
            cache.grow(state)
            xs = cache.covered
            phi = {(): kern.array(np.eye(k, dtype=np.int64))}
            V = kern.array([[rng.randrange(f.q) for _ in range(3)] for _ in range(k)])
            walked = _walked(cache, kern.array(np.eye(k, dtype=np.int64)))
            values = _walked(cache, V)
            for j in range(1, k):
                for row, T in enumerate(_cover_order(xs, j)):
                    A = phi[tuple(T[:-1])]
                    a = kern.matmul(A, cols[T[-1]][:, None])[:, 0]
                    assert cache.coeffs[j][:, row].tolist() == a.tolist(), (j, T)
                    phi[tuple(T)] = _annihilate(kern, A[:, None], a[:, None])[0][:, 0]
                    if j < k - 1:
                        pivots += int(a[0] == 0 and (a != 0).any())
                        assert (walked[j][:, row] == phi[tuple(T)]).all(), (j, T)
                        assert (values[j][:, row]
                                == kern.matmul(phi[tuple(T)], V)).all(), (j, T)
            assert (walked[0][:, 0] == np.eye(k)).all() and (values[0][:, 0] == V).all()
    # walked rows that took a pivot past a_0
    assert pivots >= 6
    if f.e > 1:
        assert pivots > 20


@pytest.mark.parametrize("n, k, classes", [
    # 1 + 13 + 78 + 286 classes: level 3's ids take two bytes
    (13, 5, [1, 13, 78, 286]),
    # 70 columns: count keys pass 63 bits and are Python ints
    (69, 4, [1, 69, 2346]),
])
def test_count_classes_fit_their_dtype(n, k, classes):
    # one indicator column per coordinate gives every subset a class of
    # its own
    f = field_make(101)
    model = SimpleNamespace(counted=np.eye(n + 1, dtype=np.int8))
    state = _cache_state(f, n, k, random.Random(0))
    cache = construct_mod._FunctionalCache(f, n + 1, k, model)
    assert [len(v) for v in cache.counts] == classes
    assert [ids.dtype for ids in cache.ids] == [
        np.min_scalar_type(c - 1) for c in classes]
    state.omega = list(range(1, 12))
    cache.grow(state)
    _assert_levels_in_cover_order(cache)


def test_cache_solves_each_pencil_once_in_bounded_slices(monkeypatch):
    # nothing is eliminated: construct has no elimination to call, and the
    # cache holds coefficients, no functional. A vector headed for cover
    # index i walks each level between the identity and the pencils once,
    # by one step from the previous level, over the C(i, j) rows of the
    # first i covered coordinates, and no slice past them; the top level by
    # none. A step's candidates are headed for index L, L covered (L - 1
    # at the last step, whose L has no rows), and the accepted one's walk
    # is L's rows: only the first growth walks, once, each base column
    # headed for its own index. Each step, and each slice of pencil values
    # gathered for it or for the top level, reads at most _SOLVE_CELLS
    # cells, or one row where a row holds more; a step's coefficients are
    # one per functional and row
    assert not hasattr(construct_mod, "_batch_rref")
    builds = [
        lambda: construct(CodeParams(12, 5, 2, 3), field_make(499), seed=0),
        lambda: construct(CodeParams(10, 5, 2, 2), field_make(2, 8), seed=1),
        lambda: run_extension(hub_frame(8, 2, 2), CodeParams(8, 3, 2, 2),
                              field_make(29)),
        lambda: construct(CodeParams(9, 2, 1, 3), field_make(11), seed=0),
    ]
    cells = 40
    for build in builds:
        want = build()
        monkeypatch.setattr(construct_mod, "_SOLVE_CELLS", cells)
        real_annihilate, real_gather = construct_mod._annihilate, construct_mod._gather
        steps, gathered, walks, growths, caches = [], [], [], [], []

        def annihilate(kern, A, a):
            assert a.shape == A.shape[:2]
            steps.append(A.shape)
            return real_annihilate(kern, A, a)

        def gather(X, segs, dtype):
            out = real_gather(X, segs, dtype)
            gathered.append(out.shape)
            return out

        class Cache(construct_mod._FunctionalCache):
            def __init__(self, *args):
                super().__init__(*args)
                caches.append(self)

            def grow(self, state):
                start = len(steps), len(walks)
                added = super().grow(state)
                growths.append((len(steps) - start[0], walks[start[1]:]))
                return added

            def walk(self, V, heads):
                start = len(steps)
                yield from super().walk(V, heads)
                walks.append((len(self.covered), heads.tolist(), steps[start:]))

        monkeypatch.setattr(construct_mod, "_gather", gather)
        monkeypatch.setattr(construct_mod, "_annihilate", annihilate)
        monkeypatch.setattr(construct_mod, "_FunctionalCache", Cache)
        code = build()
        monkeypatch.undo()
        p = code.params
        assert code.generator == want.generator
        assert gathered and all(m * R * N <= max(cells, m * N) for m, R, N in gathered)
        assert all(m * R * N <= max(cells, m * N) for m, R, N in steps)
        # the first growth walks the base columns, each headed for its own
        # index; later growths find each new column's rows kept and derive
        # none
        (first, (base,)), *later = growths
        assert base[1] == list(range(len(base[1]))) and (first or p.k < 3)
        assert all(count == 0 and not walked for count, walked in later)
        assert len(later) == len(code.steps) - 1
        # then at least one walk per batch of candidates, headed for L
        # while L has rows
        assert len(walks) >= 1 + len(code.steps)
        for covered, heads, shapes in walks[1:]:
            assert set(heads) == {covered if covered < p.n - 1 else covered - 1}
        for _, heads, shapes in walks:
            N = len(heads)
            for j in range(1, p.k - 1):
                # a slice walks a suffix of the vectors; vector c's slices
                # are the level's first ones, up to the first that starts
                # at or past its C(heads[c], j) rows
                level = [(R, n) for m, R, n in shapes if m == p.k - j + 1]
                assert sum(R for R, _ in level) == comb(heads[-1], j)
                assert [n for _, n in level] == sorted((n for _, n in level), reverse=True)
                for c, i in enumerate(heads):
                    mine = [R for R, n in level if n >= N - c]
                    assert (sum(mine) >= comb(i, j) > sum(mine) - mine[-1]
                            if comb(i, j) else not mine), (j, i)
        (cache,) = caches
        assert len(cache.covered) == p.n - 1
        # the levels are full, each row its subset's counts in cover order
        _assert_levels_in_cover_order(cache)
        assert len(cache.ids) == max(1, p.k - 1)
        assert [a.shape for a in cache.coeffs[1:]] == [
            (p.k - j + 1, comb(p.n - 1, j)) for j in range(1, p.k)]
        assert cache.top is cache.coeffs[-1]


def test_slices_cut_consecutive_rows_with_one_segment_per_block():
    # level j's first C(stop, j) rows, block i (covered coordinate i's rows
    # T + x_i, T = 0 .. C(i, j-1) - 1) starting at C(i, j), cut into
    # consecutive slices of `rows` rows but the last; a slice's segments
    # are the parents of its rows in order, one segment per block it meets
    cache = construct_mod._FunctionalCache(
        field_make(11), 12, 5, SimpleNamespace(counted=np.eye(13, dtype=np.int8)))
    for j in range(1, 5):
        for stop in range(12):
            layout = [(i, T) for i in range(stop) for T in range(comb(i, j - 1))]
            for rows in (0, 1, 2, 3, 7, 40, 1000):
                got = list(cache.slices(j, rows, stop))
                assert [lo for lo, _, _ in got] == list(range(0, len(layout), max(1, rows)))
                assert all(hi - lo == min(max(1, rows), len(layout) - lo)
                           for lo, hi, _ in got)
                for lo, hi, segs in got:
                    assert [T for s, e in segs for T in range(s, e)] == [
                        T for _, T in layout[lo:hi]], (j, stop, rows, lo)
                    assert len(segs) == len({i for i, _ in layout[lo:hi]})


@pytest.mark.parametrize("draws", [construct_mod.RANDOM_ATTEMPTS, 0])
@pytest.mark.parametrize("cells", [10, construct_mod._SOLVE_CELLS])
def test_kept_rows_equal_a_fresh_walk(draws, cells, monkeypatch):
    # after every step, the cache's coefficients, class ids and deficient
    # rows equal those of a cache that walks every new column afresh, in
    # the same cover order: the accepted candidate's walk, kept from a draw
    # or, with no draws, from a scan batch at its first hit, is its
    # coordinate's rows. A column the caller scales after the pick is no
    # kept walk and is walked afresh; otherwise only the first growth walks
    fresh_cache = construct_mod._FunctionalCache
    builds = [
        (CodeParams(12, 5, 2, 3), field_make(499)),
        (CodeParams(12, 5, 2, 3), field_make(2, 9)),
        (CodeParams(10, 5, 2, 2), field_make(211)),
        (CodeParams(10, 5, 2, 2), field_make(2, 8)),
        (CodeParams(9, 2, 1, 3), field_make(11)),
        (CodeParams(8, 2, 1, 2), field_make(2, 4)),
        (CodeParams(6, 1, 1, 3), field_make(7)),
        (CodeParams(6, 1, 1, 2), field_make(2, 3)),
    ]
    grown, kept = [], []

    class Cache(construct_mod._FunctionalCache):
        def __init__(self, *args):
            super().__init__(*args)
            self.fresh = fresh_cache(*args)
            self.growing = False

        def grow(self, state):
            self.growing = True
            added = super().grow(state)
            self.growing = False
            assert self.fresh.grow(state) == added
            L, ref = len(self.covered), self.fresh
            assert ref.covered == self.covered
            for j in range(1, self.k):
                assert (self.coeffs[j][:, :comb(L, j)]
                        == ref.coeffs[j][:, :comb(L, j)]).all(), (L, j)
            for j, ids in enumerate(self.ids):
                assert (ids[:comb(L, j)] == ref.ids[j][:comb(L, j)]).all(), (L, j)
            assert self.deficient.tolist() == ref.deficient.tolist()
            grown.append(L)
            return added

        def walk(self, V, heads):
            if self.growing:
                grown.append("walk")
            yield from super().walk(V, heads)

        def keep(self, walk, targets):
            # an accepted candidate's walk, as a list of levels; empty for
            # k = 1 and at the last step, which have no slots to write
            if not self.growing and walk:
                (index, _), = targets
                kept.append((index, walk[0].shape[2]))
            super().keep(walk, targets)

    real_pick = construct_mod.pick_extension_vector

    def scaled(state, lam, group):
        col = real_pick(state, lam, group)
        return tuple(state.field.mul(2, v) for v in col) if lam == 4 else col

    monkeypatch.setattr(construct_mod, "_SOLVE_CELLS", cells)
    monkeypatch.setattr(construct_mod, "RANDOM_ATTEMPTS", draws)
    monkeypatch.setattr(construct_mod, "_FunctionalCache", Cache)
    for params, f in builds:
        for pick in (real_pick, scaled):
            grown.clear()
            monkeypatch.setattr(construct_mod, "pick_extension_vector", pick)
            code = construct(params, f, seed=0)
            assert len([L for L in grown if L != "walk"]) == len(code.steps)
            # the cover size after each growth that walked
            walked = [grown[i + 1] for i, L in enumerate(grown) if L == "walk"]
            lams = [s.lam for s in code.steps]
            want = [] if params.k == 1 else [grown[1]]
            if pick is scaled and 4 in lams[:-1] and params.k > 1:
                # the growth after lam = 4's step covers it
                want.append(grown[1] + lams.index(4) + 1)
            assert walked == want, (params, f)
    # acceptances from a scan batch, past its first candidate
    if not draws:
        assert any(index and N > 1 for index, N in kept)


def test_cached_counts_and_core_mask_match_brute_force(monkeypatch):
    # after every growth, each live row of every level holds the counted
    # sum over its subset; and for every coordinate lam not covered, the
    # cache's mask over the top level is is_core(S0 + (lam,)) row by row,
    # on a partition, a hub frame and a paired frame; also with slices of a
    # few cells, so that each level's class ids are gathered a few rows at a
    # time
    builds = [
        (uniform_partition(12, 2, 3), CodeParams(12, 5, 2, 3), field_make(499)),
        (hub_frame(13, 3, 2), CodeParams(13, 5, 3, 2), field_make(719)),
        (paired_frame(10, 2, 2), CodeParams(10, 5, 2, 2), field_make(211)),
    ]
    for cells in (5, construct_mod._SOLVE_CELLS):
        monkeypatch.setattr(construct_mod, "_SOLVE_CELLS", cells)
        checked = []

        class Cache(construct_mod._FunctionalCache):
            def grow(self, state):
                added = super().grow(state)
                _assert_levels_in_cover_order(self)
                q = CoreQuery(state.structure, state.params.r, state.params.k,
                              state.params.delta)
                top = _cover_order(self.covered, self.k - 1)
                for lam in set(range(1, self.n + 1)).difference(self.covered):
                    got = self.paired(lam).tolist()
                    assert got == [is_core(S0 + [lam], q) for S0 in top], lam
                    checked.append(lam)
                return added

        monkeypatch.setattr(construct_mod, "_FunctionalCache", Cache)
        for structure, params, f in builds:
            want = construct(params, f, seed=0)
            before = len(checked)
            code = run_extension(structure, params, f, seed=0)
            assert code.generator == want.generator
            assert len(checked) - before >= params.n - len(
                omega0(structure, params.r, params.delta).indices)


def test_top_level_holds_two_coefficients_and_bounds_peak_memory(monkeypatch):
    # a row of level j holds its k-j+1 coefficients, in the narrowest dtype
    # that holds q - 1, functionals-major, and nothing else: a top-level row
    # its two. A (23, 8, 3, 3) build peaks near 7 MiB under tracemalloc
    # (14 MiB when each level below the top held k-j functionals of k
    # entries a row, 18 MiB when each step built every core's functional
    # on the group span, 31 MiB when each top row held an 8-entry
    # functional, counts and a flag)
    params = CodeParams(23, 8, 3, 3)
    caches = []

    class Cache(construct_mod._FunctionalCache):
        def __init__(self, *args):
            super().__init__(*args)
            caches.append(self)

    monkeypatch.setattr(construct_mod, "_FunctionalCache", Cache)
    code = construct(params, seed=0)
    monkeypatch.undo()
    (cache,) = caches
    narrow = np.min_scalar_type(code.field.q - 1)
    rows = comb(params.n - 1, params.k - 1)
    assert cache.top.shape == (2, rows)
    assert cache.top.nbytes == rows * 2 * narrow.itemsize
    assert len(cache.ids) == len(cache.coeffs) - 1 == params.k - 1
    for j, a in enumerate(cache.coeffs[1:], start=1):
        assert a.dtype == narrow and a.flags.c_contiguous
        assert a.shape == (params.k - j + 1, comb(params.n - 1, j))
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        assert construct(params, seed=0) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 15 << 19, peak


@pytest.mark.parametrize("params, steps, cores", [
    ((26, 7, 3, 3), 12, 610648),
    ((23, 8, 3, 3), 10, 406201),
    ((20, 8, 4, 2), 4, 111280),
])
def test_step_core_counts_pinned(params, steps, cores):
    # the benchmark's three large builds at seed 0 over the default field
    # pick the same cores step after step, and accept after the same
    # draws, with no line scan
    draws = {(26, 7, 3, 3): 12, (23, 8, 3, 3): 11, (20, 8, 4, 2): 4}[params]
    code = construct(CodeParams(*params), seed=0)
    s = code.steps
    assert (len(s), sum(x.cores for x in s), sum(x.draws for x in s),
            sum(x.scan_steps for x in s)) == (steps, cores, draws, 0)


def test_dependent_column_still_breaks_the_next_step(monkeypatch):
    # mutation check: coordinate 3 gets a copy of column 5, which makes
    # every core through both deficient; the step after it (lam = 4,
    # whose new cache rows hold 3) must raise, with and without the cache
    real = construct_mod.pick_extension_vector
    seen = []

    def corrupt(state, lam, group):
        seen.append(lam)
        col = real(state, lam, group)
        return state.columns[5] if lam == 3 else col

    def per_step(state, lam, basis):
        kern = field_kernel(state.field)
        psi = _per_step_psi(state, lam, basis)
        return lambda C: ([kern.matmul(psi, C.T)], []), len(psi), 0, 0

    for f in (field_make(499), field_make(2, 9)):
        for evaluate in (construct_mod._core_values, per_step):
            seen.clear()
            monkeypatch.setattr(construct_mod, "pick_extension_vector", corrupt)
            monkeypatch.setattr(construct_mod, "_core_values", evaluate)
            with pytest.raises(RuntimeError, match="rank-deficient core"):
                construct(CodeParams(12, 5, 2, 3), f, seed=0)
            monkeypatch.undo()
            assert seen == [3, 4]
    # the same corruption in a hand-built state, before its first step
    code = construct(CodeParams(12, 5, 2, 3), field_make(499), seed=0)
    state = ExtensionState(field=code.field, params=code.params,
                           structure=code.structure, rng_seed=0)
    state.omega = [1, 2, 3, 5, 6, 9, 10]
    state.columns = {x: code.generator.column(x) for x in state.omega}
    state.columns[3] = state.columns[5]
    with pytest.raises(RuntimeError, match="rank-deficient core"):
        pick_extension_vector(state, 4, 1)


def test_step_stats_count_cores_rows_and_draws():
    codes = [
        construct(CodeParams(12, 5, 2, 3), field_make(499), seed=0),
        construct(CodeParams(10, 5, 2, 2), field_make(2, 8), seed=1),
        run_extension(hub_frame(8, 2, 2), CodeParams(8, 3, 2, 2), field_make(29)),
        construct(CodeParams(6, 1, 1, 3), field_make(7), seed=0),
        construct(CodeParams(9, 2, 1, 3), field_make(11), seed=0),
    ]
    for code in codes:
        p = code.params
        assert [s.lam for s in code.steps] == [lam for lam, _ in code.trace]
        omega = list(omega0(code.structure, p.r, p.delta).indices)
        for s in code.steps:
            q = CoreQuery(code.structure, p.r, p.k, p.delta, tuple(omega))
            assert s.cores == len(list(lambda_cores(q, s.lam)))
            assert s.subsets == comb(len(omega), p.k - 1)
            assert 1 <= s.draws <= construct_mod.RANDOM_ATTEMPTS
            assert s.scan_steps == 0 and s.seconds >= 0
            omega.append(s.lam)
        # every (k-1)-subset of the last step's Omega was derived once; for
        # k = 1 the cache starts with its one row, the empty subset
        added = [s.rows_added for s in code.steps]
        assert sum(added) == (comb(p.n - 1, p.k - 1) if p.k > 1 else 0)
        base = len(omega) - len(code.steps)
        assert added[0] == comb(base, p.k - 1) - comb(0, p.k - 1)
        stored = CodeFile(code=code, seed=None, tool_version="", created_at="")
        assert "steps" not in stored.to_json()["code"]


def test_step_stats_count_the_fallback_scan(monkeypatch):
    monkeypatch.setattr(construct_mod, "RANDOM_ATTEMPTS", 0)
    state = _gf5_five_lines_state()
    assert pick_extension_vector(state, 3, 1) == (1, 4)
    # the scan takes one vector per line: (0,1), (1,0) .. (1,3) miss, and
    # (1,4) is the sixth
    assert [(s.draws, s.scan_steps, s.cores) for s in state.steps] == [(0, 6, 5)]


def test_huge_prime_builds_without_field_sized_tables():
    # inverses come from a product tree, never from a table of p entries,
    # and p(p-1) >= 2^63 switches the kernel to Python ints
    script = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        from lrcodes import CodeParams, check_locality, construct, field_make
        code = construct(CodeParams(20, 8, 4, 2), field_make(1000000007), seed=0)
        assert check_locality(code).overall
        print("ok")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   x for x in (src, os.environ.get("PYTHONPATH")) if x))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"


# ---------------------------------------------------------------------
# extension step internals
# ---------------------------------------------------------------------

def test_no_valid_vector_when_core_spans_cover_group_span():
    # GF(2), k=2: three core spans {(1,0)}, {(0,1)}, {(1,1)} exhaust the
    # plane, so no admissible column for coordinate 3 can exist
    f = field_make(2)
    state = ExtensionState(field=f, params=CodeParams(6, 2, 2, 2),
                           structure=uniform_partition(6, 2, 2), rng_seed=0)
    state.columns = {1: (1, 0), 2: (0, 1), 4: (1, 1)}
    state.omega = [1, 2, 4]
    with pytest.raises(NoValidVector) as exc:
        pick_extension_vector(state, 3, 1)
    assert exc.value.num_cores == 3
    assert exc.value.q == 2
    assert exc.value.exhausted
    with pytest.raises(NoValidVector):
        oracle_pick(state, 3, 1)


def _gf5_five_lines_state():
    # five of the six lines of GF(5)^2 are core spans for coordinate 3;
    # only multiples of (1, 4) avoid them all
    state = ExtensionState(field=field_make(5), params=CodeParams(9, 2, 2, 2),
                           structure=uniform_partition(9, 2, 2), rng_seed=0)
    state.columns = {1: (1, 0), 2: (0, 1), 4: (1, 1), 5: (1, 2), 7: (1, 3)}
    state.omega = [1, 2, 4, 5, 7]
    return state


def test_no_valid_vector_says_when_the_scan_budget_stopped_it(monkeypatch):
    monkeypatch.setattr(construct_mod, "RANDOM_ATTEMPTS", 0)
    monkeypatch.setattr(construct_mod, "_SCAN_LIMIT", 1)
    with pytest.raises(NoValidVector) as exc:
        pick_extension_vector(_gf5_five_lines_state(), 3, 1)
    assert not exc.value.exhausted
    assert "scan budget" in str(exc.value)
    assert "every candidate" not in str(exc.value)
    monkeypatch.setattr(construct_mod, "_SCAN_LIMIT", 1 << 20)
    assert pick_extension_vector(_gf5_five_lines_state(), 3, 1) == (1, 4)


def _unit_state(f, b):
    """Coordinate b+1 of [2b+2, b] with (b, 2) locality, its group holding
    the unit vectors: a candidate's coefficients are its column."""
    state = ExtensionState(field=f, params=CodeParams(2 * b + 2, b, b, 2),
                           structure=uniform_partition(2 * b + 2, b, 2), rng_seed=0)
    state.columns = {i: tuple(int(i == j) for j in range(1, b + 1))
                     for i in range(1, b + 1)}
    state.omega = list(range(1, b + 1))
    return state


def _dot(f, row, v):
    acc = 0
    for x, y in zip(row, v):
        acc = f.add(acc, f.mul(x, y))
    return acc


def _tails(q, t):
    """product(range(q), repeat=t), without materialising its pools."""
    if t == 0:
        yield ()
        return
    for x in range(q):
        for rest in _tails(q, t - 1):
            yield (x,) + rest


def _leading_ones(q, b):
    """The vectors of GF(q)^b that lead with 1, in product order."""
    return ((0,) * (b - 1 - t) + (1,) + tail for t in range(b) for tail in _tails(q, t))


def _scalar_scan(f, psi, b, limit):
    """The first vector c in product order with psi.c nonzero in every
    row, counting lines (a line is counted at its vector that leads with
    1, its first in product order) and stopping after `limit` of them:
    (c, lines), or (None, whether every line was scanned). On a huge
    field only the vectors that lead with 1 are walked; product order
    puts too many others before the second line."""
    if any(not any(row) for row in psi):
        return None, True
    vectors = _tails(f.q, b) if f.q ** b <= 1 << 16 else _leading_ones(f.q, b)
    lines = 0
    for v in vectors:
        if not any(v):
            continue
        if v[next(i for i, x in enumerate(v) if x)] == 1:
            if lines == limit:
                return None, False
            lines += 1
        if all(_dot(f, row, v) for row in psi):
            return v, lines
    return None, True


def _killer(rng, f, u, spare):
    """A random functional that vanishes on u, a vector that leads with 1,
    and not on spare (unless spare is None)."""
    lead = u.index(1)
    while True:
        row = [rng.randrange(f.q) for _ in u]
        row[lead] = 0
        row[lead] = f.sub(0, _dot(f, row, u))
        if spare is None or _dot(f, row, spare):
            return row


@pytest.mark.parametrize("f", [field_make(2), field_make(3), field_make(5),
                               field_make(2, 4), field_make(4294967311)], ids=repr)
def test_fallback_scan_matches_scalar_product_order(f, monkeypatch):
    # no draws: the line scan, in batches down to one line, returns the
    # first vector in product order that avoids every core functional,
    # or says whether it ruled out every candidate
    rng = random.Random(f.q % 1031)
    huge = f.q > 1 << 16
    kern = field_kernel(f)
    for trial in range(30):
        b = rng.randrange(2 if huge else 1, 4 if f.q > 5 else 5)
        # core functionals on each of the first h lines, sparing line h
        # unless h runs past them, then a few random ones
        first = list(islice(_leading_ones(f.q, b), 40))
        h = rng.randrange(len(first) + 1)
        spare = first[h] if h < len(first) else None
        psi = [_killer(rng, f, u, spare) for u in first[:h]]
        psi += [[rng.randrange(f.q) for _ in range(b)] for _ in range(rng.randrange(3))]
        if trial == 7:
            psi.append([0] * b)  # contains the whole span
        rng.shuffle(psi)
        limit = 1 + rng.randrange(40) if huge else 1 << 20
        rows = rng.choice([1, 2, 1 << 17])
        P = kern.array(psi).reshape(len(psi), b)
        monkeypatch.setattr(construct_mod, "RANDOM_ATTEMPTS", 0)
        monkeypatch.setattr(construct_mod, "_SCAN_LIMIT", limit)
        monkeypatch.setattr(construct_mod, "_BATCH", rows * max(1, len(psi)))
        # the chosen functionals' values on each batch of candidates
        monkeypatch.setattr(
            construct_mod, "_core_values", lambda state, lam, basis: (
                lambda C: ([kern.matmul(P, C.T)], []), len(P), 0, 0))
        state = _unit_state(f, b)
        total = (f.q ** b - 1) // (f.q - 1)
        want, lines = _scalar_scan(f, psi, b,
                                   total if total <= 4 * limit else limit)
        try:
            got = pick_extension_vector(state, b + 1, 1)
        except NoValidVector as exc:
            assert want is None and exc.exhausted == lines, (f, psi, limit)
            assert exc.num_cores == len(psi)
        else:
            assert got == want, (f, psi, limit)
            assert state.steps[0].scan_steps == lines
        monkeypatch.undo()


def test_fallback_scan_exhausts_the_found_input_quickly():
    # 11^6 - 1 candidates lie on 177,156 lines, and every one meets one of
    # the 83 core spans of coordinate 7
    with pytest.raises(NoValidVector) as exc:
        construct(CodeParams(13, 7, 6, 3), field_make(11), seed=0)
    assert exc.value.exhausted and exc.value.num_cores == 83
    assert "every candidate hits one of 83 core spans" in str(exc.value)


def test_pick_extension_vector_precondition():
    f = field_make(17)
    state = ExtensionState(field=f, params=CodeParams(6, 3, 2, 2),
                           structure=uniform_partition(6, 2, 2), rng_seed=0)
    state.columns = {1: (1, 0, 0), 2: (0, 1, 0), 4: (0, 0, 1), 5: (1, 1, 1)}
    state.omega = [1, 2, 4, 5]
    with pytest.raises(PreconditionViolated):
        pick_extension_vector(state, 4, 1)  # 4 is not in group 1
    with pytest.raises(PreconditionViolated):
        pick_extension_vector(state, 1, 1)  # already assigned


def test_per_group_rank_hits_cap():
    # partition groups end at rank |S_i|-delta+1, frame groups at rank r
    code = construct(CodeParams(12, 5, 2, 3), field_make(499), seed=0)
    for g in code.structure.groups:
        assert rank(code.generator, g) == len(g) - 3 + 1
    code = construct(CodeParams(10, 5, 2, 2), field_make(211), seed=0)
    for g in code.structure.groups:
        assert rank(code.generator, g) == 2
    code = run_extension(hub_frame(8, 2, 2), CodeParams(8, 3, 2, 2),
                         field_make(29), seed=0)
    for g in code.structure.groups:
        assert rank(code.generator, g) == 2


# ---------------------------------------------------------------------
# dispatch and failure modes
# ---------------------------------------------------------------------

def test_construct_rejects_not_exists():
    with pytest.raises(NotConstructible) as exc:
        construct(CodeParams(13, 7, 2, 2))
    assert exc.value.tag == "thm-non-exst-1"
    with pytest.raises(NotConstructible) as exc:
        construct(CodeParams(60, 12, 4, 5))
    assert exc.value.tag == "thm-non-exst"


def test_construct_rejects_unknown():
    with pytest.raises(UnknownCase) as exc:
        construct(CodeParams(60, 11, 10, 5))
    assert exc.value.tag == "condition-8"


def test_construct_mds_shapes():
    # n = k+delta-1: one repair group, plain MDS generator
    code = construct(CodeParams(4, 2, 2, 3), field_make(7), seed=0)
    assert code.claimed_d == 3
    assert code.structure.groups == ((1, 2, 3, 4),)
    # group size divides n: partition pipeline output is MDS
    code = construct(CodeParams(6, 2, 2, 2), field_make(7), seed=0)
    assert code.claimed_d == 5
    assert isinstance(code.structure, CoverSet)
    ok, _ = certify_optimal(code, budget=10**6)
    assert ok
    # any other n: the Vandermonde code on overlapping windows, over the
    # default field max(C(n, k-1), n) like every other route
    code = construct(CodeParams(5, 2, 2, 2), field_make(7))
    assert code.generator == mds_generator(5, 2, field_make(7))
    assert code.structure.groups == ((1, 2, 3), (3, 4, 5))
    ok, _ = certify_optimal(code, budget=10**6)
    assert ok and min_distance(code).d == code.claimed_d == 4
    assert construct(CodeParams(5, 2, 2, 2)).field.q == 5
    assert construct(CodeParams(7, 2, 2, 2)).structure.groups == (
        (1, 2, 3), (4, 5, 6), (5, 6, 7))


def test_explicit_field_checked_before_any_structure(monkeypatch):
    def no_structure(*_args):
        raise AssertionError("structure built before the field check")

    monkeypatch.setattr(construct_mod, "_build_structure", no_structure)
    monkeypatch.setattr(construct_mod, "CoverSet", no_structure)
    # extension route: a base of n - t(delta-1) = 5e8 columns
    with pytest.raises(FieldTooSmall, match="q >= 500000000"):
        construct(CodeParams(10 ** 9, 2, 1, 2), field_make(7))
    # Vandermonde route (r = k): n evaluation points
    with pytest.raises(FieldTooSmall, match="q >= 1000001"):
        construct(CodeParams(10 ** 6 + 1, 2, 2, 2), field_make(7))
    with pytest.raises(FieldTooSmall):
        construct(CodeParams(5, 2, 2, 2), field_make(3))


def test_base_length_matches_omega0():
    checked = 0
    for n in range(1, 15):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                for delta in range(2, n + 2):
                    p = CodeParams(n, k, r, delta)
                    c = classify(p)
                    if c.verdict == EXISTS:
                        method = c.method
                    elif (c.verdict == EXISTS_MDS and n > p.group_size
                          and n % p.group_size == 0):
                        method = METHOD_A1_UNIFORM
                    else:
                        continue
                    structure = construct_mod._build_structure(p, method)
                    assert (len(omega0(structure, r, delta).indices)
                            == construct_mod._base_length(p)), p
                    checked += 1
    assert checked > 300


def test_built_code_keeps_every_core_independent():
    p, f = CodeParams(12, 5, 2, 3), field_make(499)
    code = construct(p, f, seed=0)
    assert first_dependent_core(code) is None
    # plant a dependent column: coordinate 3 copies column 5
    cols = code.generator.columns()
    cols[2] = cols[4]
    planted = LrcCode(field=f, generator=Matrix.from_columns(f, cols),
                      structure=code.structure, params=p, claimed_d=code.claimed_d)
    assert first_dependent_core(planted) == ((3, 5), 1)


def test_algorithm_entry_points_check_structure_kind():
    p = CodeParams(12, 5, 2, 3)
    f = field_make(499)
    with pytest.raises(PreconditionViolated):
        run_extension(uniform_partition(6, 2, 2), p, f)  # n mismatch
    # a cover with a gap fails validation; three pairs pass it, but two
    # of them cover 4 < k + 2(delta - 1) = 5 coordinates
    p, f = CodeParams(6, 3, 2, 2), field_make(17)
    with pytest.raises(PreconditionViolated,
                       match=r"^invalid structure: coordinates not covered: \[6\]$"):
        run_extension(CoverSet(6, [(1, 2, 3), (4, 5)]), p, f)
    with pytest.raises(PreconditionViolated,
                       match="^structure fails the union-size coverage requirement$"):
        run_extension(CoverSet(6, [(1, 2), (3, 4), (5, 6)]), p, f)


# ---------------------------------------------------------------------
# sweep: everything classified Exists or ExistsMDS builds and certifies
# ---------------------------------------------------------------------

def test_exists_sweep_builds_and_certifies():
    built = {EXISTS: 0, EXISTS_MDS: 0}
    for n in range(1, 13):
        for k in range(1, n):
            for r in range(1, k + 1):
                for delta in range(2, n - k + 2):
                    p = CodeParams(n, k, r, delta)
                    c = classify(p)
                    if c.verdict not in built or field_bound(p) > 10**4:
                        continue
                    code = construct(p, seed=0)
                    assert code.claimed_d == distance_bound(p)
                    ok, rep = certify_optimal(code, budget=10**6)
                    assert ok, (p, rep.witness)
                    built[c.verdict] += 1
    assert built[EXISTS] > 150 and built[EXISTS_MDS] > 150


# ---------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------

def test_code_json_round_trip():
    for code in (
        construct(CodeParams(12, 5, 2, 3), field_make(499), seed=0),
        construct(CodeParams(10, 5, 2, 2), field_make(211), seed=0),
        construct(CodeParams(6, 3, 2, 2), field_make(2, 4), seed=0),
    ):
        stored = CodeFile(code=code, seed=None, tool_version="", created_at="")
        back = CodeFile.from_json(json.loads(json.dumps(stored.to_json()))).code
        assert back == code
