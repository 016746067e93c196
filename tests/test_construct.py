import importlib
import json
import os
import subprocess
import sys
import textwrap
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from lrcodes.construct import (
    ExtensionState,
    LrcCode,
    construct,
    mds_generator,
    pick_extension_vector,
    run_extension,
)
from lrcodes.cores import CoreQuery, lambda_cores, omega0
from lrcodes.covers import CoverSet, Frame, hub_frame, paired_frame, uniform_partition
from lrcodes.errors import (
    FieldTooSmall,
    NotConstructible,
    NoValidVector,
    PreconditionViolated,
    UnknownCase,
)
from lrcodes.gf import field_at_least, field_kernel, field_make
from lrcodes.linalg import _batch_nullvec, rank
from lrcodes.params import EXISTS, CodeParams, classify, distance_bound, field_bound
from lrcodes.verify import certify_optimal

from avoidance_oracle import oracle_pick

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
    assert a.to_json() == b.to_json()
    c = construct(CodeParams(12, 5, 2, 3), field_make(499), seed=8)
    assert a.generator.to_json() != c.generator.to_json()


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
            assert engine.to_json() == oracle.to_json(), (params, f, seed)
    for seed in (0, 3):
        args = (hub_frame(8, 2, 2), CodeParams(8, 3, 2, 2), field_make(29))
        engine = run_extension(*args, seed=seed)
        monkeypatch.setattr(construct_mod, "pick_extension_vector", oracle_pick)
        oracle = run_extension(*args, seed=seed)
        monkeypatch.undo()
        assert engine.to_json() == oracle.to_json()


def _per_step_psi(state, lam, basis_rows):
    """Psi as solved before the cache: every core paired with lam
    enumerated afresh and eliminated in one batch."""
    kern = field_kernel(state.field)
    E = np.array(list(lambda_cores(state.core_query(), lam)), dtype=np.int64)
    E = E.reshape(len(E), state.params.k - 1)
    phi, full = _batch_nullvec(kern, construct_mod._column_array(state)[E])
    if not full.all():
        raise RuntimeError("loop invariant violated: rank-deficient core basis")
    psi = kern.zeros((len(E), len(basis_rows)))
    for j, w in enumerate(basis_rows):
        psi[:, j] = kern.matvec(phi, w)
    return psi


def _checked_core_functionals(compared):
    real = construct_mod._core_functionals

    def step(state, lam, basis_rows):
        want = _per_step_psi(state, lam, basis_rows)
        psi, added = real(state, lam, basis_rows)
        assert (sorted(map(tuple, psi.tolist()))
                == sorted(map(tuple, want.tolist()))), (state.params, lam)
        compared.append(lam)
        return psi, added
    return step


def test_cached_functionals_match_per_step_solve(monkeypatch):
    # the cache's Psi, at every step, holds the same rows as solving each
    # paired core afresh; only the row order may differ
    compared = []
    monkeypatch.setattr(construct_mod, "_core_functionals",
                        _checked_core_functionals(compared))
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

    def per_step(state, lam, rows):
        return _per_step_psi(state, lam, rows), 0

    for f in (field_make(499), field_make(2, 9)):
        for functionals in (construct_mod._core_functionals, per_step):
            seen.clear()
            monkeypatch.setattr(construct_mod, "pick_extension_vector", corrupt)
            monkeypatch.setattr(construct_mod, "_core_functionals", functionals)
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
            assert 1 <= s.draws <= construct_mod.RANDOM_ATTEMPTS
            assert s.scan_steps == 0 and s.seconds >= 0
            omega.append(s.lam)
        # every (k-1)-subset of the last step's Omega was solved once
        assert sum(s.rows_added for s in code.steps) == comb(p.n - 1, p.k - 1)
        assert "steps" not in code.to_json()


def test_step_stats_count_the_fallback_scan(monkeypatch):
    monkeypatch.setattr(construct_mod, "RANDOM_ATTEMPTS", 0)
    state = _gf5_five_lines_state()
    assert pick_extension_vector(state, 3, 1) == (1, 4)
    # (0,1) .. (0,4), (1,0) .. (1,3) miss, (1,4) is the ninth candidate
    assert [(s.draws, s.scan_steps, s.cores) for s in state.steps] == [(0, 9, 5)]


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
    # any other n needs overlapping groups: reported not constructible
    with pytest.raises(NotConstructible) as exc:
        construct(CodeParams(5, 2, 2, 2), field_make(7))
    assert exc.value.tag == "mds-overlapping-cover"


def test_algorithm_entry_points_check_structure_kind():
    p = CodeParams(12, 5, 2, 3)
    f = field_make(499)
    with pytest.raises(PreconditionViolated):
        run_extension(uniform_partition(6, 2, 2), p, f)  # n mismatch


# ---------------------------------------------------------------------
# sweep: everything classified Exists actually builds and certifies
# ---------------------------------------------------------------------

def test_exists_sweep_builds_and_certifies():
    built = 0
    for n in range(4, 13):
        for k in range(2, n):
            for r in range(1, k + 1):
                for delta in range(2, n - k + 2):
                    try:
                        p = CodeParams(n, k, r, delta)
                    except ValueError:
                        continue
                    c = classify(p)
                    if c.verdict != EXISTS or field_bound(p) > 10**4:
                        continue
                    code = construct(p, seed=0)
                    assert code.claimed_d == distance_bound(p)
                    ok, rep = certify_optimal(code, budget=10**6)
                    assert ok, (p, rep.witness)
                    built += 1
    assert built > 150


# ---------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------

def test_code_json_round_trip():
    for code in (
        construct(CodeParams(12, 5, 2, 3), field_make(499), seed=0),
        construct(CodeParams(10, 5, 2, 2), field_make(211), seed=0),
        construct(CodeParams(6, 3, 2, 2), field_make(2, 4), seed=0),
    ):
        data = json.loads(json.dumps(code.to_json()))
        back = LrcCode.from_json(data)
        assert back.field == code.field
        assert back.generator == code.generator
        assert back.structure == code.structure
        assert back.params == code.params
        assert back.claimed_d == code.claimed_d
        assert back.trace == code.trace
