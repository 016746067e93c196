"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with -s (or read the -v test lines) to see the per-criterion report.
"""

import contextlib
import io
import random
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from lrcodes.cli import _cell_tag, main
from lrcodes.construct import construct, run_extension
from lrcodes.cores import CoreQuery, is_core, lambda_cores
from lrcodes.covers import CoverSet, deficiency_witness, hub_frame, paired_frame, uniform_partition
from lrcodes.errors import BudgetExceeded
from lrcodes.gf import field_make
from lrcodes.linalg import Matrix, rank
from lrcodes.params import (
    EXISTS,
    CodeParams,
    classify,
    distance_bound,
    field_bound,
)
from lrcodes.verify import (
    RANK_METHOD,
    WEIGHT_METHOD,
    certify_optimal,
    check_locality,
    min_distance,
)
from test_verify import dummy_code


@contextmanager
def criterion(num: int, limit: float = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL ({time.perf_counter() - t0:.2f} s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {num:02d}: PASS ({elapsed:.2f} s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.2f} s >= {limit} s"


def test_criterion_01_reference_matrix():
    # hand-published [6,3] GF(4) generator: locality (2,2) on {1,2,3},{4,5,6}
    # and minimum distance exactly at the bound
    with criterion(1, limit=1.0):
        f4 = field_make(2, 2)
        m = Matrix.from_rows(f4, [(1, 0, 1, 0, 1, 1),
                                  (0, 1, 1, 0, 2, 2),
                                  (0, 0, 0, 1, 1, 3)])
        from lrcodes.construct import LrcCode
        code = LrcCode(field=f4, generator=m,
                       structure=CoverSet(6, [(1, 2, 3), (4, 5, 6)]),
                       params=CodeParams(6, 3, 2, 2), claimed_d=3)
        assert check_locality(code).overall
        rep = min_distance(code)
        assert rep.d == 3 == distance_bound(CodeParams(6, 3, 2, 2))


def test_criterion_02_uniform_all_seeds():
    with criterion(2, limit=10.0):
        p = CodeParams(6, 3, 2, 2)
        f = field_make(17)
        good = 0
        for seed in range(100):
            code = construct(p, f, seed=seed)
            assert code.claimed_d == 3
            ok, _ = certify_optimal(code)
            good += ok
        assert good == 100


def test_criterion_03_uniform_figure_parameters():
    with criterion(3, limit=10.0):
        code = construct(CodeParams(12, 5, 2, 3), field_make(499), seed=0)
        assert code.claimed_d == 4
        ok, rep = certify_optimal(code)
        assert ok
        assert rep.subset_size == 9 and rep.subsets_total == 220


def test_criterion_04_remainder_partition():
    with criterion(4, limit=10.0):
        p = CodeParams(11, 5, 2, 2)
        c = classify(p)
        assert c.method == "Algorithm1-remainder" and c.tag == "thm-opt-ext-2"
        code = construct(p, field_make(331), seed=0)
        assert code.claimed_d == 5
        ok, _ = certify_optimal(code)
        assert ok


def test_criterion_05_hub_frame():
    with criterion(5, limit=5.0):
        code = run_extension(hub_frame(8, 2, 2), CodeParams(8, 3, 2, 2),
                             field_make(29), seed=0)
        assert code.claimed_d == 5
        ok, rep = certify_optimal(code)
        assert ok
        assert rep.subset_size == 4 and rep.subsets_total == 70


def test_criterion_06_paired_frame():
    with criterion(6, limit=10.0):
        code = construct(CodeParams(10, 5, 2, 2), field_make(211), seed=0)
        assert code.claimed_d == 4
        ok, rep = certify_optimal(code)
        assert ok
        assert rep.subset_size == 7 and rep.subsets_total == 120


def test_criterion_07_reference_grid_cells():
    with criterion(7, limit=1.0):
        cell = lambda r, k: _cell_tag(60, k, r, 5)
        for r in (2, 6, 8, 11):
            for k in range(11, 21):
                assert cell(r, k) == "E_M", (r, k)
        assert cell(3, 11) == "N11"
        assert cell(3, 12) == "N10"
        assert cell(3, 13) == "E27"
        assert cell(4, 11) == "E27"
        assert cell(4, 12) == "N10"
        assert cell(5, 11) == "E16"
        assert cell(5, 15) == "N10"
        assert cell(7, 14) == "N10"
        assert cell(9, 11) == "E16"
        assert cell(9, 18) == "N10"
        for k in range(11, 20):
            assert cell(10, k) == "~", k
        assert cell(10, 20) == "N10"
        # excluded cells: published E26 where the hub-frame hypothesis
        # w >= r+delta-1-m fails; the table command documents each one
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["table", "--n", "60", "--delta", "5",
                       "--r", "7..9", "--k", "11..20"])
        assert rc == 0
        text = out.getvalue()
        assert "differ from the published reference grid" in text
        for r, k in [(7, 11), (7, 16), (9, 14), (9, 17)]:
            assert f"(r={r}, k={k}): classifier ~, published E26" in text


def _random_cover(rng, n, t, size):
    while True:
        groups = []
        pool = list(range(1, n + 1))
        rng.shuffle(pool)
        idx = 0
        for _ in range(t):
            block = []
            for _ in range(size):
                if idx < n:
                    block.append(pool[idx])
                    idx += 1
            groups.append(block)
        if idx < n:
            continue
        for block in groups:
            while len(block) < size:
                x = rng.randrange(1, n + 1)
                if x not in block:
                    block.append(x)
        return [tuple(sorted(b)) for b in groups]


def test_criterion_08_nonexistence_witnesses():
    with criterion(8, limit=30.0):
        family = [(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12),
                  (1, 5, 13), (5, 8, 13)]
        w = deficiency_witness(family, 7, 2, 2)
        assert w is not None and len(w) == 4
        union = set()
        for i in w:
            union |= set(family[i - 1])
        assert len(union) == 10 < 11
        # (13,7,2,2) is non-existent: every 3-set covering family is deficient
        rng = random.Random(88)
        for _ in range(200):
            t = rng.randrange(5, 9)
            groups = _random_cover(rng, 13, t, 3)
            assert deficiency_witness(groups, 7, 2, 2) is not None


def test_criterion_09_distance_oracle_equivalence():
    with criterion(9):
        rng = random.Random(2718)
        f = field_make(7)
        disagreements = 0
        trials = 0
        while trials < 200:
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
            disagreements += by_weight.d != by_rank.d
        assert disagreements == 0


def test_criterion_10_loop_invariant_suite():
    with criterion(10):
        # full invariant recheck after every extension step, all feasible
        # parameters up to n = 12 with a reasonable field bound
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
                        construct(p, seed=0, check_invariants=True)
                        built += 1
        assert built > 150
        # lambda_cores equals brute-force core filtering for |ground| <= 14
        rng = random.Random(1414)
        cases = [
            (uniform_partition(12, 2, 3), 2, 5, 3),
            (uniform_partition(14, 4, 4), 4, 5, 4),
            (hub_frame(13, 3, 2), 3, 5, 2),
            (paired_frame(10, 2, 2), 2, 5, 2),
        ]
        for s, r, k, delta in cases:
            for _ in range(10):
                size = rng.randrange(k, min(s.n, 14) + 1)
                ground = tuple(sorted(rng.sample(range(1, s.n + 1), size)))
                lam = rng.choice(ground)
                q = CoreQuery(structure=s, r=r, k=k, delta=delta, ground=ground)
                got = list(lambda_cores(q, lam))
                pool = [x for x in ground if x != lam]
                want = [c for c in combinations(pool, k - 1)
                        if is_core(c + (lam,), q)]
                assert got == want


def test_criterion_11_large_instance_within_budget():
    # full certification needs C(37,11) = 854,992,152 rank checks; this run
    # substitutes construction + spot-checked invariant + locality, and
    # demands the certifier declare itself out of budget rather than guess
    with criterion(11):
        p = CodeParams(37, 7, 3, 3)
        assert field_bound(p) == 2324784
        code = construct(p, seed=0)
        assert code.field.q >= 2324784
        assert code.claimed_d == 27 == distance_bound(p)

        q = CoreQuery(structure=code.structure, r=3, k=7, delta=3)
        rng = random.Random(2024)
        cores = 0
        while cores < 10**4:
            S = tuple(sorted(rng.sample(range(1, 38), 7)))
            if not is_core(S, q):
                continue
            cores += 1
            assert rank(code.generator, S) == 7, S

        assert check_locality(code).overall

        with pytest.raises(BudgetExceeded) as exc:
            certify_optimal(code)
        assert "C(37,11) = 854992152" in str(exc.value)
