import pickle
import random
from dataclasses import FrozenInstanceError, asdict, replace
from math import comb

import numpy as np
import pytest

import lrcodes.params as params_mod
from classify_oracle import oracle_classify
from lrcodes.codefile import load_code, save_code
from lrcodes.construct import construct
from lrcodes.errors import BoundNonPositive
from lrcodes.params import (
    EXISTS,
    EXISTS_MDS,
    METHOD_A1_REMAINDER,
    METHOD_A1_UNIFORM,
    METHOD_A2_HUB,
    METHOD_A2_PAIRED,
    NOT_EXISTS,
    TAG_COND_8,
    TAG_COND_9,
    TAG_LOW_BOUND,
    TAG_NON_EXST,
    TAG_NON_EXST_1,
    TAG_OPT_EXT_2,
    TAG_OPT_EXT_4,
    UNKNOWN,
    Classification,
    CodeParams,
    classify,
    distance_bound,
    field_bound,
    necessary_check,
)


def test_codeparams_validation():
    with pytest.raises(ValueError):
        CodeParams(5, 6, 2, 2)
    with pytest.raises(ValueError):
        CodeParams(6, 3, 4, 2)
    with pytest.raises(ValueError):
        CodeParams(6, 3, 0, 2)
    with pytest.raises(ValueError):
        CodeParams(6, 3, 2, 1)
    p = CodeParams(12, 5, 2, 3)
    assert p.group_size == 4 and p.mu == 3
    with pytest.raises(ValueError, match=r"^need 1 <= r <= k <= n, got n=5 k=6 r=2$"):
        CodeParams(5, 6, 2, 2)
    with pytest.raises(ValueError, match=r"^delta must be >= 2, got 1$"):
        CodeParams(6, 3, 2, 1)


def test_codeparams_takes_integers_only(tmp_path):
    # numpy integers become Python ints, so a code built from them saves
    # as JSON and loads back equal
    p = CodeParams(np.int64(12), np.int32(5), np.uint8(2), np.int64(3))
    assert p == CodeParams(12, 5, 2, 3)
    assert all(type(x) is int for x in (p.n, p.k, p.r, p.delta))
    code = construct(p, seed=0)
    save_code(code, tmp_path / "code.json", seed=0)
    back = load_code(tmp_path / "code.json").code
    assert back.params == p and back.generator == code.generator
    # a float or a string is refused where it is given, not deep in
    # construct or save_code
    for bad in [(12.0, 5, 2, 3), (12, 5.0, 2, 3), (12, 5, np.float64(2), 3),
                (12, 5, 2, 3.5), ("12", 5, 2, 3), (12, 5, 2, "3")]:
        with pytest.raises(TypeError):
            CodeParams(*bad)


def test_records_keep_the_dataclass_protocol():
    p = CodeParams(12, 5, 2, 3)
    c = classify(p)
    assert p == CodeParams(12, 5, 2, 3) != CodeParams(12, 5, 2, 2)
    assert hash(p) == hash(CodeParams(12, 5, 2, 3))
    assert c == classify(CodeParams(12, 5, 2, 3)) and hash(c) == hash(classify(p))
    assert repr(p) == "CodeParams(n=12, k=5, r=2, delta=3)"
    assert repr(c) == ("Classification(verdict='Exists', method='Algorithm1-uniform', "
                       "tag='thm-opt-ext-1', bound_d=4, params=" + repr(p) + ")")
    assert asdict(p) == {"n": 12, "k": 5, "r": 2, "delta": 3}
    assert asdict(c) == {"verdict": EXISTS, "method": METHOD_A1_UNIFORM,
                         "tag": "thm-opt-ext-1", "bound_d": 4, "params": asdict(p)}
    for record in (p, c):
        assert pickle.loads(pickle.dumps(record)) == record
        with pytest.raises(FrozenInstanceError):
            record.n = 1 if record is p else None
    with pytest.raises(FrozenInstanceError):
        c.verdict = NOT_EXISTS
    # replace goes through __init__, so it still validates
    assert replace(p, k=6) == CodeParams(12, 6, 2, 3)
    with pytest.raises(ValueError, match="need 1 <= r <= k <= n"):
        replace(p, k=13)
    with pytest.raises(ValueError, match="delta must be >= 2"):
        replace(p, delta=1)
    with pytest.raises(TypeError):
        replace(p, n=12.0)
    assert replace(c, verdict=UNKNOWN) == Classification(
        UNKNOWN, METHOD_A1_UNIFORM, "thm-opt-ext-1", 4, p)


def test_distance_bound_values():
    assert distance_bound(CodeParams(12, 5, 2, 3)) == 4
    assert distance_bound(CodeParams(6, 3, 2, 2)) == 3
    assert distance_bound(CodeParams(11, 5, 2, 2)) == 5
    assert distance_bound(CodeParams(8, 3, 2, 2)) == 5
    assert distance_bound(CodeParams(10, 5, 2, 2)) == 4
    assert distance_bound(CodeParams(37, 7, 3, 3)) == 27
    # r = k: the locality term vanishes and the Singleton value remains
    assert distance_bound(CodeParams(9, 4, 4, 3)) == 6
    with pytest.raises(BoundNonPositive):
        distance_bound(CodeParams(6, 6, 2, 2))


def test_necessary_check_and_field_bound():
    assert necessary_check(CodeParams(60, 20, 2, 5))
    assert not necessary_check(CodeParams(60, 21, 2, 5))
    assert field_bound(CodeParams(12, 5, 2, 3)) == comb(12, 4) == 495
    assert field_bound(CodeParams(37, 7, 3, 3)) == comb(37, 6)


# ---------------------------------------------------------------------
# classifier: pinned verdicts
# ---------------------------------------------------------------------

def test_classify_matches_the_decomposition_oracle():
    # every tuple with n <= 40 and delta up to n-k+3, vacuous bounds
    # (bound_d below 1) included
    count = vacuous = 0
    for n in range(1, 41):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                for delta in range(2, n - k + 4):
                    p = CodeParams(n, k, r, delta)
                    c = classify(p)
                    assert (c.verdict, c.method, c.tag, c.bound_d, c.params) == \
                        oracle_classify(p), p
                    count += 1
                    vacuous += c.bound_d < 1
    assert count == 134_890 and vacuous > 0


def test_classify_known_cases():
    c = classify(CodeParams(12, 5, 2, 3))
    assert (c.verdict, c.method, c.tag) == (EXISTS, METHOD_A1_UNIFORM,
                                            "thm-opt-ext-1")
    assert c.bound_d == 4 and c.field_bound == 495

    c = classify(CodeParams(13, 7, 2, 2))
    assert (c.verdict, c.tag) == (NOT_EXISTS, TAG_NON_EXST_1)

    c = classify(CodeParams(11, 5, 2, 2))
    assert (c.verdict, c.method, c.tag) == (EXISTS, METHOD_A1_REMAINDER,
                                            TAG_OPT_EXT_2)

    c = classify(CodeParams(37, 7, 3, 3))
    assert (c.verdict, c.method) == (EXISTS, METHOD_A2_HUB)

    c = classify(CodeParams(10, 5, 2, 2))
    assert (c.verdict, c.method, c.tag) == (EXISTS, METHOD_A2_PAIRED,
                                            TAG_OPT_EXT_4)

    c = classify(CodeParams(60, 12, 4, 5))
    assert (c.verdict, c.tag) == (NOT_EXISTS, TAG_NON_EXST)

    c = classify(CodeParams(60, 11, 10, 5))
    assert (c.verdict, c.tag) == (UNKNOWN, TAG_COND_8)

    c = classify(CodeParams(60, 18, 10, 5))
    assert c.verdict == UNKNOWN

    c = classify(CodeParams(6, 3, 3, 2))
    assert c.verdict == EXISTS_MDS and c.method is None and c.tag is None


def test_classify_computes_no_field_bound(monkeypatch):
    # C(n, k-1) is computed when read, not by classify: at n = 10**7,
    # k = 5 * 10**6 it alone would take minutes
    def refuse(*_args):
        raise AssertionError("classify computed C(n, k-1)")

    monkeypatch.setattr(params_mod, "comb", refuse)
    c = classify(CodeParams(10**7, 5 * 10**6, 1, 2))
    assert (c.verdict, c.method) == (EXISTS, METHOD_A1_UNIFORM)
    assert c.params == CodeParams(10**7, 5 * 10**6, 1, 2)
    c = classify(CodeParams(10**7, 5 * 10**6, 2, 2))
    assert (c.verdict, c.tag) == (NOT_EXISTS, TAG_NON_EXST)
    monkeypatch.undo()
    assert classify(CodeParams(12, 5, 2, 3)).field_bound == 495


def test_classify_feasibility_precedes_mds():
    # r = k but the length cannot host even one full repair group:
    # a [5,4] MDS code cannot give all symbols (4,3) locality, so the
    # feasibility cut must win over the r = k shortcut
    c = classify(CodeParams(5, 4, 4, 3))
    assert (c.verdict, c.tag) == (NOT_EXISTS, TAG_LOW_BOUND)
    # same shape one step larger is genuinely MDS-constructible
    assert classify(CodeParams(6, 4, 4, 3)).verdict == EXISTS_MDS


def test_classify_unknown_tag_split():
    # condition-9 fires when enough whole groups fit (w >= ell) but the
    # distribution conditions still fail
    c = classify(CodeParams(60, 14, 9, 5))  # w=4 < ell=5 -> condition-8
    assert (c.verdict, c.tag) == (UNKNOWN, TAG_COND_8)
    found_9 = None
    for n in range(20, 70):
        for k in range(2, n):
            for r in range(1, k):
                p = CodeParams(n, k, r, 4)
                c = classify(p)
                if c.tag == TAG_COND_9:
                    found_9 = (n, k, r)
                    break
            if found_9:
                break
        if found_9:
            break
    assert found_9 is not None


def test_classify_reference_grid_rows():
    # n=60, delta=5 sweep; verdict/tag pairs pinned for two full rows
    expect_r3 = [
        (NOT_EXISTS, TAG_NON_EXST_1), (NOT_EXISTS, TAG_NON_EXST),
        (EXISTS, TAG_OPT_EXT_4), (NOT_EXISTS, TAG_NON_EXST_1),
        (NOT_EXISTS, TAG_NON_EXST), (NOT_EXISTS, TAG_NON_EXST_1),
        (NOT_EXISTS, TAG_NON_EXST_1), (NOT_EXISTS, TAG_NON_EXST),
        (NOT_EXISTS, TAG_NON_EXST_1), (NOT_EXISTS, TAG_NON_EXST_1),
    ]
    for k, pair in zip(range(11, 21), expect_r3):
        c = classify(CodeParams(60, k, 3, 5))
        assert (c.verdict, c.tag) == pair, f"k={k}"
    for k in range(11, 21):
        c = classify(CodeParams(60, k, 6, 5))
        assert (c.verdict, c.tag) == (EXISTS, "thm-opt-ext-1"), f"k={k}"


def test_classify_is_total_over_a_dense_sweep():
    """No valid parameter tuple may raise, and every verdict occurs."""
    verdicts = set()
    for n in range(1, 36):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                for delta in (2, 3, 5):
                    c = classify(CodeParams(n, k, r, delta))
                    verdicts.add(c.verdict)
    assert verdicts == {EXISTS_MDS, EXISTS, NOT_EXISTS, UNKNOWN}


def test_classify_exists_paths_all_reachable():
    methods = set()
    for n in range(2, 40):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                for delta in (2, 3):
                    c = classify(CodeParams(n, k, r, delta))
                    if c.verdict == EXISTS:
                        methods.add(c.method)
    assert methods == {METHOD_A1_UNIFORM, METHOD_A1_REMAINDER,
                       METHOD_A2_HUB, METHOD_A2_PAIRED}


def test_classify_exists_never_contradicts_necessity():
    rng = random.Random(21)
    for _ in range(2000):
        n = rng.randrange(2, 90)
        k = rng.randrange(1, n + 1)
        r = rng.randrange(1, k + 1)
        delta = rng.randrange(2, 7)
        p = CodeParams(n, k, r, delta)
        c = classify(p)
        if c.verdict in (EXISTS, EXISTS_MDS):
            assert necessary_check(p)
            assert c.bound_d == distance_bound(p)
