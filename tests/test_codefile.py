import json
from pathlib import Path

import pytest

import lrcodes
from lrcodes.codefile import FORMAT_TAG, CodeFile, load_code, save_code
from lrcodes.construct import construct, run_extension
from lrcodes.covers import Frame
from lrcodes.errors import CodeFileError
from lrcodes.gf import field_make
from lrcodes.params import CodeParams


def test_save_load_round_trip(tmp_path):
    code = construct(CodeParams(12, 5, 2, 3), field_make(499), seed=7)
    path = tmp_path / "code.json"
    written = save_code(code, path, seed=7)
    assert written.seed == 7
    assert written.tool_version == lrcodes.__version__

    back = load_code(path)
    assert back.seed == 7
    assert back.tool_version == lrcodes.__version__
    assert back.created_at == written.created_at
    assert back.code.generator == code.generator
    assert back.code.structure == code.structure
    assert back.code.params == code.params
    assert back.code.field == code.field
    assert back.code.claimed_d == code.claimed_d
    assert back.code.trace == code.trace


def test_file_layout(tmp_path):
    code = construct(CodeParams(6, 3, 2, 2), field_make(17), seed=0)
    path = tmp_path / "code.json"
    save_code(code, path)
    text = path.read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["format"] == FORMAT_TAG == "lrc-code-v1"
    assert data["seed"] is None
    assert set(data) == {"format", "tool_version", "seed", "created_at", "code"}
    assert data["code"]["params"] == {"n": 6, "k": 3, "r": 2, "delta": 2}


def test_unknown_format_rejected(tmp_path):
    code = construct(CodeParams(6, 3, 2, 2), field_make(17), seed=0)
    path = tmp_path / "code.json"
    save_code(code, path)
    data = json.loads(path.read_text())
    data["format"] = "lrc-code-v9"
    with pytest.raises(CodeFileError, match="unsupported file format"):
        CodeFile.from_json(data)
    del data["format"]
    with pytest.raises(CodeFileError):
        CodeFile.from_json(data)


def test_round_trip_many_structures(tmp_path):
    cases = [
        construct(CodeParams(11, 5, 2, 2), field_make(331), seed=1),
        construct(CodeParams(10, 5, 2, 2), field_make(211), seed=2),
        construct(CodeParams(6, 3, 2, 2), field_make(2, 4), seed=3),
        construct(CodeParams(4, 2, 2, 3), field_make(7), seed=0),
    ]
    for i, code in enumerate(cases):
        path = tmp_path / f"code{i}.json"
        save_code(code, path, seed=i)
        back = load_code(path)
        assert back.code == code
        assert type(back.code.structure) is type(code.structure)


def test_field_over_a_strong_pseudoprime_rejected(tmp_path):
    # 318665857834031151167461 = 399165290221 * 798330580441 passes
    # Miller-Rabin to every prime base up to 37, so only base 41 shows
    # that this "field" is a ring with zero divisors
    code = construct(CodeParams(6, 3, 2, 2), field_make(17), seed=0)
    data = CodeFile(code=code, seed=0, tool_version="0", created_at="").to_json()
    data["code"]["field"]["p"] = 318665857834031151167461
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CodeFileError, match="not prime"):
        load_code(path)


FIXTURES = sorted((Path(__file__).parents[1] / "perfbench" / "fixtures").glob("*.json"))


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
def test_stored_fixtures_re_encode_unchanged(path):
    # the format is pinned: each stored file loads and writes back, as
    # save_code writes it, to the same bytes
    text = path.read_text(encoding="utf-8")
    stored = load_code(path).to_json()
    assert stored["code"] == json.loads(text)["code"]
    assert json.dumps(stored, indent=2) + "\n" == text


def test_frame_without_hub_blocks_loads_as_a_frame(tmp_path):
    # a frame of tail groups only writes empty hub lists, like a CoverSet;
    # its tail block tells them apart
    frame = Frame(12, [range(1, 5), range(5, 9), range(9, 13)], [], [1, 2, 3], [])
    code = run_extension(frame, CodeParams(12, 5, 2, 3), field_make(499), seed=1)
    save_code(code, tmp_path / "frame.json")
    back = load_code(tmp_path / "frame.json").code
    assert type(back.structure) is Frame and back == code


@pytest.mark.parametrize("where, value, message", [
    (("generator", "rows"), 4, "declared shape does not match data"),
    (("generator", "field", "p"), 19, "generator is over GF\\(19\\), the code over GF\\(17\\)"),
    (("params", "n"), 7, "generator is 3 x 6, params declare k=3, n=7"),
    (("structure", "n"), 7, r"structure covers \[1..7\], params declare n=6"),
], ids=["rows", "generator-field", "params-n", "structure-n"])
def test_header_disagreeing_with_matrix_rejected(tmp_path, where, value, message):
    code = construct(CodeParams(6, 3, 2, 2), field_make(17), seed=0)
    data = CodeFile(code=code, seed=0, tool_version="0", created_at="").to_json()
    *keys, last = where
    part = data["code"]
    for key in keys:
        part = part[key]
    part[last] = value
    path = tmp_path / "header.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CodeFileError, match="malformed code file: " + message):
        load_code(path)


@pytest.mark.parametrize("edit, message", [
    (lambda c: c["field"].update(poly=19), r"GF\(17\) has no modulus, got poly 19"),
    (lambda c: c["generator"]["field"].update(poly=1), r"GF\(17\) has no modulus, got poly 1"),
    (lambda c: c["generator"]["data"][0].__setitem__(0, 18),
     r"generator entries must be integers in \[0, 17\)"),
    (lambda c: c["generator"]["data"][2].__setitem__(5, -1),
     r"generator entries must be integers in \[0, 17\)"),
], ids=["field-poly", "generator-field-poly", "entry-q+1", "entry-negative"])
def test_non_canonical_integers_rejected(tmp_path, edit, message):
    # a stored integer that loading would reduce, and saving rewrite, is
    # refused: a modulus for a prime field, an entry outside [0, q)
    code = construct(CodeParams(6, 3, 2, 2), field_make(17), seed=0)
    data = CodeFile(code=code, seed=0, tool_version="0", created_at="").to_json()
    assert data["code"]["generator"]["data"][0][0] == 1
    edit(data["code"])
    path = tmp_path / "canonical.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CodeFileError, match="malformed code file: " + message):
        load_code(path)


def test_binary_field_entries_checked_against_q(tmp_path):
    # over GF(2^4) an entry of 16 or more is refused, one below is kept
    code = construct(CodeParams(6, 3, 2, 2), field_make(2, 4), seed=3)
    data = CodeFile(code=code, seed=0, tool_version="0", created_at="").to_json()
    rows = data["code"]["generator"]["data"]
    assert CodeFile.from_json(data).code == code
    rows[1][1] = 16
    with pytest.raises(CodeFileError, match=r"integers in \[0, 16\)"):
        CodeFile.from_json(data)
