import json

import pytest

import lrcodes
from lrcodes.codefile import FORMAT_TAG, CodeFile, load_code, save_code
from lrcodes.construct import construct
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
        assert back.code.to_json() == code.to_json()
        assert type(back.code.structure) is type(code.structure)
