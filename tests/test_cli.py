import contextlib
import io
import json
import re
import tempfile
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lrcodes import cli
from lrcodes.cli import main
from lrcodes.codefile import CodeFile
from lrcodes.construct import construct
from lrcodes.gf import field_make
from lrcodes.params import CodeParams


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------

def test_classify_exists(capsys):
    rc, out, err = run(capsys, ["classify", "12", "5", "2", "3"])
    assert rc == 0 and err == ""
    assert out == "EXISTS via Algorithm1-uniform, d*=4, q≥495\n"


def test_classify_mds(capsys):
    rc, out, _ = run(capsys, ["classify", "6", "3", "3", "2"])
    assert rc == 0
    assert out == "EXISTS (MDS), d*=4\n"


def test_classify_not_exists(capsys):
    rc, out, _ = run(capsys, ["classify", "13", "7", "2", "2"])
    assert rc == 2
    assert out == "NOT-EXISTS (thm-non-exst-1)\n"
    rc, out, _ = run(capsys, ["classify", "60", "12", "4", "5"])
    assert rc == 2
    assert out == "NOT-EXISTS (thm-non-exst)\n"


def test_classify_unknown(capsys):
    rc, out, _ = run(capsys, ["classify", "60", "11", "10", "5"])
    assert rc == 3
    assert out == "UNKNOWN (condition-8)\n"


def test_classify_bad_parameters(capsys):
    rc, _, err = run(capsys, ["classify", "6", "7", "2", "2"])
    assert rc == 1
    assert err.startswith("error: ")


# ---------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------

def test_usage_errors_exit_1(capsys):
    for argv in ([], ["nosuch"], ["classify", "6", "3", "2"],
                 ["classify", "x", "3", "2", "2"],
                 ["table", "--n", "60"]):
        rc, out, err = run(capsys, argv)
        assert rc == 1, argv
        assert "usage:" in err


# ---------------------------------------------------------------------
# table
# ---------------------------------------------------------------------

def test_table_full_grid(capsys):
    rc, out, _ = run(capsys, ["table", "--n", "60", "--delta", "5",
                              "--r", "2..11", "--k", "11..20"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n=60, delta=5"
    assert lines[1].split() == ["r\\k"] + [str(k) for k in range(11, 21)]
    grid = {}
    for line in lines[2:12]:
        cells = line.split()
        grid[int(cells[0])] = cells[1:]
    for r in (2, 6, 8, 11):
        assert grid[r] == ["E_M"] * 10
    assert grid[3][0] == "N11"
    assert grid[3][1] == "N10"
    assert grid[3][2] == "E27"
    assert grid[4][0] == "E27"
    assert grid[4][1] == "N10"
    assert grid[5][0] == "E16"
    assert grid[5][4] == "N10"
    assert grid[7][3] == "N10"
    assert grid[9][0] == "E16"
    assert grid[9][7] == "N10"
    assert grid[10] == ["~"] * 9 + ["N10"]
    assert "note: 19 cell(s) differ from the published reference grid:" in out
    assert "  (r=7, k=11): classifier ~, published E26" in out


def test_table_matching_subset_notes_agreement(capsys):
    rc, out, _ = run(capsys, ["table", "--n", "60", "--delta", "5",
                              "--r", "2..2", "--k", "11..20"])
    assert rc == 0
    assert "classifier matches the published reference grid" in out
    assert "differ" not in out


def test_table_off_reference_has_no_note(capsys):
    rc, out, _ = run(capsys, ["table", "--n", "12", "--delta", "3",
                              "--r", "2..2", "--k", "5..5"])
    assert rc == 0
    assert out.splitlines()[2].split() == ["2", "E_M"]
    assert "note" not in out


def test_table_unclassifiable_cells_show_dash(capsys):
    # k > n is invalid; k = n merely fails the counting bound
    rc, out, _ = run(capsys, ["table", "--n", "6", "--delta", "2",
                              "--r", "2..2", "--k", "5..7"])
    assert rc == 0
    row = out.splitlines()[2].split()
    assert row == ["2", "NX", "NX", "-"]


# ---------------------------------------------------------------------
# construct / verify round trip
# ---------------------------------------------------------------------

def test_construct_writes_verifiable_file(tmp_path, capsys):
    out_file = tmp_path / "code.json"
    rc, out, _ = run(capsys, ["construct", "12", "5", "2", "3",
                              "--field", "499", "--out", str(out_file)])
    assert rc == 0
    assert "constructed [n=12, k=5] code over GF(499), claimed d = 4" in out
    assert "structure: partition with 3 groups" in out
    assert "  group 1: {1,2,3,4}" in out
    assert f"wrote {out_file}" in out

    rc, out, _ = run(capsys, ["verify", str(out_file)])
    assert rc == 0
    assert "code: [n=12, k=5] over GF(499), r=2, delta=3, claimed d = 4" in out
    assert "locality: OK" in out
    assert "  group 1 {1,2,3,4}: rank 2" in out
    assert "distance: d = 4 via rank-criterion" in out
    assert "optimality: OPTIMAL (bound d* = 4, 220 subsets of size 9)" in out
    assert "structure theorem: not applicable (requires r | k and r < k)" in out


def test_construct_frame_and_structure_theorem(tmp_path, capsys):
    out_file = tmp_path / "paired.json"
    rc, out, _ = run(capsys, ["construct", "10", "5", "2", "2",
                              "--field", "211", "--out", str(out_file)])
    assert rc == 0
    assert "structure: frame with 4 groups" in out
    assert "  group 2: {3,4,5}" in out
    rc, out, _ = run(capsys, ["verify", str(out_file)])
    assert rc == 0
    assert "distance: d = 4" in out

    out_file2 = tmp_path / "u.json"
    rc, out, _ = run(capsys, ["construct", "12", "4", "2", "3",
                              "--out", str(out_file2)])
    assert rc == 0
    rc, out, _ = run(capsys, ["verify", str(out_file2)])
    assert rc == 0
    assert "structure theorem: OK" in out


def test_construct_binary_field(capsys):
    rc, out, _ = run(capsys, ["construct", "6", "3", "2", "2",
                              "--field", "2,4"])
    assert rc == 0
    assert "over GF(2^4)" in out


def test_construct_huge_prime_field(capsys):
    rc, out, err = run(capsys, ["construct", "20", "8", "4", "2",
                                "--field", "1000000007"])
    assert rc == 0 and err == ""
    assert "over GF(1000000007)" in out


def test_out_of_memory_is_an_error_not_a_traceback(monkeypatch, capsys):
    def exhausted(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB")

    monkeypatch.setattr(cli, "construct", exhausted)
    rc, _, err = run(capsys, ["construct", "12", "5", "2", "3"])
    assert rc == 1
    assert err == "error: Unable to allocate 7.45 GiB\n"


def test_construct_not_exists(capsys):
    rc, out, err = run(capsys, ["construct", "13", "7", "2", "2"])
    assert rc == 2
    assert out == ""
    assert err.startswith("NOT-EXISTS (thm-non-exst-1):")


def test_construct_unknown(capsys):
    rc, _, err = run(capsys, ["construct", "60", "11", "10", "5"])
    assert rc == 3
    assert err.startswith("UNKNOWN (condition-8):")


def test_construct_bad_field_spec(capsys):
    rc, _, err = run(capsys, ["construct", "6", "3", "2", "2", "--field", "4"])
    assert rc == 1
    assert err.startswith("error: ")


def test_verify_detects_tampered_distance_claim(tmp_path, capsys):
    out_file = tmp_path / "code.json"
    run(capsys, ["construct", "12", "5", "2", "3", "--field", "499",
                 "--out", str(out_file)])
    data = json.loads(out_file.read_text())
    data["code"]["claimed_d"] = 5
    out_file.write_text(json.dumps(data))
    rc, out, _ = run(capsys, ["verify", str(out_file)])
    assert rc == 1
    assert "distance: d = 4 via rank-criterion" in out
    assert "FAIL: claimed d = 5" in out


def test_verify_budget_exhaustion_is_not_failure(tmp_path, capsys):
    out_file = tmp_path / "code.json"
    run(capsys, ["construct", "12", "5", "2", "3", "--field", "499",
                 "--out", str(out_file)])
    rc, out, _ = run(capsys, ["verify", str(out_file), "--budget", "100"])
    assert rc == 0
    assert "distance: out of budget" in out
    assert "optimality: out of budget" in out
    assert "locality: OK" in out


# ---------------------------------------------------------------------
# edited and malformed code files
# ---------------------------------------------------------------------

@lru_cache(maxsize=2)
def _saved_text(params=(12, 5, 2, 3), q=499):
    """What save_code writes for a code; by default the (12,5,2,3)
    partition code over GF(499)."""
    code = construct(CodeParams(*params), field_make(q), seed=0)
    return json.dumps(CodeFile(code=code, seed=0, tool_version="0.1.0",
                               created_at="").to_json(), indent=2)


# a hub frame with a hub block, a tail block and a hub: (10,3,2,2) over GF(47)
_HUB_FRAME = ((10, 3, 2, 2), 47)


def _verify_edited(capsys, tmp_path, edit):
    data = json.loads(_saved_text())
    data = edit(data) or data
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return run(capsys, ["verify", str(path)])


def _set_k4(data):
    data["code"]["params"]["k"] = 4


def _set_gf503(data):
    data["code"]["field"]["p"] = 503


def test_verify_rejects_header_disagreeing_with_matrix(tmp_path, capsys):
    # a 5-row generator declared k=4 once certified d* = 7 while d = 4
    rc, out, err = _verify_edited(capsys, tmp_path, _set_k4)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "5 x 12" in err
    # a GF(503) header over the GF(499) matrix
    rc, out, err = _verify_edited(capsys, tmp_path, _set_gf503)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "GF(499)" in err and "GF(503)" in err


def test_verify_rejects_malformed_files(tmp_path, capsys):
    def drop_params(data):
        del data["code"]["params"]

    def code_as_list(data):
        data["code"] = []

    def float_field(data):
        data["code"]["field"]["p"] = 499.5

    def string_entry(data):
        data["code"]["generator"]["data"][0][0] = "7"

    for edit, needle in ((drop_params, "missing key 'params'"),
                         (code_as_list, "malformed code file"),
                         (float_field, "float"),
                         (string_entry, "str")):
        rc, out, err = _verify_edited(capsys, tmp_path, edit)
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and needle in err
    bad_json = tmp_path / "bad.json"
    bad_json.write_text(_saved_text()[:-20])
    rc, _, err = run(capsys, ["verify", str(bad_json)])
    assert rc == 1 and err.startswith("error: ") and "not valid JSON" in err


def test_verify_rejects_frame_block_index_out_of_range(tmp_path, capsys):
    path = tmp_path / "paired.json"
    rc, _, _ = run(capsys, ["construct", "10", "5", "2", "2", "--field", "211",
                            "--out", str(path)])
    assert rc == 0
    data = json.loads(path.read_text())
    structure = data["code"]["structure"]
    assert structure["hub_blocks"]
    structure["hub_blocks"][0].append(len(structure["groups"]) + 1)
    path.write_text(json.dumps(data))
    rc, out, err = run(capsys, ["verify", str(path)])
    assert rc == 1 and out == ""
    assert err.startswith("error: malformed code file") and "group index" in err


def _leaf_paths(node, path=()):
    """Key paths of every scalar or empty-list value in a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    if isinstance(node, (dict, list)) and node:
        for key, child in items:
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


_LEAVES = [(saved, path) for saved in ((), _HUB_FRAME)
           for path in _leaf_paths(json.loads(_saved_text(*saved)))]
_OPTIMAL = re.compile(r"^optimality: OPTIMAL \(bound d\* = (\d+),", re.M)
_DISTANCE = re.compile(r"^distance: d = (\d+) via", re.M)


def test_saved_hub_frame_file_is_a_hub_frame():
    structure = json.loads(_saved_text(*_HUB_FRAME))["code"]["structure"]
    assert structure["hubs"] and structure["hub_blocks"] and structure["tail_block"]


@settings(max_examples=120, deadline=None)
@given(leaf=st.sampled_from(_LEAVES),
       value=st.one_of(st.integers(), st.text(max_size=8),
                       st.lists(st.integers(), max_size=4), st.none()))
def test_verify_survives_any_one_leaf_edit(leaf, value):
    # one leaf of a saved partition file or hub-frame file replaced
    saved, path = leaf
    data = json.loads(_saved_text(*saved))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "code.json"
        file.write_text(json.dumps(data))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["verify", str(file)])
    assert rc in (0, 1)
    optimal = _OPTIMAL.search(out.getvalue())
    if optimal:
        measured = _DISTANCE.search(out.getvalue())
        assert measured and measured.group(1) == optimal.group(1)


def test_verify_missing_file(tmp_path, capsys):
    rc, _, err = run(capsys, ["verify", str(tmp_path / "nope.json")])
    assert rc == 1
    assert err.startswith("error: ")


# ---------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------

def test_demo_narrative(capsys):
    rc, out, _ = run(capsys, ["demo"])
    assert rc == 0
    assert "12 coded symbols over GF(499)" in out
    assert "repair groups: {1,2,3,4} {5,6,7,8} {9,10,11,12}" in out
    assert "d = 4" in out
    assert "rank 5 = k" in out
