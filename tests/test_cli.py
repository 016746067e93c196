import contextlib
import importlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
from functools import lru_cache
from math import comb
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_classify_prints_a_huge_field_bound_as_its_binomial():
    # C(20004, 9999) has about 6,000 digits, past Python's default
    # int-to-str limit: the verdict line names the binomial instead
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "lrcodes.cli", "classify", "20004", "10000",
         "5000", "2"], capture_output=True, encoding="utf-8", env=env,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("EXISTS via Algorithm1-uniform, d*=10004, "
                           "q≥C(20004,9999)\n")


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
    # 28 of the 208 independent 3-subsets are labelled: the floor is set
    # before the tower expands its first batch
    assert "distance: d = 4 via rank-criterion, 220 scanned, 28 labelled\n" in out
    # the certificate reads that d = 4, at the bound, and scans nothing
    assert ("optimality: OPTIMAL (bound d* = 4, 220 subsets of size 9) "
            "via known-distance, d = 4\n") in out
    assert "structure theorem: not applicable (requires r | k and r < k)" in out


def test_construct_stats_prints_the_steps_as_json(capsys):
    # --stats adds one JSON line after the unchanged text: each step's
    # StepStats, with its cores the lam-cores of that step's Omega
    argv = ["construct", "12", "5", "2", "3", "--field", "499"]
    rc, text, _ = run(capsys, argv)
    assert rc == 0
    rc, out, _ = run(capsys, argv + ["--stats"])
    assert rc == 0
    *lines, last = out.splitlines()
    assert lines == text.splitlines()
    steps = json.loads(last)["steps"]
    code = construct(CodeParams(12, 5, 2, 3), field_make(499), seed=0)
    assert [{k: v for k, v in s.items() if k != "seconds"} for s in steps] == [
        {"lam": s.lam, "rows_added": s.rows_added, "subsets": s.subsets,
         "cores": s.cores, "draws": s.draws, "scan_steps": s.scan_steps}
        for s in code.steps]
    assert [s["subsets"] for s in steps] == [comb(6 + i, 4) for i in range(6)]
    assert all(s["seconds"] >= 0 for s in steps)
    # a windowed MDS code has no extension steps
    rc, out, _ = run(capsys, ["construct", "5", "2", "2", "2", "--stats"])
    assert rc == 0 and json.loads(out.splitlines()[-1]) == {"steps": []}


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

    # cmd_construct looks `construct` up on its submodule at call time
    monkeypatch.setattr(importlib.import_module("lrcodes.construct"),
                        "construct", exhausted)
    rc, _, err = run(capsys, ["construct", "12", "5", "2", "3"])
    assert rc == 1
    assert err == "error: out of memory (Unable to allocate 7.45 GiB)\n"


def _address_space_2gib():
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _cli_process(args, timeout, **kwargs):
    """`python -m lrcodes.cli args` in a fresh interpreter, where a
    traceback would reach stderr."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "lrcodes.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout,
                          **kwargs)


def test_explicit_field_rejected_before_a_billion_coordinates():
    # the field check comes before the partition: exit 1 with the typed
    # error's message, not an out-of-memory exit under a 2 GiB cap
    proc = _cli_process(["construct", "1000000000", "2", "1", "2", "--field", "7"],
                        timeout=120, preexec_fn=_address_space_2gib)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: need q >= 500000000")


def test_construct_overlapping_mds_cover_verifies(tmp_path, capsys):
    out_file = tmp_path / "mds.json"
    rc, out, _ = run(capsys, ["construct", "5", "2", "2", "2", "--out", str(out_file)])
    assert rc == 0
    assert "constructed [n=5, k=2] code over GF(5), claimed d = 4" in out
    assert "structure: overlapping cover with 2 groups" in out
    assert "  group 1: {1,2,3}\n  group 2: {3,4,5}\n" in out
    rc, out, _ = run(capsys, ["verify", str(out_file)])
    assert rc == 0
    assert "distance: d = 4" in out
    assert "optimality: OPTIMAL" in out


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
    # 318665857834031151167461 = 399165290221 * 798330580441 is a strong
    # pseudoprime to every prime base up to 37
    for field in ("4", "318665857834031151167461"):
        rc, out, err = run(capsys, ["construct", "6", "3", "2", "2", "--field", field])
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and "not prime" in err
    # a fourth part
    rc, out, err = run(capsys, ["construct", "6", "3", "2", "2", "--field", "7,1,0,5"])
    assert (rc, out, err) == (1, "", "error: expected P[,E[,POLY]], got '7,1,0,5'\n")


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


def test_verify_names_no_route_when_locality_fails(tmp_path, capsys):
    out_file = tmp_path / "code.json"
    run(capsys, ["construct", "12", "5", "2", "3", "--field", "499",
                 "--out", str(out_file)])
    data = json.loads(out_file.read_text())
    # column 1 becomes column 5: group {1,2,3,4} no longer has rank 2
    for row in data["code"]["generator"]["data"]:
        row[0] = row[4]
    out_file.write_text(json.dumps(data))
    rc, out, _ = run(capsys, ["verify", str(out_file)])
    assert rc == 1
    assert "locality: FAIL" in out
    assert ("optimality: NOT OPTIMAL (bound d* = 4, 220 subsets of size 9)\n"
            in out)


def test_verify_prints_the_not_optimal_certificate(tmp_path, capsys):
    # columns 9-12 become u, w, u + w and u + 2w, u = c1 + c5 and w = c9:
    # group 3 keeps rank 2, so locality holds, but the nine columns 1-9
    # span only rank 4, which the certificate names; d falls to 3
    data = json.loads(_saved_text())
    p = data["code"]["field"]["p"]
    for row in data["code"]["generator"]["data"]:
        u, w = (row[0] + row[4]) % p, row[8]
        row[8:12] = [u, w, (u + w) % p, (u + 2 * w) % p]
    data["code"]["trace"] = []
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(capsys, ["verify", str(path)])
    assert rc == 1 and err == ""
    assert "\nlocality: OK, 18 scanned\n" in out
    assert ("\ndistance: d = 3 via rank-criterion, 220 scanned, 18 labelled\n"
            "  FAIL: claimed d = 4\n"
            "optimality: NOT OPTIMAL (bound d* = 4, 220 subsets of size 9) "
            "via pencil-scan, 220 scanned, 28 labelled\n"
            "  deficient columns: (1, 2, 3, 4, 5, 6, 7, 8, 9)\n") in out


def test_verify_prints_the_locality_work(tmp_path, capsys):
    # three groups of 4 with delta = 3: C(4, 2) recovery pairs each; a
    # group whose rank exceeds r fails before its pairs are scanned
    out_file = tmp_path / "code.json"
    run(capsys, ["construct", "12", "5", "2", "3", "--field", "499",
                 "--out", str(out_file)])
    rc, out, _ = run(capsys, ["verify", str(out_file)])
    assert rc == 0 and "locality: OK, 18 scanned\n" in out
    data = json.loads(out_file.read_text())
    for row in data["code"]["generator"]["data"]:
        row[0] = row[4]
    out_file.write_text(json.dumps(data))
    rc, out, _ = run(capsys, ["verify", str(out_file)])
    assert rc == 1 and "locality: FAIL, 12 scanned\n" in out
    assert "  group 1 {1,2,3,4}: rank 3  FAIL (rank exceeds r)" in out


def _readme_output(command):
    """The lines the README shows under `$ command`, up to a blank line."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    at = lines.index(f"$ {command}") + 1
    end = lines.index("", at)
    return lines[at:end]


def test_readme_construct_and_verify_transcripts(tmp_path, monkeypatch, capsys):
    # the README's construct and verify session, run as written, prints
    # exactly what the README shows
    monkeypatch.chdir(tmp_path)
    for command in ("lrc construct 12 5 2 3 --field 499 --seed 0 --out code.json",
                    "lrc verify code.json"):
        rc, out, err = run(capsys, command.split()[1:])
        assert rc == 0 and err == ""
        assert out.splitlines() == _readme_output(command), command


def test_verify_budget_exhaustion_is_not_failure(tmp_path, capsys):
    out_file = tmp_path / "code.json"
    run(capsys, ["construct", "12", "5", "2", "3", "--field", "499",
                 "--out", str(out_file)])
    rc, out, _ = run(capsys, ["verify", str(out_file), "--budget", "100"])
    # as the README says: 0 when every check that ran passed, though two
    # of them did not run
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


def test_verify_fails_the_structure_theorem_on_uncovered_coordinates(
        tmp_path, capsys):
    # a saved (12,4,2,3) partition code with its groups cut to two of
    # three, or to none: the structure theorem fails beside locality
    data = json.loads(_saved_text(params=(12, 4, 2, 3)))
    for cut, missing in ((2, "(9, 10, 11, 12)"),
                         (0, str(tuple(range(1, 13))))):
        edited = json.loads(json.dumps(data))
        groups = edited["code"]["structure"]["groups"]
        edited["code"]["structure"]["groups"] = groups[:cut]
        path = tmp_path / f"cut{cut}.json"
        path.write_text(json.dumps(edited))
        rc, out, err = run(capsys, ["verify", str(path)])
        assert rc == 1 and err == ""
        assert "\nlocality: FAIL" in out
        assert out.endswith(f"structure theorem: FAIL\n"
                            f"  coordinates {missing} are in no group\n")


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

    def file_as_list(data):
        return [data]

    for edit, needle in ((drop_params, "missing key 'params'"),
                         (code_as_list, "malformed code file"),
                         (float_field, "float"),
                         (string_entry, "str"),
                         (file_as_list, "expected a JSON object, got list")):
        rc, out, err = _verify_edited(capsys, tmp_path, edit)
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and needle in err
    bad_json = tmp_path / "bad.json"
    bad_json.write_text(_saved_text()[:-20])
    rc, _, err = run(capsys, ["verify", str(bad_json)])
    assert rc == 1 and err.startswith("error: ") and "not valid JSON" in err


def test_verify_rejects_deeply_nested_json(tmp_path):
    # json.loads raises RecursionError past about a thousand levels
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    data = json.loads(_saved_text())
    data["code"]["trace"] = "NESTED"
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(data).replace(
        '"NESTED"', "[" * 50_000 + "]" * 50_000))
    for path in (nested, trace):
        proc = _cli_process(["verify", str(path)], timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and "not valid JSON" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_construct_refuses_a_high_degree_binary_modulus():
    # the degree is refused before the modulus is read; trial division of
    # this degree-60 polynomial once ran past 20 s
    proc = _cli_process(["construct", "12", "5", "2", "3", "--field",
                         "2,60,1152921504606846979"], timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: binary fields stop at degree 16")
    assert "Traceback" not in proc.stderr


def test_verify_rejects_bad_trace_and_provenance(tmp_path, capsys):
    # a trace of a non-integer coordinate with string entries and an
    # out-of-range coordinate once verified OPTIMAL and exited 0
    def repro(data):
        data["code"]["trace"] = [["x", ["a", "b"]], [99, [1, 2, 3, 4, 5]]]

    def out_of_range(data):
        data["code"]["trace"][0][0] = 99

    def repeated(data):
        data["code"]["trace"].append(data["code"]["trace"][0])

    def wrong_column(data):
        col = data["code"]["trace"][0][1]
        col[0] = (col[0] + 1) % 499

    def string_entry(data):
        data["code"]["trace"][0][1][0] = "7"

    def seed_string(data):
        data["seed"] = "7"

    def seed_bool(data):
        data["seed"] = True

    def version_int(data):
        data["tool_version"] = 3

    def created_null(data):
        data["created_at"] = None

    lam = json.loads(_saved_text())["code"]["trace"][0][0]
    for edit, needle in ((repro, "'str' object cannot be interpreted as an integer"),
                         (out_of_range, "column 99 out of [1, 12]"),
                         (repeated, "trace assigns a coordinate twice"),
                         (wrong_column, f"trace column {lam} is not the generator's"),
                         (string_entry, "str"),
                         (seed_string, "seed must be an integer or null, got '7'"),
                         (seed_bool, "seed must be an integer or null, got True"),
                         (version_int, "tool_version must be a string, got 3"),
                         (created_null, "created_at must be a string, got None")):
        rc, out, err = _verify_edited(capsys, tmp_path, edit)
        assert rc == 1 and out == "", edit.__name__
        assert err.startswith("error: ") and needle in err, (edit.__name__, err)
    rc, out, _ = _verify_edited(capsys, tmp_path, lambda data: None)
    assert rc == 0 and "optimality: OPTIMAL" in out


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


def test_verify_rejects_frames_whose_hub_layout_is_wrong(tmp_path, capsys):
    # the paired frame of (10,5,2,2): hub blocks (1,2) and (3,4) share
    # coordinates 3 and 8; the overlapping windows of an r = k code still load
    path = tmp_path / "paired.json"
    rc, _, _ = run(capsys, ["construct", "10", "5", "2", "2", "--field", "211",
                            "--out", str(path)])
    assert rc == 0
    saved = json.loads(path.read_text())
    assert saved["code"]["structure"]["hubs"] == [3, 8]

    def wrong_hub(structure):
        structure["hubs"][0] = 1

    def blocks_overlap(structure):
        structure["groups"][2] = [5, 7, 8]

    for edit, needle in ((wrong_hub, "declared hub 1 is not the shared element"),
                         (blocks_overlap, "blocks overlap each other")):
        data = json.loads(json.dumps(saved))
        edit(data["code"]["structure"])
        path.write_text(json.dumps(data))
        rc, out, err = run(capsys, ["verify", str(path)])
        assert rc == 1 and out == ""
        assert err.startswith("error: malformed code file: invalid frame")
        assert needle in err
    rc, _, _ = run(capsys, ["construct", "7", "3", "3", "2", "--out", str(path)])
    assert rc == 0
    assert json.loads(path.read_text())["code"]["structure"]["groups"] == [
        [1, 2, 3, 4], [4, 5, 6, 7]]
    rc, out, _ = run(capsys, ["verify", str(path)])
    assert rc == 0 and "optimality: OPTIMAL" in out


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


# ---------------------------------------------------------------------
# argument fuzz: construct and table
# ---------------------------------------------------------------------

_SMALL = st.integers(-2, 14)
_FIELDS = st.sampled_from([
    "2", "3", "5", "7", "11", "13", "31", "1000000007", "2,4", "2,8",
    "4", "6", "9", "1", "0", "-7", "2,4,17", "2,3,9", "2,17", "3,2",
    "", ",", "7,", "2,,11", "x", "2,4,19,1"])
_RANGES = st.one_of(
    st.tuples(_SMALL, _SMALL).map(lambda ab: f"{ab[0]}..{ab[1]}"),
    _SMALL.map(str),
    st.sampled_from(["", "..", "3..", "..5", "a..b", "1...3", "2..x"]))


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv)


@settings(max_examples=150, deadline=None)
@given(n=_SMALL, k=_SMALL, r=_SMALL, delta=_SMALL, field=st.none() | _FIELDS,
       seed=st.integers(-3, 3))
def test_construct_survives_any_arguments(n, k, r, delta, field, seed):
    argv = ["construct", str(n), str(k), str(r), str(delta), "--seed", str(seed)]
    if field is not None:
        argv += ["--field", field]
    assert _exit_code(argv) in (0, 1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(n=_SMALL, delta=_SMALL, rs=_RANGES, ks=_RANGES)
def test_table_survives_any_arguments(n, delta, rs, ks):
    argv = ["table", "--n", str(n), "--delta", str(delta), "--r", rs, "--k", ks]
    assert _exit_code(argv) in (0, 1, 2, 3)
