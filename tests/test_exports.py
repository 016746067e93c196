"""Every exported name resolves, so no deletion leaves a stale export;
the package loads its submodules lazily, so `import lrcodes`,
`lrc classify` and `lrc table` never import numpy."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lrcodes
from lrcodes.cli import main


def test_every_exported_name_resolves():
    modules = [lrcodes] + [importlib.import_module(f"lrcodes.{m.name}")
                           for m in pkgutil.iter_modules(lrcodes.__path__)]
    for mod in modules:
        exported = getattr(mod, "__all__", ())  # errors.py has none
        missing = [name for name in exported if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)
        assert len(set(exported)) == len(exported), mod.__name__


def _fresh_python(code: str):
    """Run `code` in a new interpreter that imports lrcodes from src/ and
    return the JSON it prints on its last line."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_dir_lists_every_exported_name():
    assert set(lrcodes.__all__) <= set(dir(lrcodes))


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(lrcodes, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        lrcodes.no_such_name


def test_star_import_binds_every_name_in_a_fresh_interpreter():
    names = _fresh_python(
        "import json\n"
        "ns = {}\n"
        "exec('from lrcodes import *', ns)\n"
        "print(json.dumps(sorted(set(ns) - {'__builtins__'})))\n")
    assert names == sorted(lrcodes.__all__)


def test_submodules_resolve_after_a_bare_import():
    got = _fresh_python(
        "import json, lrcodes\n"
        "print(json.dumps([lrcodes.verify.DEFAULT_BUDGET,\n"
        "                  callable(lrcodes.gf.field_kernel)]))\n")
    assert got == [importlib.import_module("lrcodes.verify").DEFAULT_BUDGET, True]


def test_construct_is_the_function_in_every_import_order():
    # `construct` names a function and its submodule; importing the
    # submodule binds it on the package, which must not shadow the function
    got = _fresh_python(
        "import contextlib, importlib, io, json, types\n"
        "seen = {}\n"
        "from lrcodes import construct\n"
        "seen['first'] = construct\n"
        "import lrcodes.construct\n"
        "from lrcodes import construct\n"
        "seen['after import lrcodes.construct'] = construct\n"
        "mod = importlib.import_module('lrcodes.construct')\n"
        "from lrcodes import construct\n"
        "seen['after import_module'] = construct\n"
        "from lrcodes.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['construct', '6', '3', '2', '2'])\n"
        "from lrcodes import construct\n"
        "seen['after lrc construct'] = construct\n"
        "print(json.dumps({'module': isinstance(mod, types.ModuleType), 'rc': rc,\n"
        "                  **{k: f is mod.construct for k, f in seen.items()}}))\n")
    assert got == {"module": True, "rc": 0, "first": True,
                   "after import lrcodes.construct": True,
                   "after import_module": True, "after lrc construct": True}


_NUMPY_FREE_ARGVS = [
    ["classify", "12", "5", "2", "3"],    # Exists
    ["classify", "10", "3", "3", "2"],    # ExistsMDS
    ["classify", "60", "12", "3", "5"],   # NotExists
    ["classify", "60", "11", "10", "5"],  # Unknown
    ["table", "--n", "60", "--delta", "5", "--r", "2..11", "--k", "11..20"],
]


def test_import_classify_and_table_load_no_numpy(capsys):
    got = _fresh_python(
        "import contextlib, io, json, sys\n"
        "import lrcodes\n"
        "runs = [['import lrcodes', None, '', 'numpy' in sys.modules]]\n"
        "from lrcodes.cli import main\n"
        f"for argv in {_NUMPY_FREE_ARGVS!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        rc = main(argv)\n"
        "    runs.append([' '.join(argv), rc, out.getvalue(), 'numpy' in sys.modules])\n"
        "print(json.dumps(runs))\n")
    assert [(what, loaded) for what, _, _, loaded in got] == [
        (what, False) for what, _, _, _ in got]
    # the same output and exit code as in this process, where numpy is loaded
    want = []
    for argv in _NUMPY_FREE_ARGVS:
        rc = main(argv)
        want.append([" ".join(argv), rc, capsys.readouterr().out, False])
    assert got[1:] == want
    assert [(rc, out) for _, rc, out, _ in want[:4]] == [
        (0, "EXISTS via Algorithm1-uniform, d*=4, q≥495\n"),
        (0, "EXISTS (MDS), d*=8\n"),
        (2, "NOT-EXISTS (thm-non-exst)\n"),
        (3, "UNKNOWN (condition-8)\n")]
    assert want[4][1] == 0  # test_cli pins the grid itself
