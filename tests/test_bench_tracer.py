"""The benchmark's traced run wraps library functions by module attribute
name (perfbench/tracer.py); every one of those names must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    construct = importlib.import_module("lrcodes.construct")
    before = construct.pick_extension_vector
    tracer = mod.Tracer()
    try:
        tracer.install()  # getattr on a missing name raises AttributeError
        patched = {(getattr(owner, "__name__", ""), attr)
                   for owner, attr, _ in tracer._patches}
    finally:
        tracer.uninstall()
    assert ("lrcodes.construct", "lambda_cores") in patched
    assert ("lrcodes.construct", "reduce_vector") in patched
    assert construct.pick_extension_vector is before
