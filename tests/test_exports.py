"""Every exported name resolves, so no deletion leaves a stale export."""

import importlib
import pkgutil

import lrcodes


def test_every_exported_name_resolves():
    modules = [lrcodes] + [importlib.import_module(f"lrcodes.{m.name}")
                           for m in pkgutil.iter_modules(lrcodes.__path__)]
    for mod in modules:
        exported = getattr(mod, "__all__", ())  # errors.py has none
        missing = [name for name in exported if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)
        assert len(set(exported)) == len(exported), mod.__name__
