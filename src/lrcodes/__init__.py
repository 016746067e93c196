"""Optimal locally repairable codes: classify, construct, verify.

The package decides for which parameters (n, k, r, delta) an optimal
code with all-symbol (r, delta) locality exists, builds one
deterministically when a construction is known, and independently
re-checks locality and minimum distance of any generator matrix.

Public names load with their submodule on first access (PEP 562), so
``import lrcodes`` and classification never import numpy; the first
use of a field, ``construct``, ``verify`` or ``codefile`` does.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "errors": (
        "LrcError", "CompositeCharacteristic", "ReduciblePolynomial",
        "UnsupportedExtension", "DivisionByZero", "FieldMismatch",
        "BoundTooLarge", "IndexOutOfRange", "DimensionMismatch",
        "BudgetExceeded", "BoundNonPositive", "NotDivisible",
        "PreconditionViolated", "TooFewGroups", "CoverIncomplete",
        "FieldTooSmall", "NoValidVector", "NotConstructible", "UnknownCase",
        "StructureMismatch", "RankDeficient", "CodeFileError",
    ),
    "gf": ("FieldSpec", "field_make", "field_at_least", "is_prime"),
    "linalg": ("Matrix", "rank"),
    "params": (
        "CodeParams", "Classification", "classify", "distance_bound",
        "field_bound", "necessary_check",
        "EXISTS", "EXISTS_MDS", "NOT_EXISTS", "UNKNOWN",
    ),
    "covers": (
        "CoverSet", "Frame", "uniform_partition", "remainder_partition",
        "hub_frame", "paired_frame", "validate", "coverage_check",
        "deficiency_witness",
    ),
    "cores": ("CoreQuery", "Omega0", "is_core", "omega0", "lambda_cores"),
    "construct": (
        "LrcCode", "StepStats", "ExtensionState", "mds_generator",
        "pick_extension_vector", "run_extension", "construct",
    ),
    "verify": (
        "LocalityReport", "DistanceReport", "OptimalityReport",
        "StructureReport", "check_locality", "min_distance",
        "certify_optimal", "check_structure_theorem",
    ),
    "codefile": ("CodeFile", "save_code", "load_code"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})


class _Package(ModuleType):
    """The package module. ``construct`` names both a function and its
    submodule; importing the submodule assigns the module to the package
    attribute, which would shadow the function. This property keeps the
    package attribute the function in every import order."""

    @property
    def construct(self):
        from .construct import construct
        return construct

    @construct.setter
    def construct(self, _module: ModuleType) -> None:
        pass  # the submodule stays reachable in sys.modules


sys.modules[__name__].__class__ = _Package
