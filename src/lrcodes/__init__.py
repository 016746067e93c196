"""Optimal locally repairable codes: classify, construct, verify.

The package decides for which parameters (n, k, r, delta) an optimal
code with all-symbol (r, delta) locality exists, builds one
deterministically when a construction is known, and independently
re-checks locality and minimum distance of any generator matrix.
"""

from __future__ import annotations

from .errors import (
    BoundNonPositive,
    BoundTooLarge,
    BudgetExceeded,
    CodeFileError,
    CompositeCharacteristic,
    CoverIncomplete,
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    FieldTooSmall,
    IndexOutOfRange,
    LrcError,
    NoValidVector,
    NotConstructible,
    NotDivisible,
    PreconditionViolated,
    RankDeficient,
    ReduciblePolynomial,
    StructureMismatch,
    TooFewGroups,
    UnknownCase,
    UnsupportedExtension,
)
from .gf import FieldSpec, field_at_least, field_make, is_prime
from .linalg import ColumnSet, Matrix, in_span, rank
from .params import (
    EXISTS,
    EXISTS_MDS,
    NOT_EXISTS,
    UNKNOWN,
    Classification,
    CodeParams,
    ParamDecomposition,
    classify,
    decompose,
    distance_bound,
    field_bound,
    necessary_check,
)
from .covers import (
    CoverSet,
    Frame,
    coverage_check,
    deficiency_witness,
    hub_frame,
    paired_frame,
    remainder_partition,
    uniform_partition,
    validate,
)
from .cores import CoreQuery, Omega0, is_core, lambda_cores, omega0
from .construct import (
    ExtensionState,
    LrcCode,
    StepStats,
    construct,
    mds_generator,
    pick_extension_vector,
    run_extension,
)
from .verify import (
    DistanceReport,
    LocalityReport,
    OptimalityReport,
    StructureReport,
    certify_optimal,
    check_locality,
    check_mds,
    check_structure_theorem,
    min_distance,
)
from .codefile import CodeFile, load_code, save_code

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LrcError",
    "CompositeCharacteristic",
    "ReduciblePolynomial",
    "UnsupportedExtension",
    "DivisionByZero",
    "FieldMismatch",
    "BoundTooLarge",
    "IndexOutOfRange",
    "DimensionMismatch",
    "BudgetExceeded",
    "BoundNonPositive",
    "NotDivisible",
    "PreconditionViolated",
    "TooFewGroups",
    "CoverIncomplete",
    "FieldTooSmall",
    "NoValidVector",
    "NotConstructible",
    "UnknownCase",
    "StructureMismatch",
    "RankDeficient",
    "CodeFileError",
    # fields
    "FieldSpec",
    "field_make",
    "field_at_least",
    "is_prime",
    # linear algebra
    "Matrix",
    "ColumnSet",
    "rank",
    "in_span",
    # parameters
    "CodeParams",
    "ParamDecomposition",
    "Classification",
    "classify",
    "decompose",
    "distance_bound",
    "field_bound",
    "necessary_check",
    "EXISTS",
    "EXISTS_MDS",
    "NOT_EXISTS",
    "UNKNOWN",
    # covers and frames
    "CoverSet",
    "Frame",
    "uniform_partition",
    "remainder_partition",
    "hub_frame",
    "paired_frame",
    "validate",
    "coverage_check",
    "deficiency_witness",
    # cores
    "CoreQuery",
    "Omega0",
    "is_core",
    "omega0",
    "lambda_cores",
    # construction
    "LrcCode",
    "StepStats",
    "ExtensionState",
    "mds_generator",
    "pick_extension_vector",
    "run_extension",
    "construct",
    # verification
    "LocalityReport",
    "DistanceReport",
    "OptimalityReport",
    "StructureReport",
    "check_locality",
    "min_distance",
    "certify_optimal",
    "check_structure_theorem",
    "check_mds",
    # persistence
    "CodeFile",
    "save_code",
    "load_code",
]
