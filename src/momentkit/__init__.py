"""Toolkit for truncated matrix-valued Hamburger moment problems.

From moments S_0..S_{2n} on C^d it builds the block Hankel matrix and the
finite quotient space it induces, the symmetric degree shift and its
Cayley transform, evaluates the linear-fractional transform of solutions
for constant Schur parameters, and reconstructs measures by asymptotic
fits, Stieltjes-Perron inversion, or exact spectral recovery in the
determinate case.

The package namespace holds the paper's public objects; a `Model` holds the
whole chain (moments, quotient space, shift action, Cayley data).  The stage
types (`GramSpace`, `CayleyData`, ...), the stage functions and the per-point
helpers live in their modules, with no promise that they stay as they are.
"""

from .cayley import SchurParameter, inverse_cayley, unitary_extension
from .errors import (
    ConditioningError,
    ConsistencyError,
    DomainError,
    IndeterminateError,
    MomentKitError,
    ParameterError,
    ShiftConsistencyError,
    SolvabilityError,
    ValidationError,
)
from .l2space import w0_isometry_check
from .measures import DiscreteMatrixMeasure
from .moments import (
    MomentSequence,
    SolvabilityReport,
    check_solvability,
    generate_from_measure,
)
from .nevanlinna import NevanlinnaValue, TransformEvaluator
from .pipeline import Model, build_model
from .reconstruct import (
    HerglotzReport,
    IntervalMass,
    MomentFit,
    ReconstructedDistribution,
    asymptotic_moments,
    herglotz_check,
    reconstruct_distribution,
    recover_discrete,
    stieltjes_perron,
)

__version__ = "0.1.0"

__all__ = [
    "ConditioningError",
    "ConsistencyError",
    "DiscreteMatrixMeasure",
    "DomainError",
    "HerglotzReport",
    "IndeterminateError",
    "IntervalMass",
    "Model",
    "MomentFit",
    "MomentKitError",
    "MomentSequence",
    "NevanlinnaValue",
    "ParameterError",
    "ReconstructedDistribution",
    "SchurParameter",
    "ShiftConsistencyError",
    "SolvabilityError",
    "SolvabilityReport",
    "TransformEvaluator",
    "ValidationError",
    "asymptotic_moments",
    "build_model",
    "check_solvability",
    "generate_from_measure",
    "herglotz_check",
    "inverse_cayley",
    "reconstruct_distribution",
    "recover_discrete",
    "stieltjes_perron",
    "unitary_extension",
    "w0_isometry_check",
]
