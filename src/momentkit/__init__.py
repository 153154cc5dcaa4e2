"""Toolkit for truncated matrix-valued Hamburger moment problems.

From moments S_0..S_{2n} on C^d it builds the block Hankel matrix and the
finite quotient space it induces, the symmetric degree shift and its
Cayley transform, evaluates the linear-fractional transform of solutions
for constant Schur parameters, and reconstructs measures by asymptotic
fits, Stieltjes-Perron inversion, or exact spectral recovery in the
determinate case.
"""

from .cayley import (
    CayleyData,
    SchurParameter,
    cayley_transform,
    inverse_cayley,
    resolvent_link_check,
    unitary_extension,
)
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
from .gramspace import (
    EmbeddingI,
    EmbeddingK,
    GramSpace,
    ShiftOperator,
    build_embeddings,
    build_shift,
    construct_space,
)
from .l2space import L2Element, mult_operator, psi_inner, w0_isometry_check
from .measures import DiscreteMatrixMeasure
from .moments import (
    BlockHankel,
    MomentSequence,
    SolvabilityReport,
    build_hankel,
    check_solvability,
    generate_from_measure,
)
from .nevanlinna import (
    BlockSet,
    NevanlinnaValue,
    TransformEvaluator,
    blocks,
    direct_oracle,
    evaluate_matrix,
    frobenius_topleft,
    transform_matrix,
)
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
    "BlockHankel",
    "BlockSet",
    "CayleyData",
    "ConditioningError",
    "ConsistencyError",
    "DiscreteMatrixMeasure",
    "DomainError",
    "EmbeddingI",
    "EmbeddingK",
    "GramSpace",
    "HerglotzReport",
    "IndeterminateError",
    "IntervalMass",
    "L2Element",
    "Model",
    "MomentFit",
    "MomentKitError",
    "MomentSequence",
    "NevanlinnaValue",
    "ParameterError",
    "ReconstructedDistribution",
    "SchurParameter",
    "ShiftConsistencyError",
    "ShiftOperator",
    "SolvabilityError",
    "SolvabilityReport",
    "TransformEvaluator",
    "ValidationError",
    "asymptotic_moments",
    "blocks",
    "build_embeddings",
    "build_hankel",
    "build_model",
    "build_shift",
    "cayley_transform",
    "check_solvability",
    "construct_space",
    "direct_oracle",
    "evaluate_matrix",
    "frobenius_topleft",
    "generate_from_measure",
    "herglotz_check",
    "inverse_cayley",
    "mult_operator",
    "psi_inner",
    "reconstruct_distribution",
    "recover_discrete",
    "resolvent_link_check",
    "stieltjes_perron",
    "transform_matrix",
    "unitary_extension",
    "w0_isometry_check",
]
