"""Maximum-likelihood correction of qubit tomography counts by orthogonal
projection onto the Bloch sphere under the information metric."""

from .core import (
    CountRecord,
    InvalidInputError,
    SolverError,
    StokesVector,
    WeightVector,
    norm_squared,
    stokes_vector,
    temporal_estimate,
    weight_vector,
)
from .infogeo import (
    DualCoordinates,
    FiniteDistribution,
    canonical_divergence,
    dual_coordinates,
    finite_distribution,
    fisher_metric,
    foliation_coordinates,
    foliation_orthogonality_defect,
    kl_divergence,
    product_distribution,
    randomized_distribution,
)
from .oracle import OracleConfig, empirical_kl, negative_log_likelihood, oracle_mle
from .projector import (
    ProjectionResult,
    cubic_solve,
    project_mle,
    projection_trajectory,
    solve_lambda,
)
from .simulator import SimulationSpec, simulate

__version__ = "0.1.0"

__all__ = [
    "CountRecord",
    "DualCoordinates",
    "FiniteDistribution",
    "InvalidInputError",
    "OracleConfig",
    "ProjectionResult",
    "SimulationSpec",
    "SolverError",
    "StokesVector",
    "WeightVector",
    "canonical_divergence",
    "cubic_solve",
    "dual_coordinates",
    "empirical_kl",
    "finite_distribution",
    "fisher_metric",
    "foliation_coordinates",
    "foliation_orthogonality_defect",
    "kl_divergence",
    "negative_log_likelihood",
    "norm_squared",
    "oracle_mle",
    "product_distribution",
    "project_mle",
    "projection_trajectory",
    "randomized_distribution",
    "simulate",
    "solve_lambda",
    "stokes_vector",
    "temporal_estimate",
    "weight_vector",
]
