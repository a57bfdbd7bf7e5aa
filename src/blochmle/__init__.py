"""Maximum-likelihood correction of qubit tomography counts by orthogonal
projection onto the Bloch sphere under the information metric.

The public names load lazily (PEP 562): each submodule is imported the
first time one of its names is used, so ``import blochmle`` and the
``estimate`` path do not load numpy.  Nor does building a
``SimulationSpec``: the simulator loads numpy at its first ``simulate``.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> submodule that defines it
_SOURCES = {
    "CountRecord": "core",
    "InvalidInputError": "core",
    "SolverError": "core",
    "StokesVector": "core",
    "WeightVector": "core",
    "empirical_kl": "core",
    "norm_squared": "core",
    "stokes_vector": "core",
    "temporal_estimate": "core",
    "weight_vector": "core",
    "DualCoordinates": "infogeo",
    "canonical_divergence": "infogeo",
    "dual_coordinates": "infogeo",
    "finite_distribution": "infogeo",
    "fisher_metric": "infogeo",
    "kl_divergence": "infogeo",
    "product_distribution": "infogeo",
    "randomized_distribution": "infogeo",
    "oracle_mle": "oracle",
    "ProjectionResult": "projector",
    "cubic_solve": "projector",
    "project_mle": "projector",
    "projection_trajectory": "projector",
    "SimulationSpec": "simulator",
    "simulate": "simulator",
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCES})
