"""Continuous-time quantum walks on the graphs of association schemes."""

from .catalog import CatalogEntry, catalog, catalog_names
from .errors import SchemeWalkError
from .groups import (
    CharacterTable,
    character_table,
    character_table_cyclic,
    character_table_dihedral,
    character_table_symmetric,
    class_size_symmetric,
    intersection_numbers_group,
    transposition_eigenvalue,
    walk_scheme,
)
from .oracle import (
    DistancePartition,
    VertexGraph,
    bfs_strata,
    build_graph,
    check_stratum_uniformity,
    exact_walk,
    quantum_decomposition,
)
from .schemes import (
    FromCatalog,
    FromGroup,
    FromIntersectionArray,
    FromSRG,
    GroupDescriptor,
    IntersectionArray,
    ProductScheme,
    SchemeEigenstructure,
    SchemeSpec,
    ValencyVector,
    derive_stratum_sizes,
    eigenstructure_from_array,
    validate_intersection_array,
)
from .spectral import (
    DiscreteDistribution,
    JacobiCoefficients,
    continuous_line_distribution,
    evaluate_polynomials,
    golub_welsch,
    jacobi_from_intersection,
    meixner_distribution,
    srg_distribution,
)
from .walk import (
    AmplitudeSeries,
    AverageProbabilities,
    SchemeSpectrum,
    WalkRequest,
    average_probabilities,
    dispatch,
    eigen_spectrum,
    intersection_array,
    jacobi_spectrum,
    johnson_limit_amplitudes,
    line_walk,
    resolve,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
