"""Exact multi-sender index coding over GF(2): solver, bounds, codecs."""

from __future__ import annotations

__version__ = "0.1.0"

from .instance import (
    Instance,
    InstanceFormatError,
    InstanceValidationError,
    GenerationError,
    derive_stats,
    generate_embedded,
    generate_random,
    parse_instance,
    serialize_instance,
)
from .hypergraph import (
    CompositeAdjacency,
    HyperEdge,
    SideInfoHypergraph,
    SubChoice,
    adjacency,
    build,
    complement,
    fits,
    sub_adjacency,
)
from .solver import (
    ComplexityProfile,
    SearchCapConfigError,
    SearchCapError,
    SolveReport,
    complexity_exponents,
    hyperminrank,
    minrank_single,
    search_space_size,
)
from .codec import (
    CodeSupportError,
    LinearCode,
    UndecodableCodeError,
    code_from_fitting,
    code_to_fitting,
    load_code,
    serialize_code,
    verify_code,
)
from .bounds import (
    CliqueCover,
    ImplementableClique,
    clique_cover_upper,
    complement_clique_lower,
    enumerate_implementable_cliques,
)
from .oracle import OracleReport, optimal_linear_code_bruteforce

__all__ = [
    "__version__",
    "Instance",
    "InstanceFormatError",
    "InstanceValidationError",
    "GenerationError",
    "derive_stats",
    "generate_embedded",
    "generate_random",
    "parse_instance",
    "serialize_instance",
    "CompositeAdjacency",
    "HyperEdge",
    "SideInfoHypergraph",
    "SubChoice",
    "adjacency",
    "build",
    "complement",
    "fits",
    "sub_adjacency",
    "ComplexityProfile",
    "SearchCapError",
    "SearchCapConfigError",
    "SolveReport",
    "complexity_exponents",
    "hyperminrank",
    "minrank_single",
    "search_space_size",
    "CodeSupportError",
    "LinearCode",
    "UndecodableCodeError",
    "code_from_fitting",
    "code_to_fitting",
    "load_code",
    "serialize_code",
    "verify_code",
    "CliqueCover",
    "ImplementableClique",
    "clique_cover_upper",
    "complement_clique_lower",
    "enumerate_implementable_cliques",
    "OracleReport",
    "optimal_linear_code_bruteforce",
]
