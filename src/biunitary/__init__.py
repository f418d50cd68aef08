"""Bi-unitary connections on graph squares and their projector operators.

The library builds connections on squares of bipartite multigraphs, checks
unitarity and bi-unitarity, decomposes products of connections into
irreducible classes with dimensions and fusion rules, assembles the matrix
product operators the classes define on loop and string spaces, and solves
the flatness equations whose solution space the projector operator's rank
reproduces.
"""

__version__ = "0.1.0"

from .bases import Field, LoopBasis, StringBasis, path_vertices
from .bratteli import (
    Bratteli2,
    StringElement2,
    conditional_expectation,
    embed_level_one,
    normalized_weights,
)
from .connection import (
    BiunitarityReport,
    Cell,
    Connection,
    ConnectionError,
    SquareReport,
    UnitarityReport,
    build_cyclic_group,
    build_dynkin,
    build_identity,
    build_trivial,
    check_biunitarity,
    check_unitarity,
    connection_from_document,
    connection_to_document,
    read_connection,
    renormalize,
    validate_square,
    vertical_product,
    write_connection,
)
from .decomp import (
    DecompositionError,
    DepthExceededError,
    FusionData,
    SectorStatistics,
    compress,
    discover_irreducibles,
    end_minimal_projections,
    hom_space,
    sector_statistics,
)
from .graphs import (
    GraphError,
    LayeredGraph,
    count_paths,
    perron_frobenius,
)
from .ladders import Ladder, LadderEngine, PathSet
from .mpo import (
    MPOOperator,
    mpo_O,
    operator_rank,
    pmpo_P,
    projector_trace,
)
from .strings import (
    FlatFieldResult,
    TraceData,
    flat_fields,
    jones_projection,
    jones_span_dimension,
)

__all__ = [name for name in dir() if not name.startswith("_")]
