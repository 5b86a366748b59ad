"""Vector index substrate: flat, fine-grained (graph) and coarse (block) indexes."""

from .base import SearchResult, VectorIndex, validate_query
from .builder import BuildReport, ContextIndexBuilder, IndexBuildConfig, LayerIndexes
from .coarse import BlockSummary, CoarseBlockIndex
from .flat import FlatIndex
from .graph import BeamSearchStats, NeighborGraph, beam_search
from .knn_graph import cross_knn, exact_knn
from .roargraph import RoarGraphConfig, RoarGraphIndex
from .serialization import (
    INDEX_FORMAT_VERSION,
    deserialize_context_indexes,
    load_coarse,
    load_roargraph,
    save_coarse,
    save_roargraph,
    serialize_context_indexes,
)

__all__ = [
    "BeamSearchStats",
    "BlockSummary",
    "BuildReport",
    "CoarseBlockIndex",
    "ContextIndexBuilder",
    "FlatIndex",
    "INDEX_FORMAT_VERSION",
    "IndexBuildConfig",
    "LayerIndexes",
    "NeighborGraph",
    "RoarGraphConfig",
    "RoarGraphIndex",
    "SearchResult",
    "VectorIndex",
    "beam_search",
    "cross_knn",
    "deserialize_context_indexes",
    "exact_knn",
    "load_coarse",
    "load_roargraph",
    "save_coarse",
    "save_roargraph",
    "serialize_context_indexes",
    "validate_query",
]
