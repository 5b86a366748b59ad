"""Vector index substrate: flat, fine-grained (graph) and coarse (block) indexes."""

from .base import SearchResult, VectorIndex
from .builder import BuildReport, ContextIndexBuilder, IndexBuildConfig
from .coarse import CoarseBlockIndex
from .flat import FlatIndex
from .graph import NeighborGraph
from .knn_graph import cross_knn, exact_knn
from .roargraph import RoarGraphConfig, RoarGraphIndex
from .serialization import (
    INDEX_FORMAT_VERSION,
    deserialize_context_indexes,
    serialize_context_indexes,
)

__all__ = [
    "BuildReport",
    "CoarseBlockIndex",
    "ContextIndexBuilder",
    "FlatIndex",
    "INDEX_FORMAT_VERSION",
    "IndexBuildConfig",
    "NeighborGraph",
    "RoarGraphConfig",
    "RoarGraphIndex",
    "SearchResult",
    "VectorIndex",
    "cross_knn",
    "deserialize_context_indexes",
    "exact_knn",
    "serialize_context_indexes",
]
