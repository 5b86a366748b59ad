"""Common interfaces for vector indexes.

All AlayaDB indexes operate on *key vectors* under the **inner-product**
similarity (a larger ``q · k`` means a more important token, because it is the
pre-softmax attention logit).  Three index families exist, matching Table 4 of
the paper:

* flat — a scan over all keys (`repro.index.flat`),
* fine-grained — graph indexes over individual keys (`roargraph`),
* coarse-grained — block indexes over groups of adjacent tokens (`coarse`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError, IndexNotBuiltError

__all__ = ["SearchResult", "VectorIndex", "validate_query"]


@dataclass
class SearchResult:
    """Result of a similarity search.

    ``indices`` are token positions (row ids into the indexed key matrix),
    ``scores`` the corresponding inner products, both sorted by descending
    score.  ``num_distance_computations`` counts how many inner products the
    search evaluated — the work metric used in latency modelling.
    """

    indices: np.ndarray
    scores: np.ndarray
    num_distance_computations: int = 0

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    def top(self, k: int) -> "SearchResult":
        """Restrict the result to its best ``k`` entries."""
        return SearchResult(
            indices=self.indices[:k].copy(),
            scores=self.scores[:k].copy(),
            num_distance_computations=self.num_distance_computations,
        )


def validate_query(query: np.ndarray, dim: int) -> np.ndarray:
    """Check a query vector shape and return it as float32."""
    query = np.asarray(query, dtype=np.float32)
    if query.ndim != 1 or query.shape[0] != dim:
        raise DimensionMismatchError(f"expected query of shape ({dim},), got {query.shape}")
    return query


class VectorIndex(abc.ABC):
    """Abstract base class of all vector indexes."""

    def __init__(self) -> None:
        self._vectors: np.ndarray | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def build(self, vectors: np.ndarray, **kwargs) -> None:
        """Build the index over ``vectors`` of shape ``(n, dim)``."""

    @property
    def is_built(self) -> bool:
        return self._vectors is not None

    def _require_built(self) -> np.ndarray:
        if self._vectors is None:
            raise IndexNotBuiltError(f"{type(self).__name__} has not been built")
        return self._vectors

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------
    @property
    def vectors(self) -> np.ndarray:
        """The indexed key vectors, shape ``(n, dim)``."""
        return self._require_built()

    @property
    def num_vectors(self) -> int:
        return 0 if self._vectors is None else int(self._vectors.shape[0])

    @property
    def dim(self) -> int:
        return 0 if self._vectors is None else int(self._vectors.shape[1])

    @property
    def memory_bytes(self) -> int:
        """Approximate memory footprint of the index structure + vectors."""
        return 0 if self._vectors is None else int(self._vectors.nbytes)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def search_topk(self, query: np.ndarray, k: int, **kwargs) -> SearchResult:
        """Return the ``k`` keys with the largest inner product to ``query``."""

    def exact_topk(self, query: np.ndarray, k: int) -> SearchResult:
        """Brute-force reference top-k, used for recall measurements."""
        vectors = self._require_built()
        query = validate_query(query, vectors.shape[1])
        scores = vectors @ query
        k = min(k, scores.shape[0])
        order = np.argpartition(-scores, k - 1)[:k]
        order = order[np.argsort(-scores[order])]
        return SearchResult(
            indices=order.astype(np.int64),
            scores=scores[order].astype(np.float32),
            num_distance_computations=int(scores.shape[0]),
        )
