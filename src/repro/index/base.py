"""Common interfaces for vector indexes.

All AlayaDB indexes operate on *key vectors* under the **inner-product**
similarity (a larger ``q · k`` means a more important token, because it is the
pre-softmax attention logit).  Three index families exist, matching Table 4 of
the paper:

* flat — a scan over all keys (`repro.index.flat`),
* fine-grained — graph indexes over individual keys (`roargraph`),
* coarse-grained — block indexes over groups of adjacent tokens (`coarse`).

Every search is batched: the executor (:class:`repro.core.planner.PlanExecutor`)
hands each index the ``(g, d)`` query heads that read it, and one query is a
batch of one.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..errors import IndexNotBuiltError

__all__ = ["SearchResult", "VectorIndex"]


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


class VectorIndex(abc.ABC):
    """An index over key vectors: what the three families share is holding them."""

    def __init__(self) -> None:
        self._vectors: np.ndarray | None = None

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

    @property
    def vectors(self) -> np.ndarray:
        """The indexed key vectors, shape ``(n, dim)``."""
        return self._require_built()

    @property
    def memory_bytes(self) -> int:
        """Approximate memory footprint of the index structure + vectors."""
        return 0 if self._vectors is None else int(self._vectors.nbytes)
