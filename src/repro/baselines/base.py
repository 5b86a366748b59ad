"""Common machinery of the compared sparse-attention methods.

Every method in the paper's evaluation (Table 5, Figure 9) reduces to a
*selection strategy*: given the decode query vector of one head, choose which
cached token positions participate in attention.  ``SelectionStrategy``
captures that; :func:`~repro.workloads.evaluation.evaluate_strategy` scores
any strategy against exact attention over the same stored context.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..core.context_store import StoredContext

__all__ = ["SelectionOutcome", "SelectionStrategy"]


@dataclass
class SelectionOutcome:
    """Positions one strategy selected for one head, plus its search work."""

    positions: np.ndarray
    num_distance_computations: int = 0

    @property
    def num_selected(self) -> int:
        return int(self.positions.shape[0])


class SelectionStrategy(abc.ABC):
    """A sparse-attention method, reduced to its token-selection rule."""

    name: str = "strategy"

    @abc.abstractmethod
    def prepare(self, context: StoredContext, num_query_heads: int) -> None:
        """Build whatever per-context state the method needs (indexes, blocks)."""

    @abc.abstractmethod
    def select(self, layer: int, query_head: int, query: np.ndarray, context_length: int) -> SelectionOutcome:
        """Choose the stored-context positions this head attends to."""

    @abc.abstractmethod
    def resident_positions(self, context_length: int) -> np.ndarray:
        """Positions permanently resident in GPU memory (window / blocks)."""

    @abc.abstractmethod
    def gpu_token_equivalent(self, context_length: int) -> int:
        """How many tokens' worth of KV the method keeps on the GPU.

        Used for the quality-vs-memory trade-off of Figure 9: GPU bytes =
        tokens × kv-bytes-per-token (plus model weights, added by the bench).
        """

    def describe(self) -> str:
        return self.name
