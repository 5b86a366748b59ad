"""Query types of the AlayaDB query processing engine.

Three query types retrieve critical tokens from the indexed KV cache
(Section 6 of the paper):

* **Top-k** — the traditional fixed-size query used by prior sparse-attention
  systems (RetrievalAttention, InfLLM, Quest, ...).
* **DIPR** — the Dynamic Inner-Product Range query: return every key whose
  inner product with the query is within ``beta`` of the maximum.  The number
  of returned tokens adapts per head and per task.
* **Filter** — either of the above restricted by an attribute predicate on
  the token position (used for partial-prefix context reuse).

``beta_from_alpha`` implements Theorem 1: the attention-score threshold
``a_ij >= alpha * max(a_is)`` is equivalent to the inner-product threshold
``q·k_j >= max(q·k_s) - beta`` with ``beta = -sqrt(d) * ln(alpha)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "QueryKind",
    "IndexKind",
    "TopKQuery",
    "DIPRQuery",
    "FilterPredicate",
    "beta_from_alpha",
    "alpha_from_beta",
]


class QueryKind:
    """String constants naming the query types."""

    TOP_K = "topk"
    DIPR = "dipr"
    FULL = "full"


class IndexKind:
    """String constants naming the index types (Table 4)."""

    COARSE = "coarse"
    FINE = "fine"
    FLAT = "flat"


def beta_from_alpha(alpha: float, head_dim: int) -> float:
    """Convert an attention-score proportion threshold to a DIPR ``beta``.

    ``alpha`` is the proportion of the maximum attention score below which a
    token stops being critical (Definition 1); ``beta`` is the corresponding
    inner-product slack (Definition 2, Theorem 1).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return -math.sqrt(head_dim) * math.log(alpha)


def alpha_from_beta(beta: float, head_dim: int) -> float:
    """Inverse of :func:`beta_from_alpha`."""
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    return math.exp(-beta / math.sqrt(head_dim))


@dataclass(frozen=True)
class TopKQuery:
    """Retrieve a fixed number of critical tokens."""

    k: int

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")

    @property
    def kind(self) -> str:
        return QueryKind.TOP_K


@dataclass(frozen=True)
class DIPRQuery:
    """Retrieve a dynamic number of critical tokens within ``beta`` of the max."""

    beta: float
    capacity_threshold: int = 32
    max_tokens: int | None = None

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if self.capacity_threshold <= 0:
            raise ValueError(f"capacity_threshold must be positive, got {self.capacity_threshold}")
        if self.max_tokens is not None and self.max_tokens <= 0:
            raise ValueError(f"max_tokens must be positive when set, got {self.max_tokens}")

    @property
    def kind(self) -> str:
        return QueryKind.DIPR

    @classmethod
    def from_alpha(cls, alpha: float, head_dim: int, **kwargs) -> "DIPRQuery":
        """Build a DIPR query from an attention-proportion threshold."""
        return cls(beta=beta_from_alpha(alpha, head_dim), **kwargs)


@dataclass(frozen=True)
class FilterPredicate:
    """An attribute predicate over the token position.

    Partial-prefix reuse restricts the search to tokens whose position is
    below ``max_position`` (the length of the reused prefix).
    """

    max_position: int

    def __post_init__(self) -> None:
        if self.max_position <= 0:
            raise ValueError(f"max_position must be positive, got {self.max_position}")
