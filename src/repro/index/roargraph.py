"""RoarGraph: a projected bipartite graph index for OOD queries.

RetrievalAttention (and AlayaDB) observed that decode-time query vectors are
*out of distribution* with respect to the key vectors, so a graph built only
from key-to-key proximity navigates poorly.  RoarGraph instead starts from a
bipartite query→key kNN graph built from a sample of real query vectors and
projects it onto the key side, then enhances connectivity.

Construction stages (Section 7.2 of the paper):

1. **q→k kNN construction** — each sampled query vector is linked to its
   exact nearest key vectors (:func:`repro.index.knn_graph.cross_knn`).
2. **Bipartite projection** — keys that co-occur in a query's neighbour list
   are connected to each other, so edges reflect "keys that answer the same
   query" rather than raw key proximity.
3. **Connectivity enhancement** — a sequential backbone (token *i* ↔ *i±1*)
   plus optional key-to-key kNN edges guarantee the graph is connected and
   navigable even for keys no sampled query reached.

The build works on whole arrays.  Each stage emits a ``(src, dst)`` pair of
id arrays; every edge is taken in both directions, and one sort over
``src * n + dst`` deduplicates them and yields the CSR rows directly.  Rows
over ``max_degree`` are then robust-pruned together, in chunks of padded
rows that each take one batched Gram matrix.  The neighbour order is
canonical: a row at or under ``max_degree`` lists its neighbours by
ascending id, a pruned row keeps the order the prune chose them in (kept
candidates by descending inner product, then the fill).  The DIPR walk
expands neighbours in row order, so the order is part of what a build
produces, and two builds of the same keys give byte-identical arrays.

The per-KV-head build (GQA-based index sharing) lives in
``repro.index.builder``; this class is the single-index data structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import SearchResult, VectorIndex, validate_query
from .graph import NeighborGraph, beam_search
from .knn_graph import cross_knn, exact_knn

__all__ = ["RoarGraphConfig", "RoarGraphIndex"]

_PRUNE_GRAM_ENTRIES = 1 << 18
"""Most padded Gram entries one prune chunk computes (1 MB of float32).  Hub
rows reach 130+ candidates, so one padded batch over every over-degree row
would cost tens of MB."""


@dataclass(frozen=True)
class RoarGraphConfig:
    """Construction parameters of a RoarGraph index."""

    num_query_links: int = 8
    """How many keys each sampled query links to in the bipartite stage."""

    max_degree: int = 32
    """Maximum out-degree of a key node after projection and pruning."""

    backbone_window: int = 1
    """Each key is linked to its ``backbone_window`` sequential neighbours on
    both sides, guaranteeing connectivity over the token sequence."""

    enhancement_links: int = 8
    """Extra (bidirectional) key-to-key kNN edges per node (0 disables the
    enhancement pass)."""

    diversity_prune: bool = True
    """Apply angular-diversity pruning (robust prune) when a node exceeds
    ``max_degree``: a candidate edge is dropped when an already-kept
    neighbour is closer to the candidate than the node itself, which spreads
    edges across the cluster instead of concentrating them on a few
    high-norm hubs."""

    seed: int = 0


class RoarGraphIndex(VectorIndex):
    """Fine-grained graph index specialised for out-of-distribution queries."""

    def __init__(self, config: RoarGraphConfig | None = None):
        super().__init__()
        self.config = config or RoarGraphConfig()
        self._graph: NeighborGraph | None = None
        self._entry_point: int = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self, vectors: np.ndarray, query_sample: np.ndarray | None = None, **kwargs) -> None:
        """Build the index over key ``vectors`` using ``query_sample``.

        ``query_sample`` holds historical query vectors of the query heads
        that read this KV head (its GQA group); when omitted, the key
        vectors themselves are used, which degrades the OOD benefit but keeps
        the index functional.  The module docstring describes the array
        stages and the neighbour order they produce.
        """
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ValueError(f"expected (n, dim) key vectors, got {vectors.shape}")
        self._vectors = vectors
        n = vectors.shape[0]
        config = self.config
        if query_sample is None or len(query_sample) == 0:
            query_sample = vectors
        query_sample = np.asarray(query_sample, dtype=np.float32)

        # stage 1 + 2: bipartite q->k kNN, projected onto the key side (each
        # query's nearest key is linked to its other nearest keys)
        links = cross_knn(query_sample, vectors, min(config.num_query_links, n))
        sources = [np.repeat(links[:, 0], links.shape[1] - 1)]
        targets = [links[:, 1:].ravel()]
        # stage 3a: sequential backbone for connectivity
        for offset in range(1, config.backbone_window + 1):
            nodes = np.arange(n - offset)
            sources.append(nodes)
            targets.append(nodes + offset)
        # stage 3b: key-to-key kNN enhancement
        if config.enhancement_links > 0 and n > 1:
            knn = exact_knn(vectors, min(config.enhancement_links, n - 1))
            sources.append(np.repeat(np.arange(n), knn.shape[1]))
            targets.append(knn.ravel())

        # every edge in both directions, deduplicated and sorted by (src, dst):
        # CSR rows with ascending neighbour ids
        src, dst = np.concatenate(sources), np.concatenate(targets)
        keys = np.sort(np.concatenate([src * n + dst, dst * n + src]))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        rows, ids = np.divmod(keys, n)
        offsets = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))

        # rows over max_degree are replaced by their pruned lists; the stable
        # sort by row keeps every row's order
        over = np.diff(offsets) > config.max_degree
        pruned_nodes = np.flatnonzero(over)
        pruned = self._prune_rows(vectors, ids, offsets, pruned_nodes)
        unpruned = ~over[rows]
        rows = np.concatenate([rows[unpruned], np.repeat(pruned_nodes, config.max_degree)])
        ids = np.concatenate([ids[unpruned], pruned.ravel()])
        offsets = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        self._graph = NeighborGraph(ids[np.argsort(rows, kind="stable")], offsets)

        # the entry point is the key with the largest norm: under inner
        # product it is the most likely global maximiser and gives the search
        # a high-score start.
        norms = np.linalg.norm(vectors, axis=1)
        self._entry_point = int(np.argmax(norms))

    def _prune_rows(self, vectors: np.ndarray, ids: np.ndarray, offsets: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """The ``(len(nodes), max_degree)`` neighbours kept from the CSR rows
        of ``nodes``.

        Each node's candidates are ranked by descending inner product with
        the node (a stable sort, so ties go to the lower id).  With
        ``diversity_prune`` enabled this is the robust-prune rule used by
        NSG/DiskANN-style graphs: walk the ranked candidates and drop one when
        an already-kept neighbour is closer to it than the node itself, then
        fill up to ``max_degree`` from the dropped ones in rank order.
        Otherwise simply keep the ``max_degree`` highest-inner-product
        candidates.

        The nodes are sorted by degree and cut into chunks of at most
        ``_PRUNE_GRAM_ENTRIES`` padded Gram entries.  A chunk gathers
        ``[node, candidates...]`` per row and takes one batched Gram matrix:
        row 0 holds the scores, the rest the candidate pair products.  The
        keep/skip rule then takes one vectorized step per candidate rank.
        """
        max_degree = self.config.max_degree
        degrees = offsets[nodes + 1] - offsets[nodes]
        by_degree = np.argsort(degrees, kind="stable")
        pruned = np.empty((nodes.shape[0], max_degree), dtype=np.int64)
        start = 0
        while start < nodes.shape[0]:
            # a chunk is padded to its last (widest) row: grow it while the
            # padded Gram stays within budget
            cost = np.arange(1, nodes.shape[0] - start + 1) * (degrees[by_degree[start:]] + 1) ** 2
            stop = start + max(1, int(np.searchsorted(cost, _PRUNE_GRAM_ENTRIES, side="right")))
            chunk, start = by_degree[start:stop], stop
            node, degree = nodes[chunk], degrees[chunk]
            width = int(degree[-1])
            valid = np.arange(width) < degree[:, None]
            # padding slots repeat the node itself and score -inf
            slots = np.where(valid, offsets[node][:, None] + np.arange(width), 0)
            candidates = np.where(valid, ids[slots], node[:, None])
            gathered = vectors[np.concatenate([node[:, None], candidates], axis=1)]
            gram = gathered @ gathered.transpose(0, 2, 1)
            scores = np.where(valid, gram[:, 0, 1:], -np.inf)
            order = np.argsort(-scores, axis=1, kind="stable")
            if not self.config.diversity_prune:
                pruned[chunk] = np.take_along_axis(candidates, order[:, :max_degree], axis=1)
                continue
            # kept is indexed by candidate slot; step `rank` visits every
            # row's rank-th candidate
            ranked_scores = np.take_along_axis(scores, order, axis=1)
            batch = np.arange(chunk.shape[0])
            kept = np.zeros((chunk.shape[0], width), dtype=bool)
            num_kept = np.zeros(chunk.shape[0], dtype=np.int64)
            for rank in range(width):
                open_rows = (rank < degree) & (num_kept < max_degree)
                if not open_rows.any():
                    break
                slot = order[:, rank]
                closer = (gram[batch, slot + 1, 1:] > ranked_scores[:, rank, None]) & kept
                keep = open_rows & ~closer.any(axis=1)
                kept[batch, slot] = keep
                num_kept += keep
            # kept candidates in rank order, then the skipped ones in rank order
            ranks = np.arange(width)
            fill_key = np.where(np.take_along_axis(kept, order, axis=1), ranks, width + ranks)
            chosen = np.take_along_axis(order, np.argsort(fill_key, axis=1)[:, :max_degree], axis=1)
            pruned[chunk] = np.take_along_axis(candidates, chosen, axis=1)
        return pruned

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> NeighborGraph:
        if self._graph is None:
            self._require_built()
        return self._graph

    @property
    def entry_point(self) -> int:
        return self._entry_point

    @property
    def memory_bytes(self) -> int:
        base = super().memory_bytes
        if self._graph is not None:
            base += self._graph.memory_bytes
        return base

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search_topk(self, query: np.ndarray, k: int, ef: int | None = None, **kwargs) -> SearchResult:
        vectors = self._require_built()
        query = validate_query(query, vectors.shape[1])
        ef = max(ef or k * 4, k)
        indices, scores, stats = beam_search(vectors, self.graph, query, ef, [self._entry_point])
        result = SearchResult(indices=indices, scores=scores, num_distance_computations=stats.num_distance_computations)
        return result.top(k)

    def recall_at_k(self, queries: np.ndarray, k: int, ef: int | None = None) -> float:
        """Mean top-k recall of the graph search against brute force."""
        queries = np.asarray(queries, dtype=np.float32)
        hits = 0
        total = 0
        for query in queries:
            truth = set(self.exact_topk(query, k).indices.tolist())
            found = set(self.search_topk(query, k, ef=ef).indices.tolist())
            hits += len(truth & found)
            total += len(truth)
        return hits / max(total, 1)
