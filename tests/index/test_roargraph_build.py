"""The array RoarGraph build against the scalar oracle ``tests.reference_roargraph``.

Equality is exact on every node: the oracle reads its pair products from the same per-node Gram
expression the build batches (see the oracle's docstring), so ties — duplicated keys, a kept
neighbour identical to its node — resolve the same way on both sides.  Also pinned here: the
canonical row order, deterministic bytes, and that a graph persisted with the earlier
set-ordered rows still loads and searches bit-identically."""

from __future__ import annotations

import numpy as np
import pytest

from repro.index import roargraph
from repro.index.graph import NeighborGraph
from repro.index.roargraph import RoarGraphConfig, RoarGraphIndex
from repro.index.serialization import deserialize_context_indexes, serialize_context_indexes
from repro.query.dipr import diprs_search
from tests.reference_roargraph import reference_roargraph

VARIANTS = {
    "default": {},
    "no-enhancement": {"enhancement_links": 0},
    "backbone-2": {"backbone_window": 2},
    "no-query-sample": {},
    "duplicated-keys": {},
}


def _keys(n, dim=16, seed=0, duplicated=False):
    keys = np.random.default_rng(seed).normal(size=(n, dim)).astype(np.float32)
    if duplicated:
        # every key appears twice (the odd one out once), in a shuffled order
        keys = keys[np.random.default_rng(seed + 1).permutation(np.arange(n) // 2)]
    return keys


def _queries(n, dim=16, seed=0):
    # the OOD query sample: shifted and rescaled against the keys
    rng = np.random.default_rng(seed + 100)
    return (rng.normal(size=(max(1, int(0.4 * n)), dim)) * 1.5 + 0.5).astype(np.float32)


def _build(keys, config, query_sample):
    index = RoarGraphIndex(config)
    index.build(keys, query_sample=query_sample)
    return index


def _assert_matches_oracle(keys, config, query_sample):
    index = _build(keys, config, query_sample)
    expected = reference_roargraph(keys, config, query_sample)
    got = index.graph.to_lists()
    mismatched = [node for node, (a, b) in enumerate(zip(got, expected)) if [int(x) for x in a] != b]
    assert len(got) == len(expected) and not mismatched, f"{len(mismatched)} nodes differ, first {mismatched[:5]}"
    return index


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("diversity_prune", [True, False], ids=["robust", "top"])
@pytest.mark.parametrize("max_degree", [8, 32])
@pytest.mark.parametrize("n", [1, 2, 3, 40, 400, 1600])
def test_build_equals_oracle(n, max_degree, diversity_prune, variant):
    config = RoarGraphConfig(max_degree=max_degree, diversity_prune=diversity_prune, **VARIANTS[variant])
    keys = _keys(n, seed=n + max_degree, duplicated=variant == "duplicated-keys")
    query_sample = None if variant == "no-query-sample" else _queries(n, seed=n)
    _assert_matches_oracle(keys, config, query_sample)


@pytest.mark.parametrize("budget", [1, 300, 5000])
def test_prune_chunking_does_not_change_the_graph(monkeypatch, budget):
    """Down to one row per chunk, and with rows of several degrees padded together."""
    keys = _keys(400, seed=3, duplicated=True)
    config = RoarGraphConfig(max_degree=8, backbone_window=2)
    unchunked = _build(keys, config, _queries(400))
    monkeypatch.setattr(roargraph, "_PRUNE_GRAM_ENTRIES", budget)
    chunked = _assert_matches_oracle(keys, config, _queries(400))
    np.testing.assert_array_equal(chunked.graph.neighbor_ids, unchunked.graph.neighbor_ids)
    np.testing.assert_array_equal(chunked.graph.offsets, unchunked.graph.offsets)


def test_exact_tie_with_the_node_keeps_every_candidate():
    """Node 0's best candidate is its twin, so every later candidate's product with the kept twin
    equals its score exactly: ``>`` is false and nothing is dropped for diversity."""
    rng = np.random.default_rng(5)
    node = rng.normal(size=8).astype(np.float32)
    node *= 10 / np.linalg.norm(node)
    keys = np.vstack([node, node, rng.normal(size=(12, 8)).astype(np.float32)])
    config = RoarGraphConfig(num_query_links=1, max_degree=4, backbone_window=0, enhancement_links=13)
    index = _assert_matches_oracle(keys, config, None)
    others = 2 + np.argsort(-(keys[2:].astype(np.float64) @ node))
    assert index.graph.neighbors(0).tolist() == [1, *others[:3].tolist()]


def test_row_order_is_canonical():
    keys = _keys(400, seed=9)
    config = RoarGraphConfig(max_degree=16)
    index = _build(keys, config, _queries(400))
    graph = index.graph
    pruned = 0
    for node in range(graph.num_nodes):
        row = graph.neighbors(node)
        assert node not in row and len(set(row.tolist())) == len(row)
        if len(row) < config.max_degree:
            assert (np.diff(row) > 0).all()
        pruned += len(row) == config.max_degree
    assert pruned > 0


def test_two_builds_give_byte_identical_csr():
    keys, queries = _keys(1600, seed=4), _queries(1600, seed=4)
    first = _build(keys, RoarGraphConfig(), queries).graph
    second = _build(keys.copy(), RoarGraphConfig(), queries.copy()).graph
    assert first.neighbor_ids.dtype == np.int32 and first.offsets.dtype == np.int64
    assert first.neighbor_ids.tobytes() == second.neighbor_ids.tobytes()
    assert first.offsets.tobytes() == second.offsets.tobytes()


def test_set_ordered_graph_still_loads_and_searches_bit_identically():
    """Graphs persisted before the canonical order list each row in Python ``set`` iteration order;
    a blob holding one deserializes to the same arrays and walks exactly as the saved index."""
    keys, queries = _keys(600, dim=8, seed=6), _queries(600, dim=8, seed=6)
    index = _build(keys, RoarGraphConfig(max_degree=16), queries)
    set_ordered = [list(set(row)) for row in index.graph.to_lists()]
    assert set_ordered != index.graph.to_lists()
    index._graph = NeighborGraph.from_lists(set_ordered)
    fine, _ = deserialize_context_indexes(serialize_context_indexes({0: [index]}, {}), {0: keys[None]})
    loaded = fine[0][0]
    assert loaded.graph.to_lists() == set_ordered
    np.testing.assert_array_equal(loaded.graph.neighbor_ids, index.graph.neighbor_ids)
    assert loaded.entry_point == index.entry_point
    for query in _queries(600, dim=8, seed=7)[:8]:
        a, b = index.search_topk(query, k=10), loaded.search_topk(query, k=10)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.scores, b.scores)
        walks = [
            diprs_search(built.vectors, built.graph, query, 2.0, [built.entry_point]) for built in (index, loaded)
        ]
        (ra, sa), (rb, sb) = walks
        np.testing.assert_array_equal(ra.indices, rb.indices)
        np.testing.assert_array_equal(ra.scores, rb.scores)
        assert sa == sb


@pytest.mark.slow
def test_build_equals_oracle_at_figure_11_size():
    """n = 8192, the largest context Figure 11 builds, at the default config."""
    n = 8192
    keys = _keys(n, dim=32, seed=11)
    _assert_matches_oracle(keys, RoarGraphConfig(), _queries(n, dim=32, seed=11))
