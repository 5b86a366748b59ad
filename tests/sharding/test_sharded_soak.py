"""Sharded-serving soak: a seeded schedule of requests, rebalances and spills.

Drives the router/worker harness through the operations a rebalancing
deployment would see — requests against two sharded contexts (submitted to
the router's front service like any other request), shard reassignment to a
cold spare worker, forced spills on shard owners, manifest refreshes — and
checks after every operation that generation still produces exactly the
token stream an unsharded :class:`InferenceService` produces for the same
prompt, and at the end that:

* every shard has exactly one owner, and the owner holds it resident;
* admission reservations sum to zero;
* the per-shard memory map accounts every shard of every context.

Marked ``slow`` + ``sharded``: the CI sharded job runs it alongside the
equivalence grid; tier-1 skips it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.llm.model import ModelConfig, TransformerModel
from repro.server import check_drained
from repro.sharding import ShardedContextRouter, WorkerGroup

pytestmark = [pytest.mark.slow, pytest.mark.sharded]

NUM_ROUNDS = 24

DOCS = {
    "ctx-a": "the quick brown fox jumps over the lazy dog. " * 10,
    "ctx-b": "pack my box with five dozen liquor jugs again. " * 8,
}
SUFFIXES = ["what did the fox do?", "who packed the box?", " and then it happened:"]


def _config() -> AlayaDBConfig:
    return AlayaDBConfig(
        short_context_threshold=128,
        coarse_block_size=32,
        coarse_num_blocks=4,
        window_initial_tokens=8,
        window_last_tokens=24,
        prefill_chunk_tokens=64,
        gpu_memory_budget_bytes=1024,  # force the DIPR (flat + fine) path
    )


def _model() -> TransformerModel:
    return TransformerModel(
        ModelConfig(dim=32, num_layers=2, num_query_heads=4, num_kv_heads=2, hidden_dim=64, seed=7)
    )


def test_sharded_soak():
    model = _model()
    group = WorkerGroup(model, config=_config(), num_workers=3)
    router = ShardedContextRouter(model, group=group)
    refs = {
        cid: router.ingest(doc, context_id=cid, num_shards=4) for cid, doc in DOCS.items()
    }

    baseline_model = _model()
    baseline = InferenceService(baseline_model, _config())
    for cid, doc in DOCS.items():
        baseline.db.prefill_and_import(baseline_model, doc, context_id=cid)

    rng = np.random.default_rng(1234)
    served = 0
    for round_id in range(NUM_ROUNDS):
        cid = rng.choice(list(DOCS))
        ref = refs[cid]
        action = rng.integers(0, 4)
        if action == 0:
            shard_id = int(rng.integers(0, ref.num_shards))
            worker_id = int(rng.integers(0, group.num_workers))
            router.reassign_shard(cid, shard_id, worker_id=worker_id)
        elif action == 1:
            shard_id = int(rng.integers(0, ref.num_shards))
            owner = router.shard_owner(cid, shard_id)
            owner.db.store_registry.spill(ref.shard_id_of(shard_id))
        elif action == 2:
            group.refresh()

        prompt = DOCS[cid] + SUFFIXES[int(rng.integers(0, len(SUFFIXES)))]
        expected, _ = baseline.serve(prompt, max_new_tokens=5)
        result, record = router.service.submit(prompt, max_new_tokens=5).result()
        assert record.reused_tokens == ref.num_tokens
        assert result.generated_tokens == expected.generated_tokens, (
            f"round {round_id}: sharded tokens diverged for {cid}"
        )
        served += 1

    assert served == NUM_ROUNDS
    assert router.service.scheduler.admission.committed_bytes == 0
    check_drained(router.service)

    report = router.memory_report()
    shards = report["shards"]
    expected_shards = {
        ref.shard_id_of(i) for ref in refs.values() for i in range(ref.num_shards)
    }
    assert set(shards) == expected_shards
    for shard_cid, row in shards.items():
        assert row["owner"] is not None, f"{shard_cid} lost its owner"
        owner = next(w for w in group.workers if w.name == row["owner"])
        assert shard_cid in owner.owned
        assert owner.db.store_registry.get(shard_cid).is_resident
        assert row["owner"] in row["resident_on"]
