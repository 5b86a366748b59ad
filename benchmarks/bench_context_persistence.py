"""Durable context database: reload-from-disk deserialize vs rebuild.

Before this subsystem, a context coming back from the disk tier returned
index-less: its RoarGraph fine indexes were *rebuilt* from the raw keys (the
q→k kNN stage all over again) on the next sparse use.  With versioned index
serialization the reload is a deserialize — reattach the stored CSR
adjacency and vectors — and retrieval over the loaded index is bit-identical
to the index that was saved.

This harness measures what that buys on a restart:

* **populate** — a durable DB (``context_db_path``) ingests N documents
  (prefill + index build + persist);
* **restart / deserialize** — a fresh DB over the same directory recovers
  the manifest and reloads every context, indexes attached by
  deserialization;
* **restart / rebuild** — the same restart with every index blob deleted
  from the database: snapshots reload but every fine index is rebuilt from
  the keys (the pre-subsystem behavior);
* **end-to-end** — a restarted ``InferenceService`` answers a question
  against a recovered document vs. a cold service that must prefill the
  whole document.

``BENCH_SMOKE=1`` shrinks the workload for CI sanity runs.
"""

from __future__ import annotations

import time

from benchmarks.common import emit, run_once, smoke_mode, write_bench_json
from repro.analysis.reporting import format_table
from repro.core.config import AlayaDBConfig
from repro.core.db import DB
from repro.core.service import InferenceService
from repro.llm.model import ModelConfig, TransformerModel

EXPERIMENT = "Context persistence: deserialize vs rebuild"

SMOKE = smoke_mode()
DOC_REPEATS = 8 if SMOKE else 30
NUM_DOCS = 2 if SMOKE else 4
MODEL_SEED = 137


def _documents() -> list[str]:
    topics = [
        "transaction logs and crash recovery procedures",
        "vector search over long context key caches",
        "scheduler admission control and preemption",
        "index construction from projected bipartite graphs",
    ]
    return [
        f"document {i} is about {topic}. " * DOC_REPEATS
        for i, topic in enumerate(topics[:NUM_DOCS])
    ]


def _populate(model, path):
    db = DB(AlayaDBConfig(context_db_path=str(path)))
    start = time.perf_counter()
    ids = []
    for i, document in enumerate(_documents()):
        ids.append(db.prefill_and_import(model, document, context_id=f"doc-{i}").context_id)
    return db, ids, time.perf_counter() - start


def _restart_and_reload(path, ids):
    """Open a fresh DB over the directory; reload (and index) every context."""
    start = time.perf_counter()
    db = DB(AlayaDBConfig(context_db_path=str(path)))
    for context_id in ids:
        db.store_registry.ensure_resident(context_id)
    while db.build_pending():  # drain any queued fine rebuilds
        pass
    elapsed = time.perf_counter() - start
    assert all(db.get_context(cid).has_fine_indexes for cid in ids)
    return db, elapsed


def _service_config(path) -> AlayaDBConfig:
    return AlayaDBConfig(
        window_initial_tokens=8,
        window_last_tokens=16,
        short_context_threshold=64,
        gpu_memory_budget_bytes=1,
        max_retrieved_tokens=64,
        context_db_path=str(path),
    )


def _end_to_end(path, documents):
    """Restarted service (recovered contexts) vs cold service (full prefill)."""
    question = documents[0] + " what is this document about?"

    warm_model = TransformerModel(ModelConfig.tiny(seed=MODEL_SEED))
    warm = InferenceService(warm_model, _service_config(path))
    _, warm_record = warm.serve(question, max_new_tokens=4)

    cold_model = TransformerModel(ModelConfig.tiny(seed=MODEL_SEED))
    cold = InferenceService(cold_model, _service_config(path.parent / "empty"))
    _, cold_record = cold.serve(question, max_new_tokens=4)
    return warm, warm_record, cold_record


def _sweep(tmp_path):
    model = TransformerModel(ModelConfig.tiny(seed=MODEL_SEED))
    durable_dir = tmp_path / "durable"
    rebuild_dir = tmp_path / "rebuild"

    _, ids, populate_seconds = _populate(model, durable_dir)
    rebuild_source, _, _ = _populate(model, rebuild_dir)
    for context_id in ids:
        # a missing blob is the rebuild path's trigger
        rebuild_source.store_registry.backend.delete(f"{context_id}.indexes.npz")

    deser_db, deserialize_seconds = _restart_and_reload(durable_dir, ids)
    rebuild_db, rebuild_seconds = _restart_and_reload(rebuild_dir, ids)
    assert deser_db.store_registry.reload_deserialized_count == len(ids)
    assert rebuild_db.store_registry.reload_rebuilt_count == len(ids)

    warm_service, warm_record, cold_record = _end_to_end(durable_dir, _documents())
    return {
        "ids": ids,
        "populate_seconds": populate_seconds,
        "deserialize_seconds": deserialize_seconds,
        "rebuild_seconds": rebuild_seconds,
        "disk_kv_bytes": deser_db.store_registry.disk_kv_bytes,
        "disk_index_bytes": deser_db.store_registry.disk_index_bytes,
        "manifest_generation": deser_db.store_registry.manifest_generation,
        "warm_record": warm_record,
        "cold_record": cold_record,
        "warm_report": warm_service.memory_report(),
    }


def test_context_persistence(benchmark, tmp_path):
    out = run_once(benchmark, _sweep, tmp_path)

    speedup = out["rebuild_seconds"] / max(out["deserialize_seconds"], 1e-9)
    warm, cold = out["warm_record"], out["cold_record"]
    prefill_speedup = cold.prefill_compute_seconds / max(warm.prefill_compute_seconds, 1e-9)

    rows = [
        ["populate (prefill+index+persist)", f"{out['populate_seconds'] * 1000:.1f} ms", ""],
        ["restart reload: deserialize", f"{out['deserialize_seconds'] * 1000:.1f} ms", ""],
        ["restart reload: rebuild", f"{out['rebuild_seconds'] * 1000:.1f} ms", f"{speedup:.2f}x slower"],
        ["restart prefill (reused)", f"{warm.prefill_compute_seconds * 1000:.1f} ms", f"{warm.reused_tokens} tokens reused"],
        ["cold prefill (no database)", f"{cold.prefill_compute_seconds * 1000:.1f} ms", f"{prefill_speedup:.2f}x slower"],
        ["disk tier", f"{out['disk_kv_bytes']} B kv", f"{out['disk_index_bytes']} B index"],
    ]
    text = format_table(["phase", "time", "notes"], rows)
    emit(EXPERIMENT, text)

    write_bench_json(
        "context_persistence",
        metrics={
            "populate_seconds": out["populate_seconds"],
            "reload_deserialize_seconds": out["deserialize_seconds"],
            "reload_rebuild_seconds": out["rebuild_seconds"],
            "deserialize_speedup_vs_rebuild": speedup,
            "restart_prefill_seconds": warm.prefill_compute_seconds,
            "cold_prefill_seconds": cold.prefill_compute_seconds,
            "restart_reused_tokens": warm.reused_tokens,
            "disk_kv_bytes": out["disk_kv_bytes"],
            "disk_index_bytes": out["disk_index_bytes"],
        },
        config={
            "num_docs": NUM_DOCS,
            "doc_repeats": DOC_REPEATS,
            "model_seed": MODEL_SEED,
            "smoke": SMOKE,
        },
    )

    # correctness gates (speed is reported, not asserted, in smoke mode)
    assert warm.reused_tokens > 0, "restarted service failed to reuse the recovered context"
    assert cold.reused_tokens == 0
    assert out["warm_report"]["context_reloads_deserialized"] >= 1
    if not SMOKE:
        assert speedup > 1.0, (
            f"deserializing indexes should beat rebuilding them, got {speedup:.2f}x"
        )
