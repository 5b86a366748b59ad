"""Randomized serving-stack soak: drive every lifecycle path, drain clean.

A seeded schedule of ~200 submit / step / stream / cancel / chat-turn /
burst operations runs against a fully-featured service configuration (SLO
policy with preemption, a global admission budget small enough to defer and
reject, a context-store byte budget small enough to spill, lazy fine-index
builds drained between steps).  The point is not any single behaviour but
the *drain-time invariants* — after everything submitted has finished,
failed, or been cancelled:

* the scheduler has no work and no request is left in a non-terminal state;
* admission reservations sum to zero (nothing leaked a reservation);
* no stored context is left pinned (every session returned its pin, through
  every cancel/preempt/resume permutation the schedule produced);
* the context store's residency ledger is consistent (``check_drained``):
  its LRU lists exactly the resident contexts (chat-turn overwrites and
  spill/reload cycles leave nothing stale), and with nothing pinned the byte
  budget holds again.

Marked ``slow``: excluded from the tier-1 run (see pytest.ini), executed by
the CI soak job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.errors import (
    AdmissionRejectedError,
    RequestCancelledError,
    RequestFailedError,
)
from repro.llm.model import ModelConfig, TransformerModel
from repro.scheduler import SLO
from repro.scheduler.request import RequestState
from repro.server.app import check_drained
from repro.storage.backend import FilesystemBackend

pytestmark = pytest.mark.slow

NUM_EVENTS = 200


def _make_service(tmp_path) -> InferenceService:
    """A tiny-model service with every governance feature enabled."""
    model = TransformerModel(ModelConfig.tiny())
    config = AlayaDBConfig(
        short_context_threshold=8,
        window_initial_tokens=4,
        window_last_tokens=8,
        dipr_beta=16.0,  # beta 4 at the tiny model's head_dim 8
        dipr_capacity_threshold=8,
        min_reuse_tokens=4,
        prefill_chunk_tokens=16,
        max_inflight_requests=3,
        scheduler_policy="slo",
        preemption=True,
        preemption_slack_seconds=0.02,
        scheduler_gpu_budget_bytes=220_000,
        context_store_budget_bytes=150_000,
        lazy_index_build=True,
    )
    return InferenceService(model, config, backend=FilesystemBackend(tmp_path))


def _random_prompt(rng, base_doc: str) -> str:
    length = int(rng.integers(8, 220))
    if rng.random() < 0.3:
        # share a prefix with an ingested document to exercise reuse + pins
        return base_doc[: max(length, 8)]
    return "".join(chr(97 + int(c)) for c in rng.integers(0, 26, size=length))


def test_soak_drains_to_a_clean_state(tmp_path):
    rng = np.random.default_rng(20260730)
    service = _make_service(tmp_path)

    # a library of documents larger than the context budget, so spills happen
    base_doc = "the quick brown fox jumps over the lazy dog. " * 8
    for doc in range(3):
        service.ingest(base_doc + f" copy {doc} " + "filler " * 40)
    registry = service.db.store_registry
    assert registry.spill_count > 0, "the soak config must actually spill"

    handles = []
    chats = [service.chat(max_new_tokens=3) for _ in range(2)]
    chat_errors = 0
    stream_errors = 0

    for _ in range(NUM_EVENTS):
        op = rng.choice(
            ["submit", "step", "cancel", "chat", "stream", "burst"],
            p=[0.3, 0.25, 0.1, 0.1, 0.1, 0.15],
        )
        if op == "submit":
            slo = None
            if rng.random() < 0.5:
                slo = SLO(ttft_seconds=float(rng.choice([0.01, 0.2, 5.0])))
            handles.append(
                service.submit(
                    _random_prompt(rng, base_doc),
                    max_new_tokens=int(rng.integers(0, 5)),
                    priority=int(rng.integers(0, 3)),
                    slo=slo,
                )
            )
        elif op == "step":
            service.step()
        elif op == "cancel" and handles:
            handles[int(rng.integers(len(handles)))].cancel()
        elif op == "chat":
            chat = chats[int(rng.integers(len(chats)))]
            if chat.pending is not None and rng.random() < 0.25:
                chat.cancel()
                continue
            try:
                chat.send(_random_prompt(rng, base_doc)[:40])
            except (AdmissionRejectedError, RequestFailedError):
                chat_errors += 1
        elif op == "stream" and handles:
            handle = handles[int(rng.integers(len(handles)))]
            try:
                for emitted, _token in enumerate(handle.tokens()):
                    if emitted >= 2:
                        break
            except (AdmissionRejectedError, RequestCancelledError, RequestFailedError):
                stream_errors += 1
        elif op == "burst":
            for _ in range(3):
                service.step()

    # deterministic coverage of the admission-reject and queued-cancel paths
    oversized = service.submit("x" * 1000, max_new_tokens=1)
    handles.append(oversized)
    cancelled_queued = service.submit("cancel me while queued", max_new_tokens=2)
    assert cancelled_queued.cancel()
    handles.append(cancelled_queued)

    service.drain(max_steps=5000)

    # --- drain-time invariants -----------------------------------------
    scheduler = service.scheduler
    assert not scheduler.has_work
    for chat in chats:
        if chat.pending is not None:
            handles.append(chat.pending)
    for handle in handles:
        assert handle.request.is_terminal, (
            f"request {handle.request_id} left in state {handle.status!r}"
        )
    assert cancelled_queued.status == RequestState.CANCELLED
    with pytest.raises(AdmissionRejectedError):
        oversized.result()

    # admission reservations sum to zero
    assert scheduler.admission.committed_bytes == 0

    # zero pinned contexts: every session returned its pin
    assert registry.num_pinned == 0, f"leaked pins: {registry.pinned_ids()}"
    assert service._live == {}

    # the residency ledger is exact, and nothing is pinned any more, so the
    # budget must hold again
    check_drained(service)
    assert registry.resident_kv_bytes <= registry.kv_budget_bytes

    # the schedule actually exercised the interesting paths
    stats = scheduler.stats
    assert stats.completed > 20
    assert stats.cancelled >= 1
    assert stats.rejected >= 1
    assert service.stats.rejected >= 1
    assert any(chat.num_turns > 0 for chat in chats)


def test_soak_is_deterministic_per_seed(tmp_path):
    """Same seed, same terminal-state distribution (a guard against hidden
    wall-clock coupling in the soak harness itself, so failures reproduce)."""

    def run(db_dir):
        rng = np.random.default_rng(7)
        service = _make_service(db_dir)
        service.ingest("determinism " * 30)
        handles = [
            service.submit(
                "prompt " * int(rng.integers(2, 30)),
                max_new_tokens=int(rng.integers(0, 4)),
            )
            for _ in range(12)
        ]
        handles[3].cancel()
        service.drain(max_steps=2000)
        return [handle.status for handle in handles]

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    assert first == second
