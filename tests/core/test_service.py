"""Tests of the serving layer (InferenceService)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.llm.model import ModelConfig, TransformerModel
from repro.scheduler import SLO


@pytest.fixture(scope="module")
def service():
    model = TransformerModel(ModelConfig.tiny(seed=41))
    config = AlayaDBConfig(
        window_initial_tokens=8,
        window_last_tokens=16,
        short_context_threshold=64,
        gpu_memory_budget_bytes=1,
        max_retrieved_tokens=128,
    )
    svc = InferenceService(model, config)
    svc.ingest("shared reference document about databases. " * 30, context_id="doc-shared")
    return svc


class TestInferenceService:
    def test_ingest_registers_context(self, service):
        assert service.num_contexts >= 1

    def test_serve_reuses_ingested_document(self, service):
        document = service.db.get_context("doc-shared")
        prompt = service.db.tokenizer.decode(document.tokens) + " What is stored?"
        result, record = service.serve(prompt, max_new_tokens=3)
        assert result.num_generated == 3
        assert record.reused_tokens > 0
        assert record.reuse_ratio > 0.9
        assert record.gpu_resident_bytes > 0

    def test_serve_without_reuse(self, service):
        result, record = service.serve("completely unrelated question?", max_new_tokens=2)
        assert record.reused_tokens == 0
        assert record.reuse_ratio == 0.0

    def test_stats_accumulate(self, service):
        before = service.stats.num_requests
        service.serve("another unrelated question", max_new_tokens=2)
        assert service.stats.num_requests == before + 1
        assert service.stats.peak_gpu_resident_bytes >= 0

    def test_slo_report(self, service):
        report = service.slo_report()
        records = service.stats.records
        assert report.num_requests == service.stats.num_requests
        assert report.attained == sum(r.slo_attained for r in records)
        assert report.tpot_seconds["p50"] == pytest.approx(
            float(np.median([r.tpot_seconds for r in records]))
        )
        assert report.ttft_seconds["p99"] <= max(r.client_ttft_seconds for r in records)

    def test_full_attention_requests_are_counted(self):
        """Regression: full-attention decode steps recorded no ``DecodeStepStats``, so such a
        request's session counted no decode steps."""
        model = TransformerModel(ModelConfig.tiny(seed=41))
        svc = InferenceService(model, AlayaDBConfig(short_context_threshold=4096))
        selected = []
        for repeats in (7, 14):  # ~300 and ~600 byte-level tokens, both planned full attention
            document = "shared reference document about databases. " * repeats
            svc.ingest(document, context_id=f"doc-{repeats}")
            handle = svc.submit(document + " what is stored?", max_new_tokens=4)
            svc.step()
            session = svc._live[handle.request_id].session
            assert session.plan_for_layer(0).is_full
            _, record = handle.result()
            assert record.reused_tokens >= 300 * (repeats // 7)
            assert session.num_decode_steps == record.generated_tokens - 1 == 3
            assert session.last_decode_stats.num_distance_computations == 0
            selected.append(session.last_decode_stats.num_selected_tokens)
        # full attention attends every stored token: a longer context selects more
        assert 0 < selected[0] < selected[1]

    def test_store_conversations_option(self):
        model = TransformerModel(ModelConfig.tiny(seed=43))
        svc = InferenceService(
            model,
            AlayaDBConfig(short_context_threshold=32, window_initial_tokens=4, window_last_tokens=8),
            store_conversations=True,
        )
        _, record = svc.serve("store this conversation please", max_new_tokens=2)
        assert record.stored_context_id is not None
        assert record.stored_context_id in svc.db.store_registry

    def test_trace_driven_serving(self):
        model = TransformerModel(ModelConfig.tiny(seed=47))
        svc = InferenceService(
            model,
            AlayaDBConfig(
                window_initial_tokens=8,
                window_last_tokens=16,
                short_context_threshold=64,
                gpu_memory_budget_bytes=1,
                max_retrieved_tokens=64,
            ),
        )
        documents = {
            "doc-a": "a stored reference about vector databases. " * 6,
            "doc-b": "a stored manual for the inference engine. " * 6,
        }
        for document_id, text in documents.items():
            svc.ingest(text, context_id=document_id)
        prompts = [
            (documents["doc-a"] + " What does it store?", True),
            ("Q: a fresh question with no document behind it", False),
            (documents["doc-b"] + " How is it tuned?", True),
            (documents["doc-a"] + " Summarise it.", True),
        ]
        for prompt, _ in prompts:
            svc.serve(prompt, max_new_tokens=2)
        assert svc.stats.num_requests == len(prompts)
        for record, (_, uses_library) in zip(svc.stats.records, prompts):
            assert (record.reused_tokens > 0) == uses_library


class TestMeasuredSLO:
    """Each finished request is judged once, on its measured latencies,
    against its own SLO (or ``config.slo`` when it has none)."""

    PROMPT = "a question about stored databases " * 4

    @pytest.fixture(scope="class")
    def model(self):
        return TransformerModel(ModelConfig.tiny(seed=41))

    def test_own_slo_that_cannot_be_met_is_not_attained(self, model):
        svc = InferenceService(model, AlayaDBConfig())
        tight = svc.submit(self.PROMPT, max_new_tokens=3, slo=SLO(tpot_seconds=1e-9, ttft_seconds=1e-9))
        loose = svc.submit(self.PROMPT, max_new_tokens=3, slo=SLO(tpot_seconds=60.0, ttft_seconds=60.0))
        svc.drain()
        assert not svc.result(tight)[1].slo_attained
        assert svc.result(loose)[1].slo_attained
        report = svc.slo_report()
        assert (report.num_requests, report.attained, report.attainment) == (2, 1, 0.5)

    def test_request_without_slo_is_judged_against_config(self, model):
        svc = InferenceService(model, AlayaDBConfig(slo=SLO(tpot_seconds=1e-9)))
        default = svc.submit(self.PROMPT, max_new_tokens=3)
        own = svc.submit(self.PROMPT, max_new_tokens=3, slo=SLO(tpot_seconds=60.0))
        svc.drain()
        assert not svc.result(default)[1].slo_attained
        assert svc.result(own)[1].slo_attained

    def test_one_token_request_is_judged_on_ttft_only(self, model):
        svc = InferenceService(model, AlayaDBConfig(slo=SLO(tpot_seconds=1e-9, ttft_seconds=60.0)))
        _, record = svc.submit(self.PROMPT, max_new_tokens=1).result()
        assert record.tpot_seconds == 0.0
        assert record.slo_attained

    def test_ttft_includes_queue_wait(self, model):
        """The queued request's own first-token latency is well inside its
        TTFT limit; only its wait for the single slot exceeds it."""
        limit = 0.2
        svc = InferenceService(model, AlayaDBConfig(max_inflight_requests=1))
        first = svc.submit(self.PROMPT, max_new_tokens=4)
        second = svc.submit("queued behind the first", max_new_tokens=1, slo=SLO(ttft_seconds=limit))
        while not first.is_done:
            svc.step()
            time.sleep(0.1)  # every step of the first request lengthens the second's queue wait
        _, record = second.result()
        assert record.ttft_seconds < limit < record.queue_seconds
        assert record.client_ttft_seconds == record.queue_seconds + record.ttft_seconds
        assert not record.slo_attained
        assert svc.slo_report().ttft_seconds["p99"] > limit
