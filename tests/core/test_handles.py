"""Tests of the client-facing serving API: RequestHandle streaming,
ChatSession cross-turn KV reuse, submit-time validation, and the
OpenAI-style repro.api facade."""

from __future__ import annotations

import pytest

from repro.api import Client, Completion, CompletionChunk, Completions
from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.errors import AdmissionRejectedError
from repro.llm.model import ModelConfig, TransformerModel
from repro.scheduler import RequestState
from repro.storage.backend import FilesystemBackend

FULL_ATTENTION_CONFIG = dict(
    window_initial_tokens=8,
    window_last_tokens=16,
    short_context_threshold=1 << 20,  # decode via full attention: deterministic
)


def _service(seed=311, **overrides):
    model = TransformerModel(ModelConfig.tiny(seed=seed))
    return InferenceService(model, AlayaDBConfig(**{**FULL_ATTENTION_CONFIG, **overrides}))


class TestRequestHandle:
    def test_submit_returns_handle_with_lifecycle(self):
        service = _service()
        handle = service.submit("a short prompt", max_new_tokens=2)
        assert handle.status == RequestState.QUEUED
        assert not handle.is_done
        result, record = handle.result()
        assert handle.status == RequestState.FINISHED
        assert handle.is_done
        assert result.num_generated == 2
        assert record.request_id == handle.request_id

    def test_streaming_matches_result(self):
        service = _service()
        handle = service.submit("stream these tokens please " * 4, max_new_tokens=6)
        streamed = list(handle.tokens())
        result, _ = handle.result()
        assert streamed == result.generated_tokens
        assert len(streamed) == 6

    def test_streaming_after_finish_replays_full_sequence(self):
        service = _service()
        handle = service.submit("drain first, stream later", max_new_tokens=3)
        service.drain()
        assert handle.is_done
        assert list(handle.tokens()) == handle.result()[0].generated_tokens

    def test_iterating_the_handle_streams(self):
        service = _service()
        handle = service.submit("iterate me", max_new_tokens=2)
        assert list(handle) == handle.result()[0].generated_tokens

    def test_result_accepts_handle_in_service_lookup(self):
        service = _service()
        handle = service.submit("look me up", max_new_tokens=1)
        service.drain()
        assert service.result(handle) == service.result(handle.request_id)

    def test_rejected_handle_raises_on_result(self):
        service = _service(scheduler_gpu_budget_bytes=8)  # nothing fits
        handle = service.submit("far too large", max_new_tokens=2)
        with pytest.raises(AdmissionRejectedError):
            handle.result()
        assert handle.status == RequestState.REJECTED

    def test_concurrent_streams_interleave(self):
        """Two handles streamed alternately both see their full sequences."""
        service = _service(max_inflight_requests=2)
        a = service.submit("first of two concurrent streams", max_new_tokens=4)
        b = service.submit("second of two concurrent streams", max_new_tokens=4)
        seen_a = [t for t in a.tokens()]  # drives b's decode too
        seen_b = list(b.tokens())
        assert seen_a == a.result()[0].generated_tokens
        assert seen_b == b.result()[0].generated_tokens


class TestSubmitValidation:
    def test_empty_prompt_rejected_at_submit(self):
        service = _service()
        with pytest.raises(ValueError, match="empty"):
            service.submit("", max_new_tokens=2)

    def test_empty_token_list_rejected_at_submit(self):
        service = _service()
        with pytest.raises(ValueError, match="empty"):
            service.submit([], max_new_tokens=2)

    def test_non_positive_prefill_chunk_rejected_at_submit(self):
        service = _service()
        for bad in (0, -4):
            with pytest.raises(ValueError, match="prefill_chunk_tokens"):
                service.submit("a prompt", max_new_tokens=1, prefill_chunk_tokens=bad)

    def test_per_request_prefill_chunk_override_is_used(self):
        service = _service()
        handle = service.submit(
            "a prompt long enough to need several chunks " * 4,
            max_new_tokens=1,
            prefill_chunk_tokens=8,
        )
        result, _ = handle.result()
        assert result.num_generated == 1
        # 8-token chunks over a ~180-token prompt: many prefill rounds
        assert service.scheduler.stats.prefill_chunks > 5


class TestChatSession:
    def test_turns_extend_stored_context_and_reuse_kv(self):
        service = _service(seed=313)
        chat = service.chat(max_new_tokens=4)
        first = chat.ask("the shared document says: " + "alpha beta gamma. " * 12)
        assert first.reused_tokens == 0
        assert chat.context_id in service.db.store_registry
        stored_after_first = len(chat.transcript_tokens())
        second = chat.ask("what was the second word?")
        # turn 2 reused everything turn 1 stored (prompt + generated KV)
        assert second.reused_tokens == stored_after_first
        assert second.reuse_ratio > 0.9
        third = chat.ask("and the third?")
        assert third.reused_tokens > second.reused_tokens
        assert chat.num_turns == 3

    def test_chat_matches_full_transcript_resubmission(self):
        """Cross-turn reuse must not change the generated tokens."""
        model = TransformerModel(ModelConfig.tiny(seed=317))
        chat_service = InferenceService(model, AlayaDBConfig(**FULL_ATTENTION_CONFIG))
        fresh_service = InferenceService(model, AlayaDBConfig(**FULL_ATTENTION_CONFIG))
        chat = chat_service.chat(max_new_tokens=4)
        for prompt in ("a document: " + "one two three four. " * 10, "which words?", "why?"):
            turn = chat.ask(prompt)
            baseline, _ = fresh_service.serve(turn.prompt_tokens, max_new_tokens=4)
            assert turn.result.generated_tokens == baseline.generated_tokens
            assert baseline.prompt_tokens == turn.prompt_tokens  # nothing reused

    def test_send_streams_while_turn_runs(self):
        service = _service(seed=331)
        chat = service.chat(max_new_tokens=5)
        handle = chat.send("stream the first turn " * 3)
        streamed = list(handle.tokens())
        assert len(streamed) == 5
        # next turn folds the previous one into the transcript first
        second = chat.ask("a follow-up")
        assert second.reused_tokens > 0
        assert chat.turns[0].result.generated_tokens == streamed

    def test_cancelled_turn_leaves_transcript_intact(self):
        service = _service(seed=337)
        chat = service.chat(max_new_tokens=4)
        chat.ask("the opening turn establishes context " * 3)
        transcript = chat.transcript_tokens()
        handle = chat.send("this turn is abandoned", max_new_tokens=64)
        service.step()
        assert chat.cancel()
        assert handle.status == RequestState.CANCELLED
        # nothing was stored for the cancelled turn
        assert chat.transcript_tokens() == transcript
        follow_up = chat.ask("carry on from the first turn")
        assert follow_up.reused_tokens == len(transcript)
        assert chat.num_turns == 2  # the cancelled turn is not a turn

    def test_history_keeps_every_generated_token(self):
        """The final token of a turn has no KV (it was never fed back), but
        it must still appear in the next turn's prompt — dropping it would
        silently corrupt the conversation the model conditions on."""
        service = _service(seed=401)
        chat = service.chat(max_new_tokens=4)
        first = chat.ask("the opening prompt " * 8)
        follow_up_text = "a follow-up"
        second = chat.ask(follow_up_text)
        expected = (
            first.prompt_tokens
            + first.result.generated_tokens
            + service.db.tokenize(follow_up_text)
        )
        assert second.prompt_tokens == expected
        # the stored (KV-backed) transcript is exactly one token shorter per
        # turn than the logical one
        assert len(chat.full_transcript_tokens()) == len(chat.transcript_tokens()) + 1

    def test_chat_store_overwrite_preserves_other_sessions_pins(self, tmp_path):
        """A finishing turn overwrites the conversation context; sessions of
        other requests reading the same context keep their pins."""
        model = TransformerModel(ModelConfig.tiny(seed=409))
        service = InferenceService(
            model, AlayaDBConfig(**FULL_ATTENTION_CONFIG), backend=FilesystemBackend(tmp_path)
        )
        chat = service.chat(max_new_tokens=3)
        chat.ask("a shared conversation context " * 8)
        context_id = chat.context_id
        reader_a, _ = service.db.create_session(chat.transcript_tokens())
        assert reader_a.is_connected
        chat.ask("next turn overwrites the stored context")
        reader_b, _ = service.db.create_session(chat.transcript_tokens())
        reader_a.close()  # must release only A's pin, not B's
        with pytest.raises(ValueError):
            service.db.store_registry.spill(context_id)
        reader_b.close()
        service.db.store_registry.spill(context_id)
        assert not service.db.get_context(context_id).is_resident

    def test_named_context_resumes_conversation(self):
        service = _service(seed=347)
        first = service.chat(context_id="support-42", max_new_tokens=3)
        first.ask("the customer's issue is a slow database " * 3)
        resumed = service.chat(context_id="support-42", max_new_tokens=3)
        turn = resumed.ask("suggest a fix")
        assert turn.reused_tokens > 0

    def test_empty_chat_prompt_rejected(self):
        service = _service()
        chat = service.chat()
        with pytest.raises(ValueError):
            chat.send("")


class TestCompletionsFacade:
    def test_blocking_completion(self):
        service = _service(seed=353)
        completions = Completions(service)
        completion = completions.create("complete this prompt " * 4, max_new_tokens=3)
        assert isinstance(completion, Completion)
        assert len(completion.choices) == 1
        assert len(completion.choices[0].token_ids) == 3
        assert completion.usage.completion_tokens == 3
        assert completion.usage.prompt_tokens > 0
        assert completion.usage.total_tokens == completion.usage.prompt_tokens + 3

    def test_streaming_completion_matches_blocking(self):
        model = TransformerModel(ModelConfig.tiny(seed=359))
        blocking = Completions(InferenceService(model, AlayaDBConfig(**FULL_ATTENTION_CONFIG)))
        streaming = Completions(InferenceService(model, AlayaDBConfig(**FULL_ATTENTION_CONFIG)))
        prompt = "the same prompt twice " * 4
        completion = blocking.create(prompt, max_new_tokens=4)
        chunks = list(streaming.create(prompt, max_new_tokens=4, stream=True))
        assert all(isinstance(c, CompletionChunk) for c in chunks)
        assert [c.token_id for c in chunks] == completion.choices[0].token_ids
        assert [c.index for c in chunks] == [0, 1, 2, 3]

    def test_reused_tokens_surface_in_usage(self):
        service = _service(seed=367)
        client = Client(service)
        document = "a reference manual chapter " * 15
        service.ingest(document, context_id="manual")
        prompt = service.db.tokenizer.decode(service.db.get_context("manual").tokens)
        completion = client.completions.create(prompt + " what now?", max_new_tokens=2)
        assert completion.usage.reused_tokens > 0

    def test_client_opens_chat_sessions(self):
        service = _service(seed=373)
        client = Client(service)
        chat = client.chat(max_new_tokens=2)
        chat.ask("hello from the client facade " * 3)
        assert chat.ask("again?").reused_tokens > 0
