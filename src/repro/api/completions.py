"""An OpenAI-style completions facade over the handle-based serving API.

``Completions.create(prompt=..., stream=True)`` is what an HTTP frontend
would expose: it maps one-to-one onto :meth:`InferenceService.submit` and the
:class:`~repro.core.handles.RequestHandle` it returns — streaming yields
:class:`CompletionChunk` deltas as scheduler steps produce tokens, and the
non-streaming call blocks for a :class:`Completion` with usage accounting
(including ``reused_tokens``, the AlayaDB-specific field that reports how
much of the prompt's KV came from the context store instead of prefill).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.handles import RequestHandle
    from ..core.service import InferenceService
    from ..scheduler.slo import SLO

__all__ = ["CompletionUsage", "CompletionChoice", "Completion", "CompletionChunk", "Completions", "completion_id"]


def completion_id(request_id: int) -> str:
    """The completion id of a request, on every surface that reports one."""
    return f"cmpl-{request_id:08d}"


@dataclass
class CompletionUsage:
    """Token accounting of one completion."""

    prompt_tokens: int
    completion_tokens: int
    reused_tokens: int
    """Prompt tokens whose KV was reused from the context store (no prefill)."""

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass
class CompletionChoice:
    """One generated alternative (this substrate produces exactly one)."""

    index: int
    text: str
    token_ids: list[int] = field(default_factory=list)
    finish_reason: str = "length"
    """``"stop"`` when generation hit EOS, ``"length"`` otherwise."""


@dataclass
class Completion:
    """The non-streaming response object."""

    id: str
    choices: list[CompletionChoice]
    usage: CompletionUsage
    ttft_seconds: float = 0.0

    @property
    def text(self) -> str:
        return self.choices[0].text if self.choices else ""


@dataclass
class CompletionChunk:
    """One streamed delta: a single token and its decoded text."""

    id: str
    index: int
    token_id: int
    text: str


class Completions:
    """``client.completions.create(...)``-style entry point.

    Construct it around an :class:`InferenceService` (or use
    :class:`Client`, which does so for you).
    """

    def __init__(self, service: "InferenceService"):
        self._service = service

    def create(
        self,
        prompt: str | list[int],
        max_new_tokens: int = 16,
        stream: bool = False,
        priority: int = 0,
        slo: "SLO | None" = None,
        store_context_id: str | None = None,
        tenant: str | None = None,
    ) -> Completion | Iterator[CompletionChunk]:
        """Serve one completion.

        With ``stream=False`` the call blocks (driving the scheduler) and
        returns a :class:`Completion`.  With ``stream=True`` it returns an
        iterator of :class:`CompletionChunk` deltas backed by
        ``RequestHandle.tokens()`` — cancellation of the underlying request
        simply ends the stream early.  ``tenant`` bills the request for
        fairness/quota accounting (an undeclared name goes to ``default``).
        """
        handle = self._service.submit(
            prompt,
            max_new_tokens=max_new_tokens,
            priority=priority,
            slo=slo,
            store_context_id=store_context_id,
            tenant=tenant,
        )
        if stream:
            return self._stream(handle)
        return self._complete(handle)

    def _stream(self, handle: "RequestHandle") -> Iterator[CompletionChunk]:
        tokenizer = self._service.db.tokenizer
        chunk_id = completion_id(handle.request_id)
        for index, token_id in enumerate(handle.tokens()):
            yield CompletionChunk(
                id=chunk_id,
                index=index,
                token_id=token_id,
                text=tokenizer.decode([token_id]),
            )

    def _complete(self, handle: "RequestHandle") -> Completion:
        result, record = handle.result()
        choice = CompletionChoice(
            index=0,
            text=result.text,
            token_ids=list(result.generated_tokens),
            finish_reason="stop" if result.finished_by_eos else "length",
        )
        usage = CompletionUsage(
            prompt_tokens=record.prompt_tokens,
            completion_tokens=record.generated_tokens,
            reused_tokens=record.reused_tokens,
        )
        return Completion(
            id=completion_id(handle.request_id),
            choices=[choice],
            usage=usage,
            ttft_seconds=record.ttft_seconds,
        )


class Client:
    """A minimal OpenAI-client-shaped wrapper: ``Client(service).completions``.

    ``client.chat(...)`` opens a :class:`~repro.core.handles.ChatSession`
    (the multi-turn, KV-reusing counterpart of one-shot completions);
    ``export_context`` / ``import_context`` move single stored contexts
    between services as portable bundle directories.
    """

    def __init__(self, service: "InferenceService"):
        self.service = service
        self.completions = Completions(service)

    def chat(self, context_id: str | None = None, max_new_tokens: int = 16):
        return self.service.chat(context_id=context_id, max_new_tokens=max_new_tokens)

    def export_context(self, context_id: str, dest_dir):
        """Export one stored context as a portable bundle directory (a
        context database holding that one context); returns its path."""
        return self.service.db.export_context(context_id, dest_dir)

    def import_context(self, src_dir, context_id: str | None = None, overwrite: bool = False):
        """Import a bundle exported by :meth:`export_context`; the imported
        context serves prefix hits without re-prefilling or re-indexing."""
        return self.service.db.import_context_bundle(
            src_dir, context_id=context_id, overwrite=overwrite
        )
