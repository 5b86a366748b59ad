"""Use case 2 (Section 8): a legal assistant answering questions over statutes.

A law firm stores its reference corpus (statutes, regulations, precedent
summaries) in AlayaDB.  Different clients ask questions over the *same*
statutes, and a client conversation keeps growing — which exercises two
AlayaDB features beyond plain reuse:

* **partial prefix reuse** — a new client's prompt shares only the statute
  part of a stored conversation, so the optimizer attaches an attribute
  filter and the filtered DIPRS search retrieves only from the shared prefix;
* **conversation storing** — after answering, ``DB.store`` persists the whole
  conversation (late materialization) so follow-ups reuse it entirely.

Run with:  python examples/legal_assistant_qa.py
"""

from __future__ import annotations

from repro import AlayaDBConfig, InferenceService
from repro.llm import ModelConfig, TransformerModel


STATUTE = (
    "Data Protection Ordinance, consolidated text. Personal data shall be collected for "
    "lawful purposes, used only for the purpose of collection, kept accurate and no longer "
    "than necessary, and protected against unauthorised access. Data subjects may request "
    "access to and correction of their personal data. Exemptions apply to crime prevention "
    "and news activities. "
) * 35


def main() -> None:
    model = TransformerModel(ModelConfig.tiny(seed=23))
    service = InferenceService(
        model,
        AlayaDBConfig(
            window_initial_tokens=32,
            window_last_tokens=64,
            short_context_threshold=128,
            gpu_memory_budget_bytes=1,
            max_retrieved_tokens=512,
        ),
    )

    # the statute corpus is imported once, offline
    statute_context = service.db.get_context(service.ingest(STATUTE, context_id="data-protection-ordinance"))
    print(f"imported statute: {statute_context.num_tokens} tokens")

    # ---------------------------------------------------------------- client A
    # the answered conversation is stored (late materialization) so that
    # follow-ups reuse all of it
    question_a = "\nClient A asks: how long may personal data be retained?"
    _, record_a = service.submit(
        STATUTE + question_a, max_new_tokens=6, store_context_id="client-a-conversation"
    ).result()
    print(f"client A: reused {record_a.reused_tokens} tokens, "
          f"TPOT {record_a.tpot_seconds * 1000:.0f} ms, "
          f"{record_a.gpu_resident_bytes / 1e6:.2f} MB GPU-resident")
    conversation_a = service.db.get_context(record_a.stored_context_id)
    print(f"stored client A conversation: {conversation_a.num_tokens} tokens")

    # ---------------------------------------------------------------- client B
    # client B asks about the same statute: their prompt shares only the
    # statute prefix of the stored client-A conversation, so AlayaDB reuses
    # that prefix and filters retrieval to it (attribute-filtered DIPRS).
    # The session the service opens for this prompt shows the plan.
    question_b = "\nClient B asks: can a data subject demand correction of errors?"
    session_b, _ = service.db.create_session(STATUTE + question_b)
    reused_context_id = session_b.context.context_id if session_b.context else None
    plan = session_b.plan_for_layer(model.config.num_layers - 1)
    session_b.close()
    print(f"client B: reuses {session_b.reused_prefix_length} tokens of stored context {reused_context_id!r}")
    print(f"client B retrieval plan: {plan.describe()}")
    if plan.predicate is not None:
        print(f"  -> retrieval restricted to the first {plan.predicate.max_position} shared tokens")
    _, record_b = service.serve(STATUTE + question_b, max_new_tokens=6)
    print(f"client B: served {record_b.generated_tokens} tokens, TPOT {record_b.tpot_seconds * 1000:.0f} ms "
          f"(over the fine index built when client A's conversation was stored)")

    # ---------------------------------------------------------------- follow-up
    # client A returns with the full history
    _, record_a2 = service.serve(conversation_a.tokens, max_new_tokens=6)
    print(f"client A follow-up: reuses the whole stored conversation "
          f"({record_a2.reused_tokens} tokens, "
          f"{record_a2.prompt_tokens - record_a2.reused_tokens} new)")

    print("\nanswers are produced by a toy byte-level model; what matters here is the "
          "reuse accounting and the retrieval plans shown above")


if __name__ == "__main__":
    main()
