"""Quickstart: long-context inference with AlayaDB in a few lines.

This mirrors Figure 4 of the paper: an application that previously managed a
``DynamicCache`` itself hands its model to an ``InferenceService`` instead.
It (1) imports the long context once, (2) submits requests whose prompts
start with it, and (3) the service's session answers the model's per-layer
attention calls from the stored KV and its indexes.  The model only ever
prefills the part of the prompt that was not reused.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro import AlayaDBConfig, InferenceService
from repro.llm import ModelConfig, TransformerModel


def main() -> None:
    # --- the "application" --------------------------------------------------
    model = TransformerModel(ModelConfig.tiny(seed=7))

    # a long document every user question refers to
    document = (
        "AlayaDB decouples the KV cache and the attention computation from the "
        "LLM inference engine and manages both inside a vector database. "
    ) * 60
    question = "Question: what does AlayaDB decouple from the inference engine?"

    # --- set up AlayaDB -----------------------------------------------------
    # Note: the toy model's attention is far less sparse than a trained LLM's,
    # so the DIPR safety valve (max_retrieved_tokens) is set to keep the demo's
    # per-step retrieval bounded the way a production deployment would.
    config = AlayaDBConfig(
        window_initial_tokens=32,
        window_last_tokens=64,
        short_context_threshold=128,
        gpu_memory_budget_bytes=1,  # tiny budget -> the optimizer picks DIPR
        max_retrieved_tokens=512,
    )
    service = InferenceService(model, config)

    # import the document once (prefill + index construction, offline)
    start = time.perf_counter()
    context = service.db.get_context(service.ingest(document))
    print(f"imported context {context.context_id!r}: {context.num_tokens} tokens, "
          f"fine indexes on layers {sorted(context.fine_indexes)}, "
          f"{context.kv_bytes / 1e6:.1f} MB of KV cache "
          f"({time.perf_counter() - start:.1f}s)")

    # --- what the service will run: the optimizer's plan per layer -----------
    session, truncated_prompt = service.db.create_session(document + question)
    print(f"a session reuses {session.reused_prefix_length} tokens; "
          f"only {len(truncated_prompt)} prompt tokens still need prefill")
    for layer in range(model.config.num_layers):
        print(f"  layer {layer} plan: {session.plan_for_layer(layer).describe()}")
    session.close()

    # --- serve a request through AlayaDB ------------------------------------
    handle = service.submit(document + question, max_new_tokens=8, store_context_id="conversation-0")
    result, record = handle.result()
    print(f"AlayaDB decode: {result.num_generated} tokens after reusing {record.reused_tokens}, "
          f"TPOT {record.tpot_seconds * 1000:.0f} ms, "
          f"{record.gpu_resident_bytes / 1e6:.2f} MB resident (window + local KV)")

    # --- the coupled-architecture baseline for comparison --------------------
    # a service with no stored context whose optimizer plans full attention
    # everywhere: it prefills the whole prompt and keeps all of its KV
    dense = InferenceService(model, replace(config, short_context_threshold=1 << 30))
    baseline, baseline_record = dense.serve(document + question, max_new_tokens=8)
    print(f"full-attention baseline: {baseline.num_generated} tokens, "
          f"{baseline_record.gpu_resident_bytes / 1e6:.2f} MB of KV resident")
    print(f"first generated token identical: {result.generated_tokens[0] == baseline.generated_tokens[0]}")

    # --- the stored conversation: a follow-up request reuses all of it -------
    stored = service.db.get_context(record.stored_context_id)
    _, follow_up = service.serve(stored.tokens, max_new_tokens=1)
    print(f"stored conversation {stored.context_id!r} ({stored.num_tokens} tokens); "
          f"a follow-up request reuses {follow_up.reused_tokens} of them "
          f"(prefilled: {follow_up.prompt_tokens - follow_up.reused_tokens} prompt tokens)")


if __name__ == "__main__":
    main()
