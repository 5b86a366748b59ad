"""Use case 1 (Section 8): financial document analysis.

A financial-analysis service keeps a library of long documents (annual
reports, audit reports, filings).  Analysts ask many different questions about
the same documents, so AlayaDB imports each document once, builds its vector
indexes offline, and serves every follow-up question by reusing the stored
context — only the question itself is prefilled.

The example measures what the service cares about:
* time-to-first-token with and without context reuse,
* the retrieval plan each question runs and the decode time it spends
  retrieving critical tokens, and
* the GPU-resident footprint per concurrent session.

Run with:  python examples/financial_document_analysis.py
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro import AlayaDBConfig, InferenceService
from repro.llm import ModelConfig, TransformerModel
from repro.simulator import CostModel


def build_document_library() -> dict[str, str]:
    """Synthesise a few 'financial documents' (long repetitive filings)."""
    sections = {
        "acme-2024-annual-report": (
            "ACME Corp annual report 2024. Revenue grew in the cloud segment while hardware "
            "declined. The board approved a dividend increase and a share buyback programme. "
        ),
        "acme-2024-audit": (
            "Independent audit of ACME Corp 2024 statements. The auditors flag revenue "
            "recognition in multi-year contracts and recommend tighter controls over "
            "inventory valuation in the hardware segment. "
        ),
        "hk-market-2024-review": (
            "Hong Kong stock market 2024 review. Technology listings rebounded, IPO volume "
            "recovered in the second half, and southbound flows supported financials. "
        ),
    }
    return {name: text * 40 for name, text in sections.items()}


def main() -> None:
    model = TransformerModel(ModelConfig.tiny(seed=11))
    # max_retrieved_tokens bounds per-head retrieval: the toy substrate's
    # attention is much less sparse than a trained LLM's, and a production
    # deployment would cap worst-case retrieval the same way.
    config = AlayaDBConfig(
        window_initial_tokens=32,
        window_last_tokens=64,
        short_context_threshold=128,
        gpu_memory_budget_bytes=1,
        max_retrieved_tokens=512,
    )
    service = InferenceService(model, config)
    cost = CostModel()

    # ------------------------------------------------------------------ ingest
    library = build_document_library()
    print("=== ingesting the document library (offline) ===")
    for name, text in library.items():
        start = time.perf_counter()
        context = service.db.get_context(service.ingest(text, context_id=name))
        print(f"  {name}: {context.num_tokens} tokens, fine indexes on layers {sorted(context.fine_indexes)} "
              f"({time.perf_counter() - start:.1f}s)")

    # ------------------------------------------------------------------ serve
    questions = [
        ("acme-2024-annual-report", "Summarise the revenue trend by segment."),
        ("acme-2024-annual-report", "What did the board approve?"),
        ("acme-2024-audit", "List the audit findings that need management action."),
        ("hk-market-2024-review", "What were the top drivers of the 2024 Hong Kong market?"),
    ]
    last_layer = model.config.num_layers - 1
    print("\n=== answering analyst questions (online) ===")
    for document_name, question in questions:
        prompt = library[document_name] + "\nAnalyst question: " + question

        retrieval_before = service.memory_report()["decode_retrieval_seconds"]
        reuse_start = time.perf_counter()
        _, record = service.serve(prompt, max_new_tokens=6)
        reuse_seconds = time.perf_counter() - reuse_start
        retrieval_seconds = service.memory_report()["decode_retrieval_seconds"] - retrieval_before
        prefilled = record.prompt_tokens - record.reused_tokens

        # the plan the optimizer picks for this prompt, from a session opened
        # the way the service opens one
        session, _ = service.db.create_session(prompt)
        plan = session.plan_for_layer(last_layer)
        session.close()

        print(f"- [{document_name}] {question}")
        print(f"    reused {record.reused_tokens} tokens, prefilled {prefilled}; "
              f"TTFT {record.ttft_seconds * 1000:.0f} ms, "
              f"wall-clock {reuse_seconds:.2f}s on the toy substrate")
        print(f"    layer {last_layer} plan: {plan.describe()}; "
              f"{retrieval_seconds * 1000:.0f} ms of decode spent retrieving critical tokens; "
              f"GPU-resident: {record.gpu_resident_bytes / 1e6:.2f} MB")
        # what the prefill would cost at production scale (Llama-3-8B, paper's cost model)
        print(f"    modelled prefill at Llama-3-8B scale: {cost.prefill_seconds(prefilled) * 1000:.0f} ms "
              f"with reuse vs {cost.prefill_seconds(record.prompt_tokens) * 1000:.0f} ms without")

    # ------------------------------------------------------- no-reuse baseline
    # a service with no stored context whose optimizer plans full attention
    # everywhere: every token of the prompt is prefilled again
    document_name, question = questions[0]
    prompt = library[document_name] + "\nAnalyst question: " + question
    dense = InferenceService(model, replace(config, short_context_threshold=1 << 30))
    start = time.perf_counter()
    dense.serve(prompt, max_new_tokens=6)
    print(f"\nrecomputing the full prefill instead of reusing takes {time.perf_counter() - start:.2f}s "
          f"on the toy substrate (and O(n^2) at production scale)")


if __name__ == "__main__":
    main()
