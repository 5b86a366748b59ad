#!/usr/bin/env python3
"""Micro-measure: one prefill chunk-layer of a scheduler round's attention.

Times ``CrossRequestDecodeRound.layer_attention`` for one prefilling session
over one layer of the serving benchmark's model — the KV append, the partials
over the visible stored prefix and the causal local partial, and their merge —
at chunk lengths ``seq`` in {16, 256} and stored prefixes in {0, 600} tokens.
Each run gets a fresh session (untimed), so every run appends the same chunk
to the same state.  The process is pinned to one CPU with one BLAS thread::

    PYTHONPATH=src python3 benchmarks/micro_prefill_attention.py [--runs 40]

Prints one line per point (median and quartiles in ms) and, last, one JSON
object with the medians.
"""

from __future__ import annotations

import os

os.environ.update({name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.config import AlayaDBConfig  # noqa: E402
from repro.core.context_store import StoredContext  # noqa: E402
from repro.core.decode_round import CrossRequestDecodeRound  # noqa: E402
from repro.core.session import Session  # noqa: E402
from repro.kvcache.serialization import KVSnapshot  # noqa: E402
from repro.llm.model import ModelConfig  # noqa: E402

BENCH = ModelConfig(dim=128, num_layers=3, num_query_heads=8, num_kv_heads=2, hidden_dim=256, seed=20250925)
"""The serving benchmark's model (only its attention shape is used)."""
SEQS = (16, 256)
STORED = (0, 600)
LAYER = 1


def _context(num_tokens: int, rng: np.random.Generator) -> StoredContext | None:
    if num_tokens == 0:
        return None
    shape = (BENCH.num_kv_heads, num_tokens, BENCH.head_dim)
    keys = {layer: rng.normal(size=shape).astype(np.float32) for layer in range(BENCH.num_layers)}
    values = {layer: rng.normal(size=shape).astype(np.float32) for layer in range(BENCH.num_layers)}
    tokens = [int(t) for t in rng.integers(0, 255, size=num_tokens)]
    return StoredContext(context_id=f"micro-{num_tokens}", snapshot=KVSnapshot(tokens=tokens, keys=keys, values=values))


def measure(seq: int, stored: int, runs: int) -> list[float]:
    """Seconds of ``runs`` chunk-layers (after one warm-up), one fresh session each."""
    rng = np.random.default_rng(seq * 1000 + stored)
    context = _context(stored, rng)
    q = rng.normal(size=(BENCH.num_query_heads, seq, BENCH.head_dim)).astype(np.float32)
    k = rng.normal(size=(BENCH.num_kv_heads, seq, BENCH.head_dim)).astype(np.float32)
    v = rng.normal(size=(BENCH.num_kv_heads, seq, BENCH.head_dim)).astype(np.float32)
    samples = []
    for run in range(runs + 1):
        session = Session(AlayaDBConfig(), context=context, num_layers=BENCH.num_layers)
        attention_round = CrossRequestDecodeRound([session], [True])
        start = time.perf_counter()
        attention_round.layer_attention(LAYER, q, k, v, [session], [seq])
        elapsed = time.perf_counter() - start
        if run:
            samples.append(elapsed)
    return samples


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=40)
    args = parser.parse_args()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    medians = {}
    for stored in STORED:
        for seq in SEQS:
            q1, median, q3 = np.percentile(measure(seq, stored, args.runs), [25, 50, 75]) * 1e3
            medians[f"seq{seq}_stored{stored}_ms"] = round(float(median), 4)
            print(f"seq={seq:4d} stored={stored:4d}  median {median:.3f} ms  (q1 {q1:.3f}, q3 {q3:.3f})")
    print(json.dumps(medians))


if __name__ == "__main__":
    main()
