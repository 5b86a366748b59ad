"""The LLM generation loop: prefill phase + decode phase.

This module wires the transformer substrate, a tokenizer, a KV cache and a
sampler into the two-phase inference procedure described in Section 2 of the
paper.  The loop records per-phase timings (TTFT for prefill, per-token
latency for decode) so benchmark harnesses can report the same SLO metrics
the paper uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..kvcache.cache import DynamicCache, NativeAttentionCache
from .model import TransformerModel
from .sampling import SamplingConfig, sample_token
from .tokenizer import ByteTokenizer

__all__ = ["GenerationResult", "GenerationLoop", "generate"]


@dataclass
class GenerationResult:
    """Outcome of one prompt → response inference."""

    prompt_tokens: list[int]
    generated_tokens: list[int]
    text: str
    ttft_seconds: float
    decode_seconds: list[float] = field(default_factory=list)
    finished_by_eos: bool = False

    @property
    def num_generated(self) -> int:
        return len(self.generated_tokens)

    @property
    def tpot_seconds(self) -> float:
        """Mean time-per-output-token over the decode phase."""
        if not self.decode_seconds:
            return 0.0
        return float(np.mean(self.decode_seconds))

    @property
    def total_seconds(self) -> float:
        return self.ttft_seconds + float(np.sum(self.decode_seconds))


class GenerationLoop:
    """Drives prefill + decode against any cache implementing the protocol."""

    def __init__(
        self,
        model: TransformerModel,
        tokenizer: ByteTokenizer | None = None,
        sampling: SamplingConfig | None = None,
    ):
        self.model = model
        self.tokenizer = tokenizer or ByteTokenizer()
        self.sampling = sampling or SamplingConfig()

    def run_tokens(
        self,
        prompt_tokens: list[int] | np.ndarray,
        cache: NativeAttentionCache | None = None,
        max_new_tokens: int = 16,
        stop_on_eos: bool = True,
    ) -> GenerationResult:
        """Generate from a pre-tokenised prompt.

        ``max_new_tokens=0`` runs the prefill (filling ``cache``) but samples
        nothing; negative values are rejected.
        """
        if max_new_tokens < 0:
            raise ValueError(f"max_new_tokens must be non-negative, got {max_new_tokens}")
        prompt_tokens = [int(t) for t in prompt_tokens]
        cache = cache if cache is not None else DynamicCache()
        rng = self.sampling.make_rng()

        start = time.perf_counter()
        if prompt_tokens:
            last_logits, cache = self.model.prefill(np.asarray(prompt_tokens), cache)
        else:
            last_logits, cache = self.model.prefill(np.asarray([self.tokenizer.bos_id]), cache)
        ttft = time.perf_counter() - start

        generated: list[int] = []
        decode_times: list[float] = []
        finished_by_eos = False
        if max_new_tokens > 0:
            next_token = sample_token(last_logits, self.sampling, rng)
            generated.append(next_token)
            for _ in range(max_new_tokens - 1):
                if stop_on_eos and next_token == self.tokenizer.eos_id:
                    finished_by_eos = True
                    break
                step_start = time.perf_counter()
                logits = self.model.decode_step(next_token, cache)
                decode_times.append(time.perf_counter() - step_start)
                next_token = sample_token(logits, self.sampling, rng)
                generated.append(next_token)
            if stop_on_eos and generated[-1] == self.tokenizer.eos_id:
                finished_by_eos = True

        text = self.tokenizer.decode(generated)
        return GenerationResult(
            prompt_tokens=prompt_tokens,
            generated_tokens=generated,
            text=text,
            ttft_seconds=ttft,
            decode_seconds=decode_times,
            finished_by_eos=finished_by_eos,
        )

    def run(
        self,
        prompt: str,
        cache: NativeAttentionCache | None = None,
        max_new_tokens: int = 16,
    ) -> GenerationResult:
        """Generate from a text prompt."""
        tokens = self.tokenizer.encode(prompt)
        return self.run_tokens(tokens, cache=cache, max_new_tokens=max_new_tokens)


def generate(
    model: TransformerModel,
    prompt: str,
    cache: NativeAttentionCache | None = None,
    max_new_tokens: int = 16,
    sampling: SamplingConfig | None = None,
) -> GenerationResult:
    """Convenience wrapper: one-shot generation with default components."""
    loop = GenerationLoop(model, sampling=sampling)
    return loop.run(prompt, cache=cache, max_new_tokens=max_new_tokens)
