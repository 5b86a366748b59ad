"""The outcome of one generation request.

Generation itself has one loop, :class:`~repro.core.service.InferenceService`
(prefill chunks and decode tokens as rows of one forward pass); this module
holds the result it returns, with the per-phase timings (TTFT for prefill,
per-token latency for decode) behind the paper's SLO metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["GenerationResult"]


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
