"""NumPy LLM inference substrate (Section 2 of the paper).

Public surface: a decoder-only GQA transformer, exact attention kernels with
flash-attention-style partial merging, a byte-level tokenizer, token
sampling and the result type of a generation.  The generation loop itself is
:class:`~repro.core.service.InferenceService`.
"""

from .attention import (
    PartialAttention,
    attention_logits,
    attention_weights,
    decode_attention,
    full_attention,
    partial_attention,
    repeat_kv,
    softmax,
)
from .generation import GenerationResult
from .model import ModelConfig, TransformerLayer, TransformerModel
from .rope import RotaryEmbedding, apply_rotary
from .sampling import SamplingConfig, greedy, sample_token
from .tokenizer import ByteTokenizer, SpecialTokens

__all__ = [
    "ByteTokenizer",
    "GenerationResult",
    "ModelConfig",
    "PartialAttention",
    "RotaryEmbedding",
    "SamplingConfig",
    "SpecialTokens",
    "TransformerLayer",
    "TransformerModel",
    "apply_rotary",
    "attention_logits",
    "attention_weights",
    "decode_attention",
    "full_attention",
    "greedy",
    "partial_attention",
    "repeat_kv",
    "sample_token",
    "softmax",
]
