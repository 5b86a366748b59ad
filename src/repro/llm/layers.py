"""Building blocks of the NumPy transformer: weight draws, RMSNorm, SiLU.

A block holds plain weight matrices, fused where one input feeds several
projections (see :class:`~repro.llm.model.TransformerLayer`), and runs its
norms and activation as single NumPy expressions: at the 1–256 rows a serving
round feeds it, each NumPy call costs more than its arithmetic, so the block
is written to make as few calls as it can.

Weights are drawn from a seeded :class:`numpy.random.Generator` so that every
run of the substrate is deterministic — a requirement for reproducible
quality measurements.
"""

from __future__ import annotations

import numpy as np

__all__ = ["draw_weight", "rms_norm", "silu"]

RMS_NORM_EPS = 1e-6


def draw_weight(rng: np.random.Generator, in_features: int, out_features: int) -> np.ndarray:
    """A bias-free projection weight, drawn as the Llama-style ``(out, in)``
    matrix with std ``1/sqrt(in)`` and returned as its C-ordered ``(in,
    out)`` transpose, so a projection is ``x @ w``.  OpenBLAS multiplies a
    few rows by the C-ordered layout ~4x faster than by the transposed view
    at ``dim`` 128."""
    scale = 1.0 / np.sqrt(in_features)
    drawn = rng.normal(0.0, scale, size=(out_features, in_features)).astype(np.float32)
    return np.ascontiguousarray(drawn.T)


def rms_norm(x: np.ndarray) -> np.ndarray:
    """Root-mean-square norm over the last axis (no mean subtraction).

    The learned gain is all ones at initialisation, so the model folds it
    into the weight that reads the norm's output.
    """
    return x / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + RMS_NORM_EPS)


def silu(x: np.ndarray) -> np.ndarray:
    """``x * sigmoid(x)`` as ``h * (1 + tanh(h))`` with ``h = x / 2``.

    tanh saturates instead of overflowing, so the large-magnitude
    activations that batched rows stack into one matmul stay finite and
    raise no floating-point warning; halving first keeps ``|result| <= |x|``
    for float32 inputs up to the type's largest value.
    """
    half = 0.5 * x
    return half * (1.0 + np.tanh(half))
