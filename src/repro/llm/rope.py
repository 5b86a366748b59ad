"""Rotary position embeddings (RoPE).

Llama-family models encode token positions by rotating pairs of query/key
channels with position-dependent angles.  AlayaDB stores *pre-rotated* key
vectors in its vector indexes, so the inner product used by the DIPR query is
exactly the pre-softmax attention logit.  This module provides the same
rotation used by the NumPy transformer substrate.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RotaryEmbedding", "apply_rotary"]


class RotaryEmbedding:
    """Precomputed rotary embedding table.

    Parameters
    ----------
    head_dim:
        Dimensionality of a single attention head.  Must be even.
    max_positions:
        Number of positions to precompute.  The table grows automatically if
        a larger position is requested.
    base:
        The RoPE frequency base (10000.0 in Llama).
    """

    def __init__(self, head_dim: int, max_positions: int = 4096, base: float = 10000.0):
        if head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even, got {head_dim}")
        self.head_dim = head_dim
        self.base = float(base)
        inv_freq = 1.0 / (self.base ** (np.arange(0, head_dim, 2, dtype=np.float64) / head_dim))
        self._inv_freq = inv_freq.astype(np.float64)
        self._cos = np.empty((0, head_dim // 2), dtype=np.float32)
        self._sin = np.empty((0, head_dim // 2), dtype=np.float32)
        self._extend(max_positions)

    def _extend(self, max_positions: int) -> None:
        """Grow the cos/sin tables to cover ``max_positions`` positions."""
        current = self._cos.shape[0]
        if max_positions <= current:
            return
        positions = np.arange(current, max_positions, dtype=np.float64)
        angles = np.outer(positions, self._inv_freq)
        self._cos = np.concatenate([self._cos, np.cos(angles).astype(np.float32)], axis=0)
        self._sin = np.concatenate([self._sin, np.sin(angles).astype(np.float32)], axis=0)

    def tables(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(cos, sin)`` tables for the given integer positions."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and int(positions.max()) >= self._cos.shape[0]:
            self._extend(int(positions.max()) + 1)
        return self._cos[positions], self._sin[positions]

    def rotate(self, x: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Apply the rotation to ``x``.

        Parameters
        ----------
        x:
            Array of shape ``(..., seq, head_dim)``.
        positions:
            Integer positions of shape ``(seq,)``.
        """
        cos, sin = self.tables(positions)
        return apply_rotary(x, cos, sin)


def apply_rotary(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate channel pairs of the float32 array ``x`` by the given tables.

    ``x`` has shape ``(..., seq, head_dim)``; ``cos``/``sin`` have shape
    ``(seq, head_dim // 2)`` and broadcast over the leading axes, so one
    call rotates every head (the model rotates its query and key heads
    together).  The first half of the head dimension is paired with the
    second half (the "rotate_half" convention used by Llama).
    """
    half = x.shape[-1] // 2
    x1 = x[..., :half]
    x2 = x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1)
