"""KV cache management substrate (Section 2/3 of the paper)."""

from .cache import DynamicCache, LayerKVCache, NativeAttentionCache
from .serialization import (
    KVSnapshot,
    snapshot_from_bytes,
    snapshot_from_cache,
    snapshot_to_bytes,
)

__all__ = [
    "DynamicCache",
    "KVSnapshot",
    "LayerKVCache",
    "NativeAttentionCache",
    "snapshot_from_bytes",
    "snapshot_from_cache",
    "snapshot_to_bytes",
]
