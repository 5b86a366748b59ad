"""KV cache management substrate (Section 2/3 of the paper)."""

from .cache import DynamicCache, LayerKVCache, NativeAttentionCache
from .serialization import (
    KVSnapshot,
    load_snapshot,
    save_snapshot,
    snapshot_from_bytes,
    snapshot_from_cache,
    snapshot_to_bytes,
)

__all__ = [
    "DynamicCache",
    "KVSnapshot",
    "LayerKVCache",
    "NativeAttentionCache",
    "load_snapshot",
    "save_snapshot",
    "snapshot_from_bytes",
    "snapshot_from_cache",
    "snapshot_to_bytes",
]
