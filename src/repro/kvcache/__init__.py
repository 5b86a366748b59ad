"""KV cache management substrate (Section 2/3 of the paper)."""

from .cache import DynamicCache, LayerKVCache, NativeAttentionCache
from .compression import (
    CompressedKV,
    QuantizedTensor,
    compress_kv,
    decompress_kv,
    dequantize_tensor,
    quantize_tensor,
)
from .serialization import (
    KVSnapshot,
    load_snapshot,
    save_snapshot,
    snapshot_from_bytes,
    snapshot_from_cache,
    snapshot_to_bytes,
)

__all__ = [
    "CompressedKV",
    "DynamicCache",
    "KVSnapshot",
    "LayerKVCache",
    "NativeAttentionCache",
    "QuantizedTensor",
    "compress_kv",
    "decompress_kv",
    "dequantize_tensor",
    "load_snapshot",
    "quantize_tensor",
    "save_snapshot",
    "snapshot_from_bytes",
    "snapshot_from_cache",
    "snapshot_to_bytes",
]
