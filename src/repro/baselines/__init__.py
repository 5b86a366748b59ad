"""The systems AlayaDB is compared against in the paper's evaluation."""

from .alayadb_ttft import AlayaDBTTFTModel
from .base import SelectionOutcome, SelectionStrategy
from .diprs import DIPRSStrategy
from .full_attention import FullAttentionStrategy
from .infllm import InfLLMStrategy
from .lmcache import LMCacheStore, NoReusePrefill, TTFTBreakdown
from .streaming_llm import StreamingLLMStrategy
from .topk_retrieval import TopKRetrievalStrategy

__all__ = [
    "AlayaDBTTFTModel",
    "DIPRSStrategy",
    "FullAttentionStrategy",
    "InfLLMStrategy",
    "LMCacheStore",
    "NoReusePrefill",
    "SelectionOutcome",
    "SelectionStrategy",
    "StreamingLLMStrategy",
    "TTFTBreakdown",
    "TopKRetrievalStrategy",
]
