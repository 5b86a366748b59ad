"""The AlayaDB core: user interface, query optimizer and attention engine."""

from .attention_engine import AttentionBreakdown, DataCentricAttentionEngine
from .config import AlayaDBConfig
from .context_store import ContextStore, PrefixMatch, StoredContext
from .db import DB
from .decode_round import CrossRequestDecodeRound, StageTimings
from .handles import ChatSession, ChatTurn, RequestHandle
from .optimizer import QueryContext, RuleBasedOptimizer
from .planner import ExecutionPlan, LayerIndexData, PlanExecutor, RetrievalOutcome
from .service import InferenceService, RequestRecord, ServiceStats
from .session import DecodeStepStats, LayerInputs, Session
from .window_cache import WindowCache

__all__ = [
    "AlayaDBConfig",
    "AttentionBreakdown",
    "ChatSession",
    "ChatTurn",
    "ContextStore",
    "CrossRequestDecodeRound",
    "DB",
    "LayerInputs",
    "StageTimings",
    "RequestHandle",
    "DataCentricAttentionEngine",
    "DecodeStepStats",
    "InferenceService",
    "ExecutionPlan",
    "LayerIndexData",
    "PlanExecutor",
    "PrefixMatch",
    "QueryContext",
    "RequestRecord",
    "RetrievalOutcome",
    "ServiceStats",
    "RuleBasedOptimizer",
    "Session",
    "StoredContext",
    "WindowCache",
]
