"""repro — a reproduction of AlayaDB (SIGMOD 2025).

AlayaDB decouples the KV cache and the attention computation from the LLM
inference engine and encapsulates both in a vector database.  The top-level
package re-exports the pieces most applications need:

* :class:`repro.core.DB` and :class:`repro.core.Session` — the user interface
  (Table 2 of the paper),
* :class:`repro.core.AlayaDBConfig` — serving configuration,
* :class:`repro.core.InferenceService` with :class:`repro.core.RequestHandle`
  and :class:`repro.core.ChatSession` — the serving API (streaming handles,
  multi-turn chat with cross-turn KV reuse, cancellation), with an
  OpenAI-style facade in :mod:`repro.api`,
* :class:`repro.llm.TransformerModel` — the NumPy LLM substrate the examples
  and benchmarks run against,
* :mod:`repro.baselines` — the systems AlayaDB is compared with,
* :mod:`repro.workloads` — synthetic ∞-Bench / LongBench-style tasks.

See ARCHITECTURE.md for the module → paper-component map and the full
serving stack.
"""

from .core.config import AlayaDBConfig
from .core.db import DB
from .core.handles import ChatSession, RequestHandle
from .core.service import InferenceService
from .core.session import Session
from .errors import ReproError
from .llm.model import ModelConfig, TransformerModel

__version__ = "1.0.0"

__all__ = [
    "AlayaDBConfig",
    "ChatSession",
    "DB",
    "InferenceService",
    "ModelConfig",
    "ReproError",
    "RequestHandle",
    "Session",
    "TransformerModel",
    "__version__",
]
