"""Configuration of the AlayaDB core."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..index.builder import IndexBuildConfig
from ..scheduler.slo import SLO
from ..scheduler.tenancy import TenantSpec

__all__ = ["AlayaDBConfig"]

BETA_REFERENCE_HEAD_DIM = 128
"""Head dimension ``dipr_beta`` is calibrated for (Llama-3, the paper's model)."""


@dataclass(frozen=True)
class AlayaDBConfig:
    """Tunables of the database (user interface → storage engine).

    The defaults mirror the paper's evaluation setup: a [128 initial + 512
    last] token window kept on the GPU, DIPR with ``beta = 50`` (calibrated
    for 128-dim heads and scaled to the substrate's head dimension at session
    creation, see :meth:`scaled_beta`), and the rule-based optimizer's
    thresholds.
    """

    # window cache (Section 7.1)
    window_initial_tokens: int = 128
    window_last_tokens: int = 512

    # DIPR defaults (Section 6.1)
    dipr_beta: float = 50.0
    dipr_capacity_threshold: int = 128

    # top-k defaults (used when the optimizer picks the coarse index)
    topk_k: int = 100
    coarse_block_size: int = 128
    coarse_num_blocks: int = 32

    # optimizer thresholds (Figure 8)
    short_context_threshold: int = 1024
    """Contexts at or below this length are served with full attention."""
    gpu_memory_budget_bytes: int = 16 << 30
    """The optimizer's budget, the only one its plan reads: a context whose
    whole KV (K + V, float32, every layer) fits routes to the coarse index,
    a larger one to DIPR.  Admission control has its own budget,
    ``scheduler_gpu_budget_bytes``."""
    flat_index_layers: tuple[int, ...] = (0,)
    """Layers whose DIPR queries go to the flat index (the first layer needs
    a large number of critical tokens, see Figure 5)."""

    # context reuse
    min_reuse_tokens: int = 16
    """Minimum common-prefix length worth reusing; shorter matches (e.g. just
    a shared BOS token) are ignored and the prompt is prefilled from scratch."""

    # retrieval safety valve
    max_retrieved_tokens: int | None = None

    # index construction
    index_build: IndexBuildConfig = field(default_factory=IndexBuildConfig)

    lazy_index_build: bool = False
    """When set, ``DB.import_context`` / ``DB.store`` build no index at
    registration: the first ``DB.create_session`` whose plans read an index
    the context lacks builds it, before the session is returned (so the
    build counts in that request's TTFT).  Shards are always built eagerly."""

    # serving SLO
    slo: SLO = field(default_factory=SLO)

    # request scheduler (Section 8, Model-as-a-Service)
    max_inflight_requests: int = 8
    """Maximum number of requests the scheduler keeps in flight at once."""

    prefill_chunk_tokens: int = 256
    """Prompt tokens prefilled per scheduler step; chunking lets decode steps
    of other in-flight requests interleave with a long prefill."""

    scheduler_policy: str = "fcfs"
    """Admission order: ``"fcfs"`` (arrival order) or ``"slo"`` (least TTFT
    slack first, then priority)."""

    preemption: bool = False
    """Under the ``"slo"`` policy: when a queued request's TTFT slack goes
    critical and every in-flight slot is taken, pause the in-flight request
    with the most slack (releasing its memory reservation and unpinning its
    stored context so the context store may spill it) and resume it when a
    slot frees."""

    preemption_slack_seconds: float = 0.5
    """A queued request is considered critical once its TTFT slack drops to
    this many seconds (or below)."""

    scheduler_gpu_budget_bytes: int | None = None
    """Global GPU-memory budget admission control enforces across all
    in-flight requests; ``None`` disables admission control."""

    # multi-tenant fairness and backpressure (the serving frontend's policy)
    tenant_fairness: bool = False
    """Route admission through a :class:`~repro.scheduler.tenancy.TenantGovernor`:
    deficit-round-robin weighted fair queuing across tenants (the FCFS/SLO
    policy still orders requests *within* each tenant), per-tenant in-flight
    and reserved-byte quotas, and queue-depth backpressure — an over-limit
    submission raises ``TenantThrottledError`` (HTTP 429) instead of queuing
    without bound.  Implied on when ``tenants`` is non-empty."""

    tenants: tuple[TenantSpec, ...] = ()
    """Declared tenants (name, DRR weight, quotas, backpressure threshold).
    Undeclared tenant ids are auto-registered with ``tenant_default_max_queued``
    and weight 1 unless ``strict_tenants`` rejects them."""

    strict_tenants: bool = False
    """Reject requests naming a tenant absent from ``tenants``
    (``UnknownTenantError``; the HTTP 400 path) instead of auto-registering."""

    tenant_default_max_queued: int | None = None
    """Backpressure threshold applied to auto-registered tenants (and the
    implicit ``default`` tenant); ``None`` never throttles them."""

    # async HTTP serving frontend
    http_host: str = "127.0.0.1"
    """Interface the asyncio HTTP server binds."""

    http_port: int = 8793
    """Port the asyncio HTTP server binds (0 picks an ephemeral port)."""

    http_max_body_bytes: int = 1 << 20
    """Largest accepted request body; beyond it the server answers 413."""

    # context-store residency budget (Section 7.3 applied to whole contexts)
    context_store_budget_bytes: int | None = None
    """Byte budget for KV snapshots resident in memory; colder contexts are
    spilled to the store's backend (so it requires ``context_db_path`` or a
    DB created with a ``backend``) and transparently reloaded on prefix
    hits.  ``None`` means unbounded."""

    # durable context database
    context_db_path: str | None = None
    """Directory of the durable context database.  When set, every stored
    context is persisted (snapshot + indexes + manifest row) as it is added,
    and a DB/service constructed over the same path recovers the whole
    context population — restart-and-reuse without re-prefilling."""

    # sharded context serving (context parallelism)
    num_shards: int = 1
    """Default shard count for ``DB.shard_context`` / the sharded router: a
    context's KV blocks and per-layer indexes are range-partitioned into this
    many token-range shards.  1 keeps the single-owner layout.  Shard
    boundaries are aligned down to ``coarse_block_size`` so shard-local
    coarse blocks coincide with the full-context blocks and the cross-shard
    block merge stays exact."""

    def __post_init__(self) -> None:
        if self.window_initial_tokens < 0 or self.window_last_tokens < 0:
            raise ConfigError("window sizes must be non-negative")
        if self.dipr_beta < 0:
            raise ConfigError(f"dipr_beta must be non-negative, got {self.dipr_beta}")
        if self.dipr_capacity_threshold <= 0:
            raise ConfigError(
                f"dipr_capacity_threshold must be positive, got {self.dipr_capacity_threshold}"
            )
        if self.max_retrieved_tokens is not None and self.max_retrieved_tokens <= 0:
            raise ConfigError(
                f"max_retrieved_tokens must be positive when set, got {self.max_retrieved_tokens}"
            )
        if self.topk_k <= 0:
            raise ConfigError(f"topk_k must be positive, got {self.topk_k}")
        if self.coarse_block_size <= 0:
            raise ConfigError(f"coarse_block_size must be positive, got {self.coarse_block_size}")
        if self.coarse_num_blocks <= 0:
            raise ConfigError(f"coarse_num_blocks must be positive, got {self.coarse_num_blocks}")
        if self.short_context_threshold < 0:
            raise ConfigError("short_context_threshold must be non-negative")
        if self.max_inflight_requests <= 0:
            raise ConfigError(
                f"max_inflight_requests must be positive, got {self.max_inflight_requests}"
            )
        if self.prefill_chunk_tokens <= 0:
            raise ConfigError(
                f"prefill_chunk_tokens must be positive, got {self.prefill_chunk_tokens}"
            )
        if self.scheduler_policy not in ("fcfs", "slo"):
            raise ConfigError(
                f"scheduler_policy must be 'fcfs' or 'slo', got {self.scheduler_policy!r}"
            )
        if self.preemption and self.scheduler_policy != "slo":
            raise ConfigError(
                "preemption requires scheduler_policy='slo' (FCFS defines no "
                "TTFT slack to preempt on)"
            )
        if self.preemption_slack_seconds < 0:
            raise ConfigError(
                f"preemption_slack_seconds must be non-negative, "
                f"got {self.preemption_slack_seconds}"
            )
        if self.scheduler_gpu_budget_bytes is not None and self.scheduler_gpu_budget_bytes <= 0:
            raise ConfigError(
                f"scheduler_gpu_budget_bytes must be positive when set, "
                f"got {self.scheduler_gpu_budget_bytes}"
            )
        if self.context_store_budget_bytes is not None and self.context_store_budget_bytes <= 0:
            raise ConfigError("context_store_budget_bytes must be positive when set")
        if self.tenant_default_max_queued is not None and self.tenant_default_max_queued <= 0:
            raise ConfigError(
                f"tenant_default_max_queued must be positive when set, "
                f"got {self.tenant_default_max_queued}"
            )
        names = [spec.name for spec in self.tenants]
        if len(names) != len(set(names)):
            raise ConfigError(f"tenant names must be unique, got {names}")
        if self.strict_tenants and not self.tenants:
            raise ConfigError("strict_tenants requires at least one declared tenant")
        if not 0 <= self.http_port <= 65535:
            raise ConfigError(f"http_port must be in [0, 65535], got {self.http_port}")
        if self.http_max_body_bytes <= 0:
            raise ConfigError(
                f"http_max_body_bytes must be positive, got {self.http_max_body_bytes}"
            )
        if self.num_shards < 1:
            raise ConfigError(f"num_shards must be at least 1, got {self.num_shards}")

    @property
    def window_total_tokens(self) -> int:
        return self.window_initial_tokens + self.window_last_tokens

    @property
    def tenant_governance_enabled(self) -> bool:
        """Whether the service should construct a ``TenantGovernor``."""
        return (
            self.tenant_fairness
            or bool(self.tenants)
            or self.strict_tenants
            or self.tenant_default_max_queued is not None
        )

    def scaled_beta(self, head_dim: int) -> float:
        """The DIPR ``beta`` adjusted for the substrate's head dimension.

        ``beta`` is proportional to ``sqrt(d)`` (Theorem 1), so ``dipr_beta``,
        read as a value tuned on Llama's 128-dim heads, is rescaled to this
        model's head width.
        """
        return self.dipr_beta * (head_dim / BETA_REFERENCE_HEAD_DIM) ** 0.5
