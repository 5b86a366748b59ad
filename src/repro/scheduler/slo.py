"""Service level objectives (SLOs) for LLM serving.

The paper evaluates every method under the SLO "TPOT ≤ 0.24 s" (human reading
speed) and reports which methods can meet it.  A request carries its own
:class:`SLO` (or is judged against the service's default); the verdict is
taken once per finished request from its measured latencies, and
:class:`SLOReport` aggregates those verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SLO",
    "SLOReport",
    "HUMAN_READING_TPOT",
    "INTERACTIVE_SLO",
    "BATCH_SLO",
    "percentiles",
]


HUMAN_READING_TPOT = 0.24
"""Seconds per output token at human reading speed (the paper's decode SLO)."""


@dataclass(frozen=True)
class SLO:
    """Latency targets for the two inference phases (seconds)."""

    tpot_seconds: float = HUMAN_READING_TPOT
    ttft_seconds: float | None = None

    def check_tpot(self, measured: float) -> bool:
        return measured <= self.tpot_seconds

    def check_ttft(self, measured: float) -> bool:
        if self.ttft_seconds is None:
            return True
        return measured <= self.ttft_seconds

    def attained(self, ttft_seconds: float, tpot_seconds: float) -> bool:
        """One request's verdict from its measured client-seen TTFT (queue +
        first token) and TPOT.  A request that decoded at most one token has
        TPOT 0 and is judged on TTFT alone."""
        return self.check_ttft(ttft_seconds) and (
            tpot_seconds == 0.0 or self.check_tpot(tpot_seconds)
        )

    def ttft_slack(self, waited_seconds: float) -> float:
        """Seconds remaining until the TTFT deadline after waiting this long.

        Negative once the deadline has passed; ``+inf`` when no TTFT target is
        configured.  Deadline-aware schedulers order requests by this slack.
        """
        if self.ttft_seconds is None:
            return math.inf
        return self.ttft_seconds - waited_seconds


INTERACTIVE_SLO = SLO(tpot_seconds=HUMAN_READING_TPOT, ttft_seconds=2.0)
"""A chat-style request class: human-reading TPOT plus a tight TTFT deadline."""

BATCH_SLO = SLO(tpot_seconds=4 * HUMAN_READING_TPOT, ttft_seconds=None)
"""A throughput-oriented request class with no TTFT deadline."""


def percentiles(values: list[float]) -> dict[str, float]:
    """p50/p95/p99 of a latency sample (zeros when it is empty)."""
    if not values:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    arr = np.asarray(values, dtype=np.float64)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
    }


@dataclass
class SLOReport:
    """SLO attainment over finished requests, from their measured latencies."""

    num_requests: int
    attained: int
    """Requests whose own SLO held (see :meth:`SLO.attained`)."""
    ttft_seconds: dict[str, float]
    """Client-seen first-token latency percentiles (queue + first token)."""
    tpot_seconds: dict[str, float]

    @property
    def attainment(self) -> float:
        return self.attained / max(self.num_requests, 1)
