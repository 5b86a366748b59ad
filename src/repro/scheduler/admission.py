"""Admission control against a global GPU-memory budget.

Every admitted request reserves its estimated GPU-resident footprint (window
cache + KV it will append during prefill and decode).  A request whose
estimate exceeds the whole budget can never run and is rejected outright; one
that merely doesn't fit *right now* is deferred until in-flight requests
finish and release their reservations.
"""

from __future__ import annotations

__all__ = ["AdmissionDecision", "AdmissionController"]


class AdmissionDecision:
    """Outcome of an admission check."""

    ADMIT = "admit"
    DEFER = "defer"
    REJECT = "reject"


class AdmissionController:
    """Reserves slices of a global byte budget for in-flight requests."""

    def __init__(self, budget_bytes: int | None = None):
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive when set, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._committed_bytes = 0

    @property
    def committed_bytes(self) -> int:
        return self._committed_bytes

    @property
    def available_bytes(self) -> float:
        if self.budget_bytes is None:
            return float("inf")
        return self.budget_bytes - self._committed_bytes

    def try_admit(self, estimated_bytes: int) -> str:
        """Admit (reserving the estimate), defer, or permanently reject."""
        if self.budget_bytes is not None:
            if estimated_bytes > self.budget_bytes:
                return AdmissionDecision.REJECT
            if self._committed_bytes + estimated_bytes > self.budget_bytes:
                return AdmissionDecision.DEFER
        self._committed_bytes += estimated_bytes
        return AdmissionDecision.ADMIT

    def try_reserve_more(self, additional_bytes: int) -> bool:
        """Grow an existing reservation: a preempted request resuming
        re-takes the slice of its reservation that preemption released."""
        if (
            self.budget_bytes is not None
            and self._committed_bytes + additional_bytes > self.budget_bytes
        ):
            return False
        self._committed_bytes += additional_bytes
        return True

    def release(self, reserved_bytes: int) -> None:
        """Return a finished request's reservation to the budget."""
        self._committed_bytes = max(0, self._committed_bytes - reserved_bytes)
