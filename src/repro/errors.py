"""Exception hierarchy for the AlayaDB reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Sub-classes are grouped by subsystem (database interface,
query processing, index, storage, simulator) mirroring the layer map in
ARCHITECTURE.md.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class DatabaseError(ReproError):
    """Base class for errors raised by the DB / Session user interface."""


class SessionClosedError(DatabaseError):
    """An operation was attempted on a session that has been closed."""


class ContextNotFoundError(DatabaseError):
    """A requested context id does not exist in the context store."""


class DuplicateContextError(DatabaseError):
    """A context with the same id has already been imported."""


class ContextEvictedError(DatabaseError):
    """The KV data of a spilled context was accessed without reloading it."""


class AdmissionRejectedError(DatabaseError):
    """A request was rejected by admission control (it can never fit the
    configured GPU memory budget)."""


class RequestFailedError(DatabaseError):
    """A scheduled request failed mid-round (``begin_request`` or
    ``finish_request`` raised); the original error message is carried in
    ``args[0]``."""


class RequestCancelledError(DatabaseError):
    """The result of a cancelled request was demanded; cancelled requests
    produce no :class:`GenerationResult`."""


class UnknownTenantError(DatabaseError):
    """A request named a tenant the service does not know and the tenant
    registry runs in strict mode (``strict_tenants``)."""


class TenantThrottledError(DatabaseError):
    """Backpressure: the tenant's queue is at its depth limit, so the request
    was refused at submission instead of queuing without bound.  Carries what
    an HTTP frontend needs for a 429 response: the tenant, its current queue
    depth, the position this request *would* have taken, and a retry hint."""

    def __init__(
        self,
        message: str,
        *,
        tenant: str = "default",
        queue_depth: int = 0,
        queue_position: int = 0,
        retry_after_seconds: float = 1.0,
    ):
        super().__init__(message)
        self.tenant = tenant
        self.queue_depth = queue_depth
        self.queue_position = queue_position
        self.retry_after_seconds = retry_after_seconds


class QueryError(ReproError):
    """Base class for query-processing errors."""


class UnsupportedQueryError(QueryError):
    """The selected index type cannot process the requested query type."""


class PlanningError(QueryError):
    """The query optimizer could not produce a valid execution plan."""


class IndexError_(ReproError):
    """Base class for vector-index errors (named with a trailing underscore to
    avoid shadowing the built-in :class:`IndexError`)."""


class IndexNotBuiltError(IndexError_):
    """A search was issued against an index that has not been built yet."""


class StorageError(ReproError):
    """Base class for storage-backend and persisted-format errors."""


class ContextLoadError(StorageError):
    """Persisted context data (snapshot, index file, or manifest) is missing,
    truncated, corrupted, or written by an incompatible format version."""


class SimulatorError(ReproError):
    """Base class for device-simulator errors."""


class OutOfDeviceMemoryError(SimulatorError):
    """An allocation exceeded the simulated device memory capacity."""
