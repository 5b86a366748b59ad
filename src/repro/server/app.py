"""The asyncio HTTP serving frontend over :class:`InferenceService`.

``AlayaDBServer`` turns the in-process serving API into a network service
without adding a dependency or a thread: one asyncio event loop hosts the
listener, every connection handler, and a *pump* coroutine that runs
``service.step()`` whenever the scheduler has work, broadcasting a step
event that waiting handlers use to notice new tokens.  The substrate stays
single-threaded — "concurrency" is the same step-interleaving the scheduler
already does, now driven by the event loop instead of a blocking handle.

Endpoints (see ``ARCHITECTURE.md`` for the full table):

* ``POST /v1/completions`` — the ``repro.api`` surface over the wire: JSON
  body in, either a JSON completion or a server-sent-event stream of token
  chunks out (``stream: true``);
* ``DELETE /v1/requests/{id}`` — cancel, wherever the request lives;
* ``GET /v1/stats`` — server counters + ``memory_report()`` (including the
  per-tenant fairness rows) + scheduler stats;
* ``GET /v1/health`` — ``serving`` / ``draining`` / ``stopped``.

A client that disconnects mid-stream has its request cancelled through
``RequestScheduler.cancel`` — the admission reservation is released and the
session's context pins returned, exactly as an explicit ``cancel()``.
Tenant backpressure surfaces as HTTP 429 with ``Retry-After`` and
``X-Queue-Position`` headers; malformed and oversized bodies as structured
400/413 JSON errors.  :meth:`AlayaDBServer.shutdown` drains (or cancels) all
in-flight work and asserts the soak-test invariants — zero pinned contexts,
zero admission reservations, no non-terminal requests — via
:func:`check_drained`.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import asdict, dataclass

from ..core.service import InferenceService
from ..errors import TenantThrottledError, UnknownTenantError
from ..scheduler.request import RequestState
from ..scheduler.slo import SLO
from .http import (
    HttpError,
    HttpRequest,
    error_response,
    json_response,
    read_request,
    sse_event,
    sse_headers,
)

__all__ = ["ServerStats", "AlayaDBServer", "check_drained"]

_COMPLETION_FIELDS = {
    "prompt",
    "max_new_tokens",
    "stream",
    "priority",
    "tenant",
    "store_context_id",
    "slo",
}


@dataclass
class ServerStats:
    """Counters describing frontend activity since the server started."""

    connections: int = 0
    requests: int = 0
    """HTTP requests parsed (any endpoint)."""
    completions: int = 0
    """Completion requests accepted (streaming and non-streaming)."""
    streams_started: int = 0
    streams_completed: int = 0
    """Streams that delivered their full token sequence and ``[DONE]``."""
    disconnect_cancels: int = 0
    """Requests cancelled because their client dropped the connection."""
    throttled: int = 0
    """Completions refused with 429 (tenant backpressure)."""
    client_errors: int = 0
    """4xx responses (malformed bodies, unknown tenants, unknown routes)."""


def check_drained(service: InferenceService) -> None:
    """Assert the drain-time invariants the serving soak establishes.

    After a drain nothing may linger: no scheduler work, no non-terminal
    request, zero admission reservations, no tenant with a request in flight
    or bytes reserved, zero pinned contexts, no live execution state, a
    consistent residency ledger (the store's LRU lists exactly the resident
    contexts, and with nothing pinned the byte budget holds unless a single
    context alone exceeds it), and no storage write or delete still pending
    (flush the store first).  Raises ``AssertionError`` naming every
    violated invariant (so a failing shutdown reports all of them, not just
    the first).
    """
    problems: list[str] = []
    scheduler = service.scheduler
    if scheduler.has_work:
        problems.append(
            f"scheduler still has work: queue={scheduler.queue_depth} "
            f"inflight={scheduler.num_inflight} preempted={scheduler.num_preempted}"
        )
    if scheduler.admission.committed_bytes != 0:
        problems.append(
            f"admission reservations leaked: {scheduler.admission.committed_bytes} bytes"
        )
    tenants = scheduler.tenants
    for name in tenants.known_tenants():
        stats = tenants.stats(name)
        if stats.inflight or stats.reserved_bytes:
            problems.append(
                f"tenant {name!r} ledger leaked: inflight={stats.inflight} "
                f"reserved_bytes={stats.reserved_bytes}"
            )
    registry = service.db.store_registry
    if registry.num_pinned != 0:
        problems.append(f"pinned contexts leaked: {registry.pinned_ids()}")
    if service._live:
        problems.append(f"live execution state leaked: {sorted(service._live)}")
    # the store sums its resident byte totals over the LRU, so an LRU that
    # names exactly the resident contexts makes those totals exact too
    resident = sorted(cid for cid, context in registry.items() if context.is_resident)
    ledger = sorted(registry.resident_ids())
    if ledger != resident:
        problems.append(f"residency ledger drift: LRU={ledger} resident={resident}")
    budget = registry.kv_budget_bytes
    over_budget = budget is not None and registry.resident_kv_bytes > budget
    if over_budget and registry.num_pinned == 0 and len(resident) > 1:
        problems.append(
            f"byte budget exceeded with nothing pinned: {registry.resident_kv_bytes} > {budget}"
        )
    pending = registry.backend.pending_ops if registry.backend is not None else 0
    if pending:
        problems.append(f"storage operations still pending (not flushed): {pending}")
    if problems:
        raise AssertionError("drain invariants violated:\n  " + "\n  ".join(problems))


class AlayaDBServer:
    """An asyncio HTTP/1.1 + SSE frontend bound to one ``InferenceService``."""

    def __init__(
        self,
        service: InferenceService,
        host: str | None = None,
        port: int | None = None,
        max_body_bytes: int | None = None,
    ):
        config = service.config
        self.service = service
        self.host = host if host is not None else config.http_host
        self.port = port if port is not None else config.http_port
        self.max_body_bytes = (
            max_body_bytes if max_body_bytes is not None else config.http_max_body_bytes
        )
        self.stats = ServerStats()
        self.state = "created"
        """``created`` → ``serving`` → ``draining`` → ``stopped``."""
        self._server: asyncio.AbstractServer | None = None
        self._pump_task: asyncio.Task | None = None
        self._work_event = asyncio.Event()
        self._step_event = asyncio.Event()
        self._open_completions = 0
        """Completion handlers currently waiting on or streaming a request."""
        self._live_http_requests: set[int] = set()
        """Request ids submitted over HTTP and not yet answered (the set a
        cancel-mode shutdown tears down)."""

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (resolving port 0 to the real one) and start the
        scheduler pump."""
        if self.state != "created":
            raise RuntimeError(f"server already {self.state}")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.create_task(self._pump())
        self.state = "serving"

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    async def shutdown(self, drain: bool = True, max_seconds: float = 60.0) -> None:
        """Graceful shutdown: stop accepting, settle in-flight work, verify.

        ``drain=True`` lets every in-flight stream finish (the pump keeps
        stepping); ``drain=False`` cancels every HTTP-submitted request so
        streams end with a ``cancelled`` finish reason.  Either way the
        scheduler is then stepped dry, the context store flushed (every
        stored context is durable), and :func:`check_drained` asserts the
        exit is clean — zero pinned contexts, zero reservations, no
        non-terminal requests, nothing pending in storage.
        """
        if self.state in ("stopped",):
            return
        self.state = "draining"
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if not drain:
            for request_id in list(self._live_http_requests):
                self.service.cancel(request_id)
        self._kick()
        deadline = asyncio.get_running_loop().time() + max_seconds
        while self._open_completions or self.service.scheduler.has_work:
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError(
                    f"shutdown did not settle within {max_seconds}s: "
                    f"{self._open_completions} open handlers, "
                    f"scheduler has_work={self.service.scheduler.has_work}"
                )
            self._kick()
            await asyncio.sleep(0.005)
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        self.state = "stopped"
        # drain means durable: every stored context has landed on disk
        await asyncio.to_thread(self.service.db.store_registry.flush)
        check_drained(self.service)

    # ------------------------------------------------------------------
    # the scheduler pump
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        """Step the scheduler whenever it has work; park on an event when idle.

        Handlers never call ``service.step()`` themselves — they wait for the
        broadcast step event and re-read their request's state, so a single
        scheduler round serves every connection at once (the asyncio
        equivalent of the in-process continuous-batching loop).
        """
        while True:
            if self.service.scheduler.has_work:
                self.service.step()
                self._broadcast_step()
                await asyncio.sleep(0)
            else:
                self._work_event.clear()
                await self._work_event.wait()

    def _broadcast_step(self) -> None:
        event, self._step_event = self._step_event, asyncio.Event()
        event.set()

    def _kick(self) -> None:
        """Wake the pump and every handler parked on the step event (used
        after out-of-band state changes: submit, cancel, shutdown)."""
        self._work_event.set()
        self._broadcast_step()

    async def _wait_progress(self, watcher: asyncio.Task | None) -> bool:
        """Park until the next scheduler step; ``True`` when the client's
        connection died first (``watcher`` completed with EOF)."""
        step_event = self._step_event  # capture before awaiting: no lost wakeup
        self._work_event.set()
        waiter = asyncio.create_task(step_event.wait())
        pending = {waiter} if watcher is None else {waiter, watcher}
        done, _ = await asyncio.wait(pending, return_when=asyncio.FIRST_COMPLETED)
        if not waiter.done():
            waiter.cancel()
        if watcher is None or watcher not in done:
            return False
        # EOF and a reset both mean the client is gone; only a stray data
        # byte (a pipelining client) is not a disconnect
        return watcher.exception() is not None or watcher.result() == b""

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        try:
            while True:
                try:
                    request = await read_request(reader, self.max_body_bytes)
                except HttpError as exc:
                    self.stats.client_errors += 1
                    writer.write(error_response(exc, close=True))
                    await writer.drain()
                    return
                if request is None:
                    return  # clean EOF between requests
                self.stats.requests += 1
                try:
                    keep_going = await self._dispatch(request, reader, writer)
                except HttpError as exc:
                    if 400 <= exc.status < 500:
                        self.stats.client_errors += 1
                    writer.write(error_response(exc, close=not request.keep_alive))
                    await writer.drain()
                    keep_going = request.keep_alive
                if not keep_going:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            return  # the client went away mid-exchange; nothing left to say
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(
        self, request: HttpRequest, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns whether the connection may be reused."""
        path = request.path
        if path == "/v1/completions":
            if request.method != "POST":
                raise HttpError(405, "method_not_allowed", "use POST", {"Allow": "POST"})
            if self.state != "serving":
                raise HttpError(
                    503, "draining", "the server is draining and accepts no new requests"
                )
            await self._handle_completions(request, reader, writer)
            return False  # completions always close (SSE framing / read-ahead watcher)
        if path.startswith("/v1/requests/"):
            if request.method != "DELETE":
                raise HttpError(405, "method_not_allowed", "use DELETE", {"Allow": "DELETE"})
            return await self._respond(writer, self._handle_cancel(path), request.keep_alive)
        if path == "/v1/stats":
            if request.method != "GET":
                raise HttpError(405, "method_not_allowed", "use GET", {"Allow": "GET"})
            return await self._respond(writer, json_response(200, self._stats_payload()), request.keep_alive)
        if path == "/v1/health":
            if request.method != "GET":
                raise HttpError(405, "method_not_allowed", "use GET", {"Allow": "GET"})
            return await self._respond(
                writer, json_response(200, {"status": self.state}), request.keep_alive
            )
        raise HttpError(404, "not_found", f"no route for {request.method} {path}")

    async def _respond(
        self, writer: asyncio.StreamWriter, payload: bytes, keep_alive: bool
    ) -> bool:
        writer.write(payload)
        await writer.drain()
        return keep_alive

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _handle_cancel(self, path: str) -> bytes:
        raw_id = path.removeprefix("/v1/requests/")
        try:
            request_id = int(raw_id)
        except ValueError:
            raise HttpError(400, "invalid_request_id", f"request id {raw_id!r} is not an integer")
        cancelled = self.service.cancel(request_id)
        if cancelled:
            self._kick()  # wake the stream (if any) so it observes CANCELLED
        return json_response(200, {"request_id": request_id, "cancelled": cancelled})

    def _stats_payload(self) -> dict:
        scheduler = self.service.scheduler.stats
        return {
            "state": self.state,
            "server": asdict(self.stats),
            "scheduler": asdict(scheduler),
            "memory": self.service.memory_report(),
        }

    def _parse_completion_payload(self, request: HttpRequest) -> dict:
        payload = request.json()
        unknown = sorted(set(payload) - _COMPLETION_FIELDS)
        if unknown:
            raise HttpError(
                400,
                "unknown_field",
                f"unknown field(s) {', '.join(map(repr, unknown))}; "
                f"expected a subset of {sorted(_COMPLETION_FIELDS)}",
            )
        prompt = payload.get("prompt")
        token_prompt = isinstance(prompt, list) and all(
            isinstance(t, int) and not isinstance(t, bool) for t in prompt
        )
        if not token_prompt and not isinstance(prompt, str):
            raise HttpError(
                400, "invalid_request", "prompt must be a string or a list of token ids"
            )
        max_new_tokens = payload.get("max_new_tokens", 16)
        if isinstance(max_new_tokens, bool) or not isinstance(max_new_tokens, int):
            raise HttpError(400, "invalid_request", "max_new_tokens must be an integer")
        priority = payload.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise HttpError(400, "invalid_request", "priority must be an integer")
        stream = payload.get("stream", False)
        if not isinstance(stream, bool):
            raise HttpError(400, "invalid_request", "stream must be a boolean")
        tenant = payload.get("tenant")
        if tenant is not None and not isinstance(tenant, str):
            raise HttpError(400, "invalid_request", "tenant must be a string")
        store_context_id = payload.get("store_context_id")
        if store_context_id is not None and not isinstance(store_context_id, str):
            raise HttpError(400, "invalid_request", "store_context_id must be a string")
        slo = payload.get("slo")
        if slo is not None:
            if not isinstance(slo, dict) or not set(slo) <= {"ttft_seconds", "tpot_seconds"}:
                raise HttpError(
                    400,
                    "invalid_request",
                    "slo must be an object with ttft_seconds and/or tpot_seconds",
                )
            try:
                slo = SLO(**{k: float(v) for k, v in slo.items()})
            except (TypeError, ValueError):
                raise HttpError(400, "invalid_request", "slo fields must be numbers")
        return {
            "prompt": prompt,
            "max_new_tokens": max_new_tokens,
            "priority": priority,
            "stream": stream,
            "tenant": tenant,
            "store_context_id": store_context_id,
            "slo": slo,
        }

    def _submit(self, fields: dict):
        try:
            return self.service.submit(
                fields["prompt"],
                max_new_tokens=fields["max_new_tokens"],
                priority=fields["priority"],
                slo=fields["slo"],
                store_context_id=fields["store_context_id"],
                tenant=fields["tenant"],
            )
        except UnknownTenantError as exc:
            raise HttpError(400, "unknown_tenant", str(exc))
        except TenantThrottledError as exc:
            self.stats.throttled += 1
            raise HttpError(
                429,
                "tenant_throttled",
                str(exc),
                headers={
                    "Retry-After": str(int(math.ceil(exc.retry_after_seconds))),
                    "X-Queue-Position": str(exc.queue_position),
                    "X-Queue-Depth": str(exc.queue_depth),
                    "X-Tenant": exc.tenant,
                },
            )
        except ValueError as exc:
            raise HttpError(400, "invalid_request", str(exc))

    async def _handle_completions(
        self, request: HttpRequest, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        fields = self._parse_completion_payload(request)
        handle = self._submit(fields)
        request_id = handle.request_id
        self.stats.completions += 1
        self._live_http_requests.add(request_id)
        self._open_completions += 1
        # one byte of read-ahead doubles as the disconnect detector: a client
        # that drops the connection resolves it with EOF (b"") and the
        # request is cancelled so its reservation and pins free immediately
        watcher = asyncio.create_task(reader.read(1))
        self._kick()
        try:
            if fields["stream"]:
                await self._stream_completion(handle, writer, watcher)
            else:
                await self._blocking_completion(handle, writer, watcher)
        finally:
            self._open_completions -= 1
            self._live_http_requests.discard(request_id)
            if not watcher.done():
                watcher.cancel()

    def _disconnected(self, handle) -> None:
        """The client is gone: cancel its request and free its resources."""
        if self.service.cancel(handle.request_id):
            self.stats.disconnect_cancels += 1
            self._kick()

    def _completion_id(self, request_id: int) -> str:
        return f"cmpl-{request_id:08d}"

    def _finish_payload(self, handle) -> dict:
        """The terminal-state summary shared by both response shapes."""
        request_id = handle.request_id
        state = handle.status
        payload: dict = {
            "id": self._completion_id(request_id),
            "request_id": request_id,
            "status": state,
        }
        if state == RequestState.FINISHED:
            outcome = self.service.result(request_id)
            if outcome is None:  # aged out of the retained-results window
                payload["finish_reason"] = "unavailable"
                return payload
            result, record = outcome
            payload.update(
                finish_reason="stop" if result.finished_by_eos else "length",
                text=result.text,
                token_ids=[int(t) for t in result.generated_tokens],
                usage={
                    "prompt_tokens": record.prompt_tokens,
                    "completion_tokens": record.generated_tokens,
                    "reused_tokens": record.reused_tokens,
                    "total_tokens": record.prompt_tokens + record.generated_tokens,
                },
                ttft_seconds=record.ttft_seconds,
            )
        elif state == RequestState.CANCELLED:
            payload["finish_reason"] = "cancelled"
        elif state == RequestState.REJECTED:
            payload["finish_reason"] = "rejected"
        elif state == RequestState.FAILED:
            payload["finish_reason"] = "failed"
            payload["error"] = handle.request.error
        return payload

    async def _blocking_completion(self, handle, writer, watcher: asyncio.Task) -> None:
        while not handle.is_done:
            if await self._wait_progress(watcher):
                self._disconnected(handle)
                return  # nobody is listening for the response
            if watcher.done():
                watcher = None  # a pipelined byte arrived; stop watching
        payload = self._finish_payload(handle)
        status = {
            RequestState.FINISHED: 200,
            RequestState.CANCELLED: 499,
            RequestState.REJECTED: 422,
            RequestState.FAILED: 500,
        }.get(handle.status, 500)
        writer.write(json_response(status, payload, close=True))
        await writer.drain()

    async def _stream_completion(self, handle, writer, watcher: asyncio.Task) -> None:
        request_id = handle.request_id
        completion_id = self._completion_id(request_id)
        self.stats.streams_started += 1
        writer.write(sse_headers({"X-Request-Id": str(request_id)}))
        emitted = 0
        tokenizer = self.service.db.tokenizer
        try:
            while True:
                tokens = self.service.generated_tokens(request_id)
                while emitted < len(tokens):
                    token_id = tokens[emitted]
                    writer.write(
                        sse_event(
                            {
                                "id": completion_id,
                                "index": emitted,
                                "token_id": int(token_id),
                                "text": tokenizer.decode([token_id]),
                            }
                        )
                    )
                    emitted += 1
                await writer.drain()  # raises once the client is gone
                if handle.is_done:
                    # flush tokens recorded between the snapshot and finish
                    tokens = self.service.generated_tokens(request_id)
                    while emitted < len(tokens):
                        token_id = tokens[emitted]
                        writer.write(
                            sse_event(
                                {
                                    "id": completion_id,
                                    "index": emitted,
                                    "token_id": int(token_id),
                                    "text": tokenizer.decode([token_id]),
                                }
                            )
                        )
                        emitted += 1
                    final = self._finish_payload(handle)
                    final["done"] = True
                    writer.write(sse_event(final))
                    writer.write(sse_event("[DONE]"))
                    await writer.drain()
                    self.stats.streams_completed += 1
                    return
                if await self._wait_progress(watcher):
                    self._disconnected(handle)
                    return
                if watcher is not None and watcher.done():
                    watcher = None  # stray bytes from the client; stop watching
        except (ConnectionResetError, BrokenPipeError, OSError):
            self._disconnected(handle)
