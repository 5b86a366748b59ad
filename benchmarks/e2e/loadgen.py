"""Set-up, load generators, client-side metrics and output checks.

The program is driven only through its stable surface:
``InferenceService(model, AlayaDBConfig(...))``, ``.ingest``, ``.submit`` ->
handle, ``.step``, ``.generated_tokens``, ``AlayaDBServer`` and the HTTP wire
(the SSE client below is the benchmark's own).  Load generator, program and
— on ``http_mix_open`` — server share one process, one thread and one asyncio
loop, so what a metric shows is the program's work, not a scheduler's choice
between processes.

Two generators share one scheduling rule (:class:`_Agenda`): an op becomes
ready when the op it follows has completed and its due time has come; at
most ``slots`` run at once.

* closed loop (``open_loop=False``): every op is due at once, so each of the
  ``slots`` logical clients sends its next request when its previous one
  completes.  Latency is timed from the send.
* open loop (``open_loop=True``): a session's first turn is due at its
  arrival time whatever the system is doing; a request that finds every slot
  busy waits in the generator and is timed from when it was *due*.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from repro import AlayaDBConfig, ModelConfig, TransformerModel
from repro.core.context_store import ContextStore
from repro.core.service import InferenceService
from repro.scheduler import TenantSpec
from repro.server import AlayaDBServer

from inputs import MODEL, SERVICE_CONFIG, TENANTS, Inputs, Op

MIN_TAIL_SAMPLES = 200
"""A p95 has ten samples beyond it only from here on; below, the report
flags the percentile as unsupported."""

WINDOW_S = 1.0
"""The timed phase is cut into windows of this length; see client_metrics."""


# ---------------------------------------------------------------------------
# what one request looked like from the caller's side
# ---------------------------------------------------------------------------
@dataclass
class Record:
    index: int
    kind: str
    origin: float
    """Closed loop: when the request was sent.  Open loop: when it was due."""
    sent: float
    sendable: float
    """When it could first have been sent: due, and a slot free.  ``sent``
    minus this is the generator's own lag."""
    token_times: list[float] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    status: str = "pending"
    """``ok`` | ``cancelled`` (the client cancelled and the request ended
    CANCELLED) | ``failed`` | ``refused`` | ``skipped`` (its predecessor did
    not finish)."""
    intended_cancel: bool = False
    cancel_sent: bool = False
    """The client did cancel (an early EOS can end a request before that)."""
    request_id: int | None = None
    wire_bytes: int = 0
    """Response bytes the client read (HTTP only)."""

    @property
    def is_request(self) -> bool:
        return self.kind != "ingest"


@dataclass
class Pass:
    """One drive of a request list."""

    records: list[Record]
    open_loop: bool
    marks: list[tuple[float, float, float]]
    """(wall s, CPU s, ``calibrate()`` s) at the start, every ``WINDOW_S``
    after it and at the end (the last token seen): the window boundaries and
    the box's speed there."""
    seconds: float | None = None
    backlog_at_end_of_schedule: int = 0

    @property
    def wall_s(self) -> float:
        return self.marks[-1][0]

    @property
    def cpu_s(self) -> float:
        return self.marks[-1][1]

    @property
    def busy_s(self) -> float:
        """What tracing overhead is measured on: an open loop's wall follows
        its schedule, so its CPU time stands in."""
        return self.cpu_s if self.open_loop else self.wall_s

    @property
    def requests(self) -> list[Record]:
        return [r for r in self.records if r.is_request]

    @property
    def out_tokens(self) -> int:
        return sum(len(r.token_times) for r in self.requests)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.status not in ("ok", "cancelled"))

    def counts(self) -> dict:
        return {
            "ops_attempted": len(self.records),
            "requests_sent": len(self.requests),
            "requests_succeeded": sum(1 for r in self.requests if r.status == "ok"),
            "requests_cancelled": sum(1 for r in self.requests if r.status == "cancelled"),
            "requests_failed": sum(1 for r in self.requests if r.status not in ("ok", "cancelled")),
        }

    def lag_ms(self) -> list[float]:
        return [1e3 * (r.sent - r.sendable) for r in self.requests if r.status != "skipped"]


_CAL_A = np.random.default_rng(0).standard_normal((64, 128)).astype(np.float32)
_CAL_B = np.random.default_rng(1).standard_normal((128, 128)).astype(np.float32)


NOMINAL_UNIT_S = 0.285e-3
"""What ``calibrate()`` returns on the box the benchmark was built on while
nothing else runs.  On another box every corrected time is off by one common
factor, which a comparison of two commits does not see."""


def calibrate(duration_s: float = 0.01) -> float:
    """Median time of a small fixed unit of NumPy + interpreter work, run for
    about ``duration_s``: how fast the box is right now."""
    times = []
    deadline = time.perf_counter() + duration_s
    while True:
        started = time.perf_counter()
        for _ in range(4):
            product = _CAL_A @ _CAL_B
            np.exp(product - product.max(axis=1, keepdims=True)).sum(axis=1)
            sum(j * j for j in range(600))
        now = time.perf_counter()
        times.append(now - started)
        if now >= deadline:
            return median(times)


class _Agenda:
    """Which op may start next: due times, follow-up ordering, deadline."""

    def __init__(self, ops: list[Op], open_loop: bool, seconds: float | None):
        self.ops = ops
        self.open_loop = open_loop
        self.seconds = seconds
        self.ready: list[tuple[float, int]] = []
        self.followers: dict[int, list[int]] = {}
        for index, op in enumerate(ops):
            if op.after is not None:
                self.followers.setdefault(op.after, []).append(index)
            elif not open_loop:
                heapq.heappush(self.ready, (0.0, index))
            elif seconds is None or op.due_s <= seconds:
                heapq.heappush(self.ready, (op.due_s, index))

    def next_due(self) -> float | None:
        return self.ready[0][0] if self.ready else None

    def peek(self, now: float) -> int | None:
        """Index of the op to start now, if one is due.  A closed loop stops
        starting ops once ``seconds`` have passed: the list is cut there."""
        if not self.open_loop and self.seconds is not None and now >= self.seconds:
            self.ready.clear()
            self.followers.clear()
        if self.ready and self.ready[0][0] <= now:
            return self.ready[0][1]
        return None

    def pop(self) -> tuple[float, int]:
        return heapq.heappop(self.ready)

    def complete(self, record: Record, now: float, records: list[Record]) -> None:
        """Release the ops that follow ``record``; a follow-up is due the
        moment its predecessor completes.  A predecessor that failed takes
        its followers down with it (they count as failed, never sent)."""
        for index in self.followers.pop(record.index, ()):
            if record.status == "ok":
                heapq.heappush(self.ready, (now if self.open_loop else 0.0, index))
            else:
                skipped = Record(index, self.ops[index].kind, now, now, now, status="skipped")
                records.append(skipped)
                self.complete(skipped, now, records)


def _submit_fields(op: Op) -> dict:
    fields = {"max_new_tokens": op.max_new_tokens}
    if op.store_context_id is not None:
        fields["store_context_id"] = op.store_context_id
    if op.tenant is not None:
        fields["tenant"] = op.tenant
    return fields


# ---------------------------------------------------------------------------
# in-process generator
# ---------------------------------------------------------------------------
def run_inproc(
    service: InferenceService,
    ops: list[Op],
    prompt,
    slots: int,
    *,
    open_loop: bool = False,
    seconds: float | None = None,
) -> Pass:
    """Drive ``ops`` through ``service`` from one loop: start what is due,
    ``step()``, look at every handle.  Tokens are timed when this loop sees
    them, which is when a caller polling its handle would."""
    clock = time.perf_counter
    agenda = _Agenda(ops, open_loop, seconds)
    records: list[Record] = []
    active: dict[int, tuple[object, Record]] = {}
    backlog = None
    freed = 0.0  # when a slot last became free
    marks = [(0.0, 0.0, calibrate())]
    cpu_started = time.process_time()
    started = clock()
    finished_at = started
    while agenda.ready or active:
        now = clock() - started
        index = agenda.peek(now)
        while index is not None and len(active) < slots:
            op = ops[index]
            if op.kind == "ingest" and active:
                break  # an ingest drops contexts: let in-flight requests finish first
            due, _ = agenda.pop()
            record = Record(index, op.kind, due if open_loop else now, now, max(due, freed),
                            intended_cancel=op.cancel_after is not None)
            records.append(record)
            if op.kind == "ingest":
                service.ingest(op.suffix, context_id=op.context_id)
                for context_id in op.remove:
                    service.db.store_registry.remove(context_id)
                record.status = "ok"
                agenda.complete(record, clock() - started, records)
            else:
                active[index] = (service.submit(prompt(op), **_submit_fields(op)), record)
            now = clock() - started
            index = agenda.peek(now)
        if active:
            service.step()
            now = clock() - started
            for index, (handle, record) in list(active.items()):
                tokens = service.generated_tokens(handle.request_id)
                record.token_times.extend([now] * (len(tokens) - len(record.token_times)))
                cancel_after = ops[index].cancel_after
                if cancel_after is not None and len(tokens) >= cancel_after and not handle.is_done:
                    record.cancel_sent = handle.cancel()
                if handle.is_done:
                    del active[index]
                    freed = now
                    record.tokens = [int(t) for t in tokens]
                    if handle.status == "finished":
                        record.status = "ok"
                    elif handle.status == "cancelled" and record.cancel_sent:
                        record.status = "cancelled"
                    else:
                        record.status = "failed"
                    agenda.complete(record, now, records)
            finished_at = clock()
        elif agenda.ready:
            time.sleep(max(agenda.next_due() - (clock() - started), 0.0))
        now = clock() - started
        if now - marks[-1][0] >= WINDOW_S:
            marks.append((now, time.process_time() - cpu_started, calibrate()))
        if open_loop and seconds is not None and backlog is None and now >= seconds:
            backlog = len(active) + sum(1 for due, _ in agenda.ready if due <= seconds)
    marks.append((finished_at - started, time.process_time() - cpu_started, calibrate()))
    return Pass(records, open_loop, marks, seconds, backlog_at_end_of_schedule=backlog or 0)


# ---------------------------------------------------------------------------
# HTTP generator: a ~60-line SSE client plus the same agenda, as coroutines
# ---------------------------------------------------------------------------
async def _http_exchange(host: str, port: int, method: str, path: str, body: bytes = b""):
    reader, writer = await asyncio.open_connection(host, port)
    head = f"{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n"
    if body:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    writer.write(head.encode("latin-1") + b"\r\n" + body)
    await writer.drain()
    response_head = await reader.readuntil(b"\r\n\r\n")
    status = int(response_head.split(b" ", 2)[1])
    headers = {}
    for line in response_head[:-4].decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return reader, writer, status, headers, len(response_head)


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:  # the peer reset the connection first
        pass


async def sse_completion(host: str, port: int, payload: dict, record: Record, op: Op, clock) -> None:
    """POST one streaming completion and fill ``record`` as events arrive.

    ``op.cancel_after`` tokens into the stream the client cancels: by a
    ``DELETE`` on a second, short-lived connection, or by resetting this one.
    """
    body = json.dumps(dict(payload, stream=True)).encode()
    reader, writer, status, headers, read = await _http_exchange(host, port, "POST", "/v1/completions", body)
    record.wire_bytes = read
    final_status = None
    try:
        if status != 200:
            record.wire_bytes += len(await reader.read())
            record.status = "refused"
            return
        record.request_id = int(headers["x-request-id"])
        while True:
            line = await reader.readline()
            record.wire_bytes += len(line)
            if not line:
                break  # EOF without [DONE]
            if not line.startswith(b"data: "):
                continue
            data = line[6:].strip()
            if data == b"[DONE]":
                break
            event = json.loads(data)
            if "token_id" not in event:
                final_status = event.get("status")
                continue
            record.tokens.append(event["token_id"])
            record.token_times.append(clock())
            if op.cancel_after is not None and len(record.tokens) == op.cancel_after:
                record.cancel_sent = True
                if op.cancel_mode == "abort":
                    writer.transport.abort()
                    final_status = "cancelled"  # settled against the service afterwards
                    break
                _, cancel_writer, _, _, _ = await _http_exchange(
                    host, port, "DELETE", f"/v1/requests/{record.request_id}"
                )
                await _close(cancel_writer)
    finally:
        await _close(writer)
    if final_status == "finished":
        record.status = "ok"
    elif final_status == "cancelled" and record.cancel_sent:
        record.status = "cancelled"
    else:
        record.status = "failed"


async def run_http(
    address: tuple[str, int],
    ops: list[Op],
    prompt,
    slots: int,
    *,
    open_loop: bool = True,
    seconds: float | None = None,
) -> Pass:
    """Drive ``ops`` over real TCP with ``slots`` connection slots."""
    host, port = address
    agenda = _Agenda(ops, open_loop, seconds)
    records: list[Record] = []
    wake = asyncio.Event()
    running = 0
    backlog: list[int] = []
    marks = [(0.0, 0.0, calibrate())]
    cpu_started = time.process_time()
    started = time.perf_counter()

    def clock() -> float:
        return time.perf_counter() - started

    async def slot() -> None:
        nonlocal running
        freed = 0.0  # when this slot last became free
        while True:
            while agenda.peek(clock()) is None:
                if not agenda.ready and running == 0:
                    wake.set()  # release the other slots: nothing can become ready
                    return
                due = agenda.next_due()
                wake.clear()
                try:
                    await asyncio.wait_for(wake.wait(), None if due is None else max(due - clock(), 0.0))
                except asyncio.TimeoutError:
                    pass
            due, index = agenda.pop()
            op = ops[index]
            now = clock()
            record = Record(index, op.kind, due if open_loop else now, now, max(due, freed),
                            intended_cancel=op.cancel_after is not None)
            records.append(record)
            running += 1
            try:
                await sse_completion(host, port, dict(_submit_fields(op), prompt=prompt(op)), record, op, clock)
            finally:
                running -= 1
            freed = clock()
            agenda.complete(record, freed, records)
            wake.set()

    async def tick() -> None:
        while True:
            await asyncio.sleep(max(marks[-1][0] + WINDOW_S - clock(), 0.0))
            marks.append((clock(), time.process_time() - cpu_started, calibrate()))
            if open_loop and seconds is not None and not backlog and marks[-1][0] >= seconds:
                # how many due requests were still waiting or in flight when
                # the arrival schedule ended: a growing queue shows here
                backlog.append(running + sum(1 for due, _ in agenda.ready if due <= seconds))

    ticker = asyncio.create_task(tick())
    try:
        await asyncio.gather(*(slot() for _ in range(slots)))
    finally:
        ticker.cancel()
        try:
            await ticker
        except asyncio.CancelledError:
            pass
    wall = max((r.token_times[-1] for r in records if r.token_times), default=clock())
    marks.append((wall, time.process_time() - cpu_started, calibrate()))
    return Pass(records, open_loop, marks, seconds, backlog_at_end_of_schedule=backlog[0] if backlog else 0)


def settle_cancels(service: InferenceService, timed: Pass) -> list[str]:
    """Settle the client's cancels against the service.  A reset connection
    cannot tell the client how its request ended, and a request may reach
    EOS before a cancel lands: both are read off the service's own records."""
    finished = {record.request_id for record in service.stats.records}
    for record in timed.records:
        if record.status == "cancelled" and record.request_id in finished:
            record.status = "ok"
    landed = sum(1 for r in timed.records if r.status == "cancelled")
    if service.stats.cancelled != landed:
        return [f"{landed} client cancels landed but the service counts {service.stats.cancelled} cancelled"]
    return []


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
@dataclass
class Env:
    service: InferenceService
    server: AlayaDBServer | None
    db_dir: Path | None
    setup_s: float

    async def close(self) -> None:
        """Stop the server (drains, then asserts ``check_drained``) and drop
        the database directory."""
        if self.server is not None:
            await self.server.shutdown(drain=True)
            self.server = None
        if self.db_dir is not None:
            shutil.rmtree(self.db_dir, ignore_errors=True)


def _build_service(inputs: Inputs, db_dir: Path | None, **extra) -> InferenceService:
    fields = dict(SERVICE_CONFIG, **inputs.service_overrides, **extra)
    if db_dir is not None:
        fields["context_db_path"] = str(db_dir)
    if inputs.workload == "http_mix_open":
        fields["tenants"] = tuple(TenantSpec(name, weight=weight) for name, weight in TENANTS)
    return InferenceService(TransformerModel(ModelConfig(**MODEL)), AlayaDBConfig(**fields))


async def set_up(inputs: Inputs, scratch: Path, over_http: bool, slots: int) -> Env:
    """Model build + ingest/index build + server start + warm-up requests."""
    started = time.perf_counter()
    db_dir = None
    if inputs.workload == "store_churn":
        db_dir = scratch / f"db-{time.monotonic_ns()}"
        db_dir.mkdir(parents=True)
    service = _build_service(inputs, db_dir)
    for context_id, tokens in inputs.documents.items():
        service.ingest(tokens, context_id=context_id)
    server = None
    if over_http:
        server = AlayaDBServer(service, host="127.0.0.1", port=0)
        await server.start()
        warm = await run_http(server.address, inputs.warmup, inputs.prompt, slots, open_loop=False)
    else:
        warm = run_inproc(service, inputs.warmup, inputs.prompt, 1)
    if warm.failed:
        raise RuntimeError(f"warm-up failed: {warm.counts()}")
    return Env(service, server, db_dir, time.perf_counter() - started)


# ---------------------------------------------------------------------------
# oracles and checks
# ---------------------------------------------------------------------------
def _serve_solo(service: InferenceService, inputs: Inputs, indices: list[int]) -> dict[int, list[int]]:
    """Each request alone, streamed through its handle's iterator."""
    return {
        i: [int(t) for t in service.submit(inputs.prompt(inputs.ops[i]), **_submit_fields(inputs.ops[i])).tokens()]
        for i in indices
    }


def dense_oracle(inputs: Inputs, sample: list[int]) -> dict[int, list[int]]:
    """The requests ``sample`` (indices into ``inputs.ops``) served solo with
    dense attention.

    The oracle is not the program under test: it gets its own service whose
    ``short_context_threshold`` makes every plan full attention (and defers
    the fine indexes it will never search), holding only the documents the
    sample reads.
    """
    needed = set()
    for i in sample:
        op = inputs.ops[i]
        while op.extends is not None:
            op = inputs.ops[op.extends]
        if op.doc is not None:
            needed.add(op.doc)
    config = AlayaDBConfig(short_context_threshold=1 << 30, lazy_index_build=True)
    service = InferenceService(TransformerModel(ModelConfig(**MODEL)), config)
    for context_id in sorted(needed):
        service.ingest(inputs.documents[context_id], context_id=context_id)
    # without store_context_id: every sampled prompt is served from scratch
    # (plus the stored documents), so chat turns do not depend on each other
    return {
        i: [int(t) for t in service.submit(inputs.prompt(inputs.ops[i]),
                                           max_new_tokens=inputs.ops[i].max_new_tokens).tokens()]
        for i in sample
    }


def token_match(records: list[Record], oracle: dict[int, list[int]]) -> tuple[float, int]:
    """Share of output-token positions equal to the oracle's, and how many
    positions were compared.  A length difference counts as mismatches."""
    by_index = {r.index: r for r in records if r.status == "ok"}
    same = positions = 0
    for index, expected in oracle.items():
        record = by_index.get(index)
        if record is None:
            continue
        positions += max(len(expected), len(record.tokens))
        same += sum(1 for a, b in zip(expected, record.tokens) if a == b)
    return (same / positions if positions else 0.0), positions


def check_solo_equal(env: Env, inputs: Inputs, timed: Pass) -> list[str]:
    """``mid_batch8_coarse``: what the batched rounds produced equals the same
    prompts served one at a time."""
    by_index = {r.index: r for r in timed.records if r.status == "ok"}
    indices = [i for i in inputs.solo_sample if i in by_index]
    solo = _serve_solo(env.service, inputs, indices)
    problems = [
        f"request {i}: batched {by_index[i].tokens} != solo {solo[i]}"
        for i in indices if by_index[i].tokens != solo[i]
    ]
    if not indices:
        problems.append("no sampled request completed, nothing was compared")
    return problems


def check_reopen(env: Env, inputs: Inputs) -> tuple[list[str], dict]:
    """``store_churn``: ``ContextStore.open()`` on the directory recovers every
    persisted context, and a sample serves token-identically from a service
    restarted over it."""
    live = env.service.db.store_registry
    reopened = ContextStore.open(env.db_dir)
    problems = []
    missing = sorted(set(live.list_ids()) - set(reopened.list_ids()))
    extra = sorted(set(reopened.list_ids()) - set(live.list_ids()))
    if missing or extra:
        problems.append(f"reopened store differs: missing={missing} extra={extra}")
    restarted = _build_service(inputs, env.db_dir)
    library = [cid for cid in live.list_ids() if cid.startswith("lib-")]
    question = inputs.warmup[0].suffix
    for context_id in library[-3:]:
        prompt = list(live.get(context_id).tokens) + question
        before = [int(t) for t in env.service.submit(prompt, max_new_tokens=4).tokens()]
        after = [int(t) for t in restarted.submit(prompt, max_new_tokens=4).tokens()]
        if before != after:
            problems.append(f"context {context_id}: live {before} != restarted {after}")
    facts = {"recovered_contexts": len(reopened.list_ids()), "served_after_restart": len(library[-3:])}
    return problems, facts


# ---------------------------------------------------------------------------
# client-side metrics
# ---------------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


WINDOW_METRICS = ("ttft_ms_p50", "ttft_ms_p95", "tpot_ms_p50", "tpot_ms_p95", "out_tok_s", "cpu_ms_per_tok")


class _Timings:
    """Per-request and per-gap times of a pass, at the box's nominal speed.

    ``calibrate()`` ran at every window boundary; ``speed_x(t)`` interpolates
    how much slower than nominal the box was at time ``t`` (1.2 = 20 %
    slower).  Every time sample is divided by the factor of its moment, so a
    neighbour that slows the box for a stretch of the run — or for all of
    it — does not pass for a slow program.
    """

    def __init__(self, timed: Pass):
        self._at = np.array([mark[0] for mark in timed.marks])
        self._factor = np.array([mark[2] for mark in timed.marks]) / NOMINAL_UNIT_S
        self.requests = [r for r in timed.requests if r.token_times]
        self.origin = np.array([r.origin for r in self.requests])
        speed = self.speed_x(self.origin) if len(self.origin) else self.origin
        self.ttft = np.array([1e3 * (r.token_times[0] - r.origin) for r in self.requests]) / speed
        self.mean_gap = np.array([
            1e3 * (r.token_times[-1] - r.token_times[0]) / max(len(r.token_times) - 1, 1)
            for r in self.requests
        ]) / speed
        self.seen = np.array([t for r in self.requests for t in r.token_times])
        self.gap_end = np.array([t for r in self.requests for t in r.token_times[1:]])
        gap = np.array([1e3 * g for r in self.requests for g in np.diff(r.token_times)])
        self.gap = gap / self.speed_x(self.gap_end) if len(gap) else gap

    def speed_x(self, at):
        return np.interp(at, self._at, self._factor)


def window_metrics(timed: Pass, t: _Timings) -> dict[str, list[float]]:
    """The timing metrics of each ``WINDOW_S`` window of the pass, in order,
    plus ``box_speed_x``, the window's speed factor.

    A request belongs to the window it was sent (open loop: due) in, a token
    and the gap before it to the window the token was seen in.  Windows past
    ``seconds`` (the drain) and windows without a sample of a metric are left
    out.  Throughput scales with the box on a closed loop and is corrected
    like the times; an open loop's throughput is its offered rate.
    """
    out: dict[str, list[float]] = {name: [] for name in (*WINDOW_METRICS, "box_speed_x")}
    for (lo, cpu_lo, _), (hi, cpu_hi, _) in zip(timed.marks, timed.marks[1:]):
        if hi - lo < 0.5 * WINDOW_S or (timed.seconds is not None and hi > timed.seconds + 0.5 * WINDOW_S):
            continue
        speed = float(t.speed_x(0.5 * (lo + hi)))
        sent_here = (t.origin >= lo) & (t.origin < hi)
        gaps_here = t.gap[(t.gap_end >= lo) & (t.gap_end < hi)]
        tokens_here = int(((t.seen >= lo) & (t.seen < hi)).sum())
        if sent_here.any():
            out["ttft_ms_p50"].append(float(np.median(t.ttft[sent_here])))
            out["ttft_ms_p95"].append(float(np.percentile(t.ttft[sent_here], 95)))
        if len(gaps_here):
            out["tpot_ms_p50"].append(float(gaps_here.mean()))
            out["tpot_ms_p95"].append(float(np.percentile(gaps_here, 95)))
        out["out_tok_s"].append(tokens_here / (hi - lo) * (1.0 if timed.open_loop else speed))
        if tokens_here:
            out["cpu_ms_per_tok"].append(1e3 * (cpu_hi - cpu_lo) / tokens_here / speed)
        out["box_speed_x"].append(speed)
    return out


def client_metrics(timed: Pass, limits_ms: tuple[float, float]) -> tuple[dict, dict, dict]:
    """The caller-seen end-to-end metrics of one pass, their sample counts,
    and the per-window values they are the medians of.

    Each timing metric is computed inside every ``WINDOW_S`` window of the
    pass, from samples brought to the box's nominal speed (:class:`_Timings`),
    and reported as the median over the windows.

    ``tpot_ms_p50`` is a window's *mean* gap between consecutive tokens;
    ``tpot_ms_p95`` the p95 of its gaps, pooled over requests — the stalls a
    caller sees.  The median gap is not used: the SSE frontend hands tokens
    over in bursts, so more than half of the gaps on ``http_mix_open`` are a
    few microseconds, and on ``store_churn`` a request's gaps are either 2 ms
    or 20 ms depending on what the other client is doing, with the median
    falling between the two.
    """
    t = _Timings(timed)
    windows = window_metrics(timed, t)
    metrics = {name: median(windows[name]) if windows[name] else 0.0 for name in WINDOW_METRICS}
    # a window holds too few completions to count them (long_solo_dipr: one
    # or two), so the request rate is the token rate over the run's own
    # tokens-per-completed-request, which timing noise does not touch
    completed = sum(1 for r in timed.requests if r.status == "ok")
    metrics["req_s"] = metrics["out_tok_s"] * completed / max(timed.out_tokens, 1)
    ttft_limit, tpot_limit = limits_ms
    within = {
        r.index for r, first, gap in zip(t.requests, t.ttft, t.mean_gap)
        if r.status == "ok" and first <= ttft_limit and gap <= tpot_limit
    }
    judged = [r for r in timed.requests if not r.intended_cancel]
    attempted = len(timed.records)
    metrics["slo_goodput"] = sum(1 for r in judged if r.index in within) / max(len(judged), 1)
    metrics["success_share"] = 1.0 - timed.failed / max(attempted, 1)
    sent = len(t.requests)
    samples = {
        "ttft_ms_p50": sent, "ttft_ms_p95": sent, "tpot_ms_p50": len(t.gap), "tpot_ms_p95": len(t.gap),
        "out_tok_s": timed.out_tokens, "req_s": sent, "cpu_ms_per_tok": timed.out_tokens,
        "slo_goodput": len(judged), "success_share": attempted,
    }
    return metrics, samples, windows


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
