"""Outside-in tracer: times calls into the program's public callables.

The program carries no spans of its own yet, so for the traced pass — and
only for it — :class:`Tracer` replaces each callable named in
:data:`SPAN_TARGETS` with a timing wrapper, and puts the original back
afterwards.  Spans are kept in memory (name, start, end, parent, busy time
for coroutines, a few counts taken from arguments and results) and written
to ``trace_<workload>.json`` when the pass ends.

* A span's *self time* is its time minus the time of its direct children.
* A coroutine target (``read_request``) is timed as wall from first resume to
  return, and separately as ``busy`` — the time it actually ran between
  suspensions; ``wall - busy`` is time parked in ``await``.  Children are
  attributed against ``busy``.
* A target that no longer resolves is never reported as 0: its metrics are
  ``None`` and its span name is listed in ``unresolved``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path
from statistics import median

SPAN_TARGETS: dict[str, str] = {
    # entry points: what the load generator and the server's pump call.  Their
    # self time is glue that belongs to no layer (see trace.attributed_share)
    "service.submit": "repro.core.service:InferenceService.submit",
    "service.ingest": "repro.core.service:InferenceService.ingest",
    "service.step": "repro.core.service:InferenceService.step",
    # frontend
    "server.read_request": "repro.server.http:read_request",
    "server.sse_event": "repro.server.http:sse_event",
    # scheduler
    "scheduler.step": "repro.scheduler.scheduler:RequestScheduler.step",
    "scheduler.tenancy.select": "repro.scheduler.tenancy:TenantGovernor.select",
    "scheduler.admission.try_admit": "repro.scheduler.admission:AdmissionController.try_admit",
    # the scheduler's backend (InferenceService)
    "service.begin_request": "repro.core.service:InferenceService.begin_request",
    "service.prefill_chunk": "repro.core.service:InferenceService.prefill_chunk",
    "service.decode_step": "repro.core.service:InferenceService.decode_step",
    "service.decode_batch": "repro.core.service:InferenceService.decode_batch",
    "service.finish_request": "repro.core.service:InferenceService.finish_request",
    # context store.  Budget spills run through the private _spill_one, so
    # the span sits on the public StoredContext.spill it ends in; a durable
    # store persists inside add() (persist() has no caller on these paths)
    "store.find_longest_prefix": "repro.core.context_store:ContextStore.find_longest_prefix",
    "store.ensure_resident": "repro.core.context_store:ContextStore.ensure_resident",
    "store.spill": "repro.core.context_store:StoredContext.spill",
    "store.persist": "repro.core.context_store:ContextStore.add",
    "store.remove": "repro.core.context_store:ContextStore.remove",
    "store.open": "repro.core.context_store:ContextStore.open",
    # durable tier (the filesystem adapter is the StorageBackend in use)
    "storage.write": "repro.storage.backend:FilesystemBackend.write_bytes",
    "storage.read": "repro.storage.backend:FilesystemBackend.read_bytes",
    "storage.manifest.save": "repro.storage.manifest:ContextManifest.save",
    "kvcache.snapshot_to_bytes": "repro.kvcache.serialization:snapshot_to_bytes",
    "kvcache.snapshot_from_bytes": "repro.kvcache.serialization:snapshot_from_bytes",
    "index.serialize": "repro.index.serialization:serialize_context_indexes",
    "index.deserialize": "repro.index.serialization:deserialize_context_indexes",
    "index.build_context": "repro.index.builder:ContextIndexBuilder.build_context",
    # retrieval and attention
    "planner.retrieve_heads": "repro.core.planner:PlanExecutor.retrieve_heads",
    "window_cache.max_window_scores": "repro.core.window_cache:WindowCache.max_window_scores",
    "session.attention": "repro.core.session:Session.attention",
    "attention.layer_output": "repro.core.attention_engine:DataCentricAttentionEngine.layer_output",
    "attention.stacked_layer_output": "repro.core.attention_engine:DataCentricAttentionEngine.stacked_layer_output",
    # DataCentricAttentionEngine.full_output has no caller at the seed commit;
    # dense attention runs through llm.attention.full_attention
    "attention.full_output": "repro.llm.attention:full_attention",
    "decode_round.layer_attention": "repro.core.decode_round:CrossRequestDecodeRound.layer_attention",
    # model
    "llm.prefill": "repro.llm.model:TransformerModel.prefill",
    "llm.decode_step": "repro.llm.model:TransformerModel.decode_step",
    "llm.decode_batch": "repro.llm.model:TransformerModel.decode_batch",
}
"""Span name -> ``module:qualname`` of a public callable."""

ENTRY_SPANS = ("service.submit", "service.ingest", "service.step")


# ---------------------------------------------------------------------------
# counts taken at the span boundary: f(args, kwargs, result) -> dict
# ---------------------------------------------------------------------------
def _retrieve_heads_counts(args, kwargs, result) -> dict:
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    return {
        "kind": plan.index_kind,
        "heads": len(result),
        "selected": sum(o.num_selected for o in result),
        "hops": sum(o.num_hops for o in result),
        "dist_comps": sum(o.num_distance_computations for o in result),
    }


def _begin_request_counts(args, kwargs, result) -> dict:
    return {
        "rid": result.request.request_id,
        "prompt_tokens": len(result.request.prompt_tokens),
        "reused_tokens": result.session.reused_prefix_length,
    }


def _inflight_rid(args, kwargs, result) -> dict:
    return {"rid": args[1].request.request_id}


def _prefix_counts(args, kwargs, result) -> dict:
    return {"hit": bool(result.is_hit), "prefix_length": result.prefix_length}


COUNTS = {
    "planner.retrieve_heads": _retrieve_heads_counts,
    "service.submit": lambda a, k, r: {"rid": r.request_id},
    "service.begin_request": _begin_request_counts,
    "service.prefill_chunk": _inflight_rid,
    "service.decode_step": _inflight_rid,
    "service.finish_request": _inflight_rid,
    "service.decode_batch": lambda a, k, r: {"rows": len(a[1])},
    "store.find_longest_prefix": _prefix_counts,
    "store.persist": lambda a, k, r: {"kv_bytes": a[1].kv_bytes},
    "storage.write": lambda a, k, r: {"bytes": len(a[2])},
    "storage.read": lambda a, k, r: {"bytes": len(r)},
    "scheduler.admission.try_admit": lambda a, k, r: {"decision": str(r)},
    "index.build_context": lambda a, k, r: {"tokens": r[1].num_keys},
    "llm.prefill": lambda a, k, r: {"tokens": len(a[1])},
    "llm.decode_batch": lambda a, k, r: {"rows": len(a[1])},
}


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
class Span:
    __slots__ = ("name", "parent", "start", "end", "busy", "counts")

    def __init__(self, name: str, parent: int | None, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.busy: float | None = None
        """Coroutine spans only: time spent running between suspensions."""
        self.counts: dict | None = None

    @property
    def time(self) -> float:
        """What children are attributed against: busy time for a coroutine,
        wall for a plain call."""
        return self.end - self.start if self.busy is None else self.busy


class _TracedAwaitable:
    """Drives a coroutine by hand so each resume→suspend slice is timed and
    spans opened in a slice nest under this one."""

    def __init__(self, tracer: "Tracer", name: str, coro, args, kwargs):
        self._tracer, self._name, self._coro = tracer, name, coro
        self._args, self._kwargs = args, kwargs

    def __await__(self):
        tracer = self._tracer
        index = tracer._open(self._name)
        span = tracer.spans[index]
        tracer._stack.pop()  # re-pushed for each running slice below
        span.busy = 0.0
        inner = self._coro.__await__()
        value, error = None, None
        try:
            while True:
                tracer._stack.append(index)
                sliced = time.perf_counter()
                try:
                    if error is None:
                        yielded = inner.send(value)
                    else:
                        yielded = inner.throw(error)
                except StopIteration as stop:
                    tracer._counts(span, self._name, self._args, self._kwargs, stop.value)
                    return stop.value
                finally:
                    span.busy += time.perf_counter() - sliced
                    tracer._stack.pop()
                try:
                    value, error = (yield yielded), None
                except BaseException as exc:  # forwarded into the coroutine; re-raised by it
                    value, error = None, exc
        finally:
            span.end = time.perf_counter()


class Tracer:
    """Installs, enables and removes the timing wrappers."""

    def __init__(self, targets: dict[str, str] | None = None, counts: dict | None = None):
        self.targets = dict(SPAN_TARGETS if targets is None else targets)
        self.count_functions = COUNTS if counts is None else counts
        self.enabled = False
        """Wrappers are in place from :meth:`install` on (the scheduler binds
        ``backend.decode_batch`` when it is built), but record only while
        this is set."""
        self.spans: list[Span] = []
        self.unresolved: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------
    def install(self) -> None:
        for name, target in self.targets.items():
            try:
                self._install_one(name, target)
            except (ImportError, AttributeError, KeyError):
                self.unresolved.append(name)

    def _install_one(self, name: str, target: str) -> None:
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        *owners, attr = qualname.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]  # KeyError: inherited or gone -> unresolved
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(name, raw.__func__))
        else:
            wrapped = self._wrap(name, raw)
        self._patch(owner, attr, raw, wrapped)
        if owner is module:
            # ``from x import f`` copies the reference: patch every module of
            # the same top-level package that holds the original
            root = module_name.split(".")[0]
            for other_name, other in list(sys.modules.items()):
                if other is None or other is module or other_name.split(".")[0] != root:
                    continue
                for alias, value in list(vars(other).items()):
                    if value is raw:
                        self._patch(other, alias, raw, wrapped)

    def _patch(self, namespace, attr: str, original, wrapped) -> None:
        setattr(namespace, attr, wrapped)
        self._patched.append((namespace, attr, original))

    def uninstall(self) -> None:
        """Put every original callable back (identity-restoring)."""
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()
        self.enabled = False

    def _wrap(self, name: str, function):
        tracer = self
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced_coroutine(*args, **kwargs):
                if not tracer.enabled:
                    return await function(*args, **kwargs)
                return await _TracedAwaitable(tracer, name, function(*args, **kwargs), args, kwargs)

            return traced_coroutine

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                span = tracer.spans[index]
                span.end = time.perf_counter()
                tracer._stack.pop()
            tracer._counts(span, name, args, kwargs, result)
            return result

        return traced

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(index)
        return index

    def _counts(self, span: Span, name: str, args, kwargs, result) -> None:
        count = self.count_functions.get(name)
        if count is not None:
            span.counts = count(args, kwargs, result)

    # -- reading -----------------------------------------------------------
    def self_times(self) -> list[float]:
        own = [span.time for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.time
        return own

    def write(self, path: Path, header: dict) -> None:
        """``header`` plus one row per span:
        ``[id, name, parent, start_s, end_s, busy_s|null, self_s, counts|null]``
        with times relative to the first span's start."""
        origin = self.spans[0].start if self.spans else 0.0
        own = self.self_times()
        rows = [
            [i, s.name, s.parent, round(s.start - origin, 7), round(s.end - origin, 7),
             None if s.busy is None else round(s.busy, 7), round(own[i], 7), s.counts]
            for i, s in enumerate(self.spans)
        ]
        payload = dict(header, targets=self.targets, unresolved=self.unresolved,
                       columns=["id", "name", "parent", "start_s", "end_s", "busy_s", "self_s", "counts"],
                       spans=rows)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
class _Layers:
    """Aggregates of one finished trace, by span name."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.by_name: dict[str, list[int]] = {}
        for index, span in enumerate(tracer.spans):
            self.by_name.setdefault(span.name, []).append(index)
        self.own = tracer.self_times()
        self.children: dict[int, list[int]] = {}
        for index, span in enumerate(tracer.spans):
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(index)

    def spans(self, name: str, **where) -> list[Span]:
        picked = [self.tracer.spans[i] for i in self.by_name.get(name, ())]
        for key, value in where.items():
            picked = [s for s in picked if s.counts and s.counts.get(key) == value]
        return picked

    def resolved(self, *names: str) -> bool:
        return not any(name in self.tracer.unresolved for name in names)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total(self, name: str, **where) -> float:
        return sum(s.time for s in self.spans(name, **where))

    def self_total(self, name: str) -> float:
        return sum(self.own[i] for i in self.by_name.get(name, ()))

    def count(self, name: str, key: str, **where) -> float:
        return sum(s.counts[key] for s in self.spans(name, **where) if s.counts)

    def has_child(self, index: int, child_name: str) -> bool:
        return any(self.tracer.spans[c].name == child_name for c in self.children.get(index, ()))


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    """``numerator / denominator`` scaled; 0.0 when nothing was counted."""
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, facts: dict) -> dict[str, float | None]:
    """Every per-layer metric of BENCHMARK.json from one traced pass.

    ``facts`` are numbers the pass measured outside the spans: tokens and
    requests delivered, the untraced twin pass, store counters, and (on
    ``http_mix_open``) the in-process twin, wire bytes and generator lag.
    A metric whose span target did not resolve is ``None``.
    """
    L = _Layers(tracer)
    tokens = facts["out_tokens"]
    metrics: dict[str, float | None] = {}

    def put(name: str, value: float, *needs: str) -> None:
        metrics[name] = value if L.resolved(*needs) else None

    def per_call(metric: str, span: str, scale: float, **where) -> None:
        put(metric, _per(L.total(span, **where), len(L.spans(span, **where)), scale), span)

    # frontend (http_mix_open only; 0 elsewhere)
    put("server.ttft_overhead_x", facts.get("server_ttft_overhead_x", 0.0))
    put("server.req_s_ratio", facts.get("server_req_s_ratio", 0.0))
    per_call("server.read_request.ms_per_req", "server.read_request", 1e3)
    put("server.sse_event.us_per_tok", _per(L.total("server.sse_event"), tokens, 1e6), "server.sse_event")
    put("server.wire_bytes_per_tok", _per(facts.get("wire_bytes", 0), tokens))
    put("loadgen.lag_ms_p95", facts.get("lag_ms_p95", 0.0))

    # scheduler
    put("scheduler.step.self_us_per_call",
        _per(L.self_total("scheduler.step"), L.calls("scheduler.step"), 1e6), "scheduler.step")
    put("scheduler.step.calls", L.calls("scheduler.step"), "scheduler.step")
    per_call("scheduler.tenancy.select.us_per_call", "scheduler.tenancy.select", 1e6)
    put("scheduler.admission.deferred_share",
        _per(len(L.spans("scheduler.admission.try_admit", decision="defer")),
             L.calls("scheduler.admission.try_admit")), "scheduler.admission.try_admit")
    decode_rows = L.count("service.decode_batch", "rows") + L.calls("service.decode_step")
    put("scheduler.decode_batch.rows_mean",
        _per(decode_rows, L.calls("service.decode_batch") + L.calls("service.decode_step")),
        "service.decode_batch", "service.decode_step")

    # service (the scheduler's backend)
    begins = [s.time for s in L.spans("service.begin_request")]
    put("service.begin_request.ms_p50", 1e3 * median(begins) if begins else 0.0, "service.begin_request")
    per_call("service.prefill_chunk.ms_per_call", "service.prefill_chunk", 1e3)
    put("service.prefill_tokens", L.count("llm.prefill", "tokens"), "llm.prefill")
    per_call("service.finish_request.ms_per_call", "service.finish_request", 1e3)

    # context store
    per_call("store.find_longest_prefix.us_per_call", "store.find_longest_prefix", 1e6)
    put("store.prefix_hit_share",
        _per(len(L.spans("store.find_longest_prefix", hit=True)), L.calls("store.find_longest_prefix")),
        "store.find_longest_prefix")
    put("store.reused_token_share",
        _per(L.count("service.begin_request", "reused_tokens"),
             L.count("service.begin_request", "prompt_tokens")), "service.begin_request")
    reload_spans = [
        tracer.spans[i] for i in L.by_name.get("store.ensure_resident", ())
        if L.has_child(i, "kvcache.snapshot_from_bytes")
    ]
    put("store.ensure_resident.ms_per_reload",
        _per(sum(s.time for s in reload_spans), len(reload_spans), 1e3),
        "store.ensure_resident", "kvcache.snapshot_from_bytes")
    put("store.reloads", facts["store_reloads"])
    put("store.reload_deserialized_share", _per(facts["store_reloads_deserialized"], facts["store_reloads"]))
    per_call("store.spill.ms_per_call", "store.spill", 1e3)
    put("store.spills", facts["store_spills"])
    per_call("store.persist.ms_per_call", "store.persist", 1e3)
    put("store.open.ms", 1e3 * L.total("store.open"), "store.open")

    # durable tier: read cost, write cost and space side by side
    put("storage.write.calls", L.calls("storage.write"), "storage.write")
    put("storage.write.bytes", L.count("storage.write", "bytes"), "storage.write")
    put("storage.read.calls", L.calls("storage.read"), "storage.read")
    put("storage.read.bytes", L.count("storage.read", "bytes"), "storage.read")
    put("storage.write_amp",
        _per(L.count("storage.write", "bytes"), L.count("store.persist", "kv_bytes")),
        "storage.write", "store.persist")
    put("storage.disk_bytes_per_kv_byte", _per(facts["disk_bytes"], facts["stored_kv_bytes"]))
    per_call("storage.manifest.save.ms_per_call", "storage.manifest.save", 1e3)
    put("storage.manifest.saves", L.calls("storage.manifest.save"), "storage.manifest.save")
    per_call("kvcache.snapshot_to_bytes.ms_per_call", "kvcache.snapshot_to_bytes", 1e3)
    per_call("kvcache.snapshot_from_bytes.ms_per_call", "kvcache.snapshot_from_bytes", 1e3)
    per_call("index.serialize.ms_per_call", "index.serialize", 1e3)
    per_call("index.deserialize.ms_per_call", "index.deserialize", 1e3)
    put("index.build_context.s_per_ktok",
        _per(L.total("index.build_context"), L.count("index.build_context", "tokens"), 1e3),
        "index.build_context")

    # retrieval, by the plan's index kind
    for kind in ("flat", "fine", "coarse"):
        per_call(f"planner.retrieve_heads.{kind}.ms_per_call", "planner.retrieve_heads", 1e3, kind=kind)
    dipr = [s for kind in ("flat", "fine") for s in L.spans("planner.retrieve_heads", kind=kind)]
    put("query.dipr.hops_per_tok", _per(sum(s.counts["hops"] for s in dipr), tokens), "planner.retrieve_heads")
    put("query.dipr.dist_comps_per_tok",
        _per(sum(s.counts["dist_comps"] for s in dipr), tokens), "planner.retrieve_heads")
    put("retrieval.selected_per_head",
        _per(L.count("planner.retrieve_heads", "selected"), L.count("planner.retrieve_heads", "heads")),
        "planner.retrieve_heads")
    put("retrieval.dense_match", facts["dense_match"])
    per_call("window_cache.max_window_scores.us_per_call", "window_cache.max_window_scores", 1e6)

    # attention and the model
    per_call("attention.layer_output.ms_per_call", "attention.layer_output", 1e3)
    per_call("attention.stacked_layer_output.ms_per_call", "attention.stacked_layer_output", 1e3)
    per_call("attention.full_output.ms_per_call", "attention.full_output", 1e3)
    put("decode_round.layer_attention.self_us_per_call",
        _per(L.self_total("decode_round.layer_attention"), L.calls("decode_round.layer_attention"), 1e6),
        "decode_round.layer_attention")
    put("llm.prefill.ms_per_ktok", _per(L.total("llm.prefill"), L.count("llm.prefill", "tokens"), 1e6), "llm.prefill")
    per_call("llm.decode_batch.ms_per_call", "llm.decode_batch", 1e3)
    # decode minus its attention children = projections + MLP + LM head
    put("llm.decode_dense.self_ms_per_tok",
        _per(L.self_total("llm.decode_step") + L.self_total("llm.decode_batch"), decode_rows, 1e3),
        "llm.decode_step", "llm.decode_batch", "session.attention", "decode_round.layer_attention")

    # instrument health
    roots = [s for s in tracer.spans if s.parent is None]
    entry_self = sum(L.self_total(name) for name in ENTRY_SPANS)
    put("trace.attributed_share", 1.0 - _per(entry_self, sum(s.time for s in roots)) if roots else 0.0)
    put("trace.overhead_x", _per(facts["traced_busy_s"], facts["untraced_busy_s"]))
    metrics["trace.unresolved"] = len(tracer.unresolved)
    return metrics
