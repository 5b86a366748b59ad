"""Lifecycle state machine over the serving stack.

A hypothesis ``RuleBasedStateMachine`` drives one :class:`InferenceService`
— or the front service of a 2-worker :class:`ShardedContextRouter`, whose
ingested documents are read as R = 2 ranges — through every request
lifecycle path:

* submit: a one-shot prompt, a chat turn, a prompt reusing a strict prefix
  of a stored context and one reusing a whole stored context (plus a
  suffix, or nothing);
* step, and a partial stream through a handle;
* cancel while queued, prefilling, decoding or preempted, and a chat
  turn's cancel;
* preempt: an SLO-critical arrival while every slot is taken;
* a tenant over its queue depth (the HTTP 429) and a request over the
  admission budget (rejected);
* spill, reload and remove through the byte-budgeted store, and ingest;
* restart (one range only): drain, ``flush()``, ``ContextStore.open()`` on
  the durable directory, and a fresh service over it.

After every rule:

* ``admission.committed_bytes`` is the sum of the in-flight and preempted
  requests' reservations, and each tenant's ledger matches its requests;
* each stored context's pin count equals the running sessions connected to
  it (a preempted session holds no pin);
* the LRU lists exactly the resident contexts, in every store;
* every non-terminal request is queued, in flight or preempted, in the
  state that says so.

At every finish under the all-FULL config (``short_context_threshold=1 <<
30``) the generated tokens equal ``reference_generate`` over a fresh
``DynamicCache`` on what the model consumed: the prompt, plus the lone BOS a
request prefills when a stored context covers its whole prompt.  The sparse
config (the old soak's: coarse plans, SLO policy, preemption, tight byte
budgets) checks the invariants and the token counts only; sparse batched-vs-
solo identity belongs to the decode-round and sharded grids.

The tier-1 profile is small; the ``slow`` profile (CI's soak job) runs many
more and longer programs.  Fixed programs, one per lifecycle path, replay the
same rules at every variant so that each path is reached on every run.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.config import AlayaDBConfig
from repro.core.context_store import ContextStore
from repro.core.service import InferenceService
from repro.errors import (
    AdmissionRejectedError,
    DuplicateContextError,
    RequestFailedError,
    TenantThrottledError,
)
from repro.llm.model import ModelConfig, TransformerModel
from repro.llm.tokenizer import ByteTokenizer
from repro.scheduler import SLO, TenantSpec
from repro.scheduler.request import RequestState
from repro.server import check_drained
from repro.sharding.router import ShardedContextRouter
from repro.storage.backend import FilesystemBackend, InMemoryBackend
from tests.reference_generation import reference_generate

MODEL = TransformerModel(ModelConfig.tiny())
BOS = ByteTokenizer().bos_id
BURST = "burst"
"""A tenant that may queue one request: a second one is its 429."""

_SOAK = dict(
    window_initial_tokens=4,
    window_last_tokens=8,
    dipr_beta=16.0,  # beta 4 at the tiny model's head_dim 8
    dipr_capacity_threshold=8,
    min_reuse_tokens=4,
    prefill_chunk_tokens=16,
    max_inflight_requests=3,
    scheduler_policy="slo",
    preemption=True,
    preemption_slack_seconds=0.02,
    # the tiny model keeps 256 KV bytes per token: two ~100-token requests
    # fill admission, and about three documents fill the store
    scheduler_gpu_budget_bytes=64_000,
    context_store_budget_bytes=48_000,
    lazy_index_build=True,
    coarse_block_size=16,  # documents of 3-4 blocks split into 2 shards
    tenants=(TenantSpec(BURST, max_queued=1),),
)
FULL = AlayaDBConfig(short_context_threshold=1 << 30, **_SOAK)
SPARSE = AlayaDBConfig(short_context_threshold=8, **_SOAK)

_RNG = np.random.default_rng(20261019)
DOCUMENTS = tuple(
    "".join(chr(97 + int(c)) for c in _RNG.integers(0, 26, size=size)) for size in (47, 55, 63)
)
"""The ingestable library: 48-64 tokens each (with the BOS)."""

OVERSIZED = "x" * 300
"""A prompt whose admission estimate alone exceeds the GPU budget."""


def _letters(size: int, seed: int) -> str:
    return "".join(chr(97 + int(c)) for c in np.random.default_rng(seed).integers(0, 10, size=size))


def _encode(prompt: str) -> list[int]:
    return list(prompt.encode())


text = st.builds(_letters, st.integers(1, 48), st.integers(0, 255))
"""A prompt of up to three prefill chunks."""
pick = st.integers(min_value=0, max_value=15)


class LifecycleMachine(RuleBasedStateMachine):
    """See the module docstring; ``FULL_ATTENTION``, ``SHARDS`` and
    ``DURABLE`` are set per variant by :func:`machine`."""

    FULL_ATTENTION = True
    SHARDS = 1
    DURABLE = True
    """Whether a single-range service stores in a directory (and may restart)
    or in memory."""

    def __init__(self):
        super().__init__()
        self.config = FULL if self.FULL_ATTENTION else SPARSE
        self.root = tempfile.mkdtemp(prefix="lifecycle-")
        self.router = None
        if self.SHARDS == 1:
            backend = FilesystemBackend(self.root) if self.DURABLE else InMemoryBackend()
            self.service = InferenceService(MODEL, self.config, backend=backend)
        else:
            self.router = ShardedContextRouter(MODEL, num_workers=self.SHARDS, config=self.config)
            self.service = self.router.service
        self.handles = []
        self.verified: set[int] = set()
        self.chats = [self.service.chat(max_new_tokens=2) for _ in range(2)]
        self.documents: dict[str, str] = {}
        """Stored library documents by context id."""

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def scheduler(self):
        return self.service.scheduler

    @property
    def store(self) -> ContextStore:
        return self.service.db.store_registry

    def _stores(self) -> list[ContextStore]:
        stores = [self.store]
        if self.router is not None:
            stores += [worker.db.store_registry for worker in self.router.workers]
        return stores

    def _all_handles(self):
        pending = [chat.pending for chat in self.chats if chat.pending is not None]
        return self.handles + pending

    def _submit(self, prompt, max_new_tokens, **kwargs):
        handle = self.service.submit(prompt, max_new_tokens=max_new_tokens, **kwargs)
        self.handles.append(handle)
        return handle

    def _pool(self, kind: str) -> list:
        if kind == "queued":
            return [request.request_id for request in self.scheduler.queued_requests()]
        if kind == "preempted":
            return [fl.request.request_id for fl in self.scheduler.preempted_requests()]
        prefilling = kind == "prefilling"
        return [
            fl.request.request_id
            for fl in self.scheduler.inflight_requests()
            if fl.needs_prefill == prefilling
        ]

    def _removable(self) -> list[str]:
        """Contexts a client may delete: at R = 2 a library document is the
        router's catalog entry, so only conversations qualify there."""
        ids = [cid for cid in self.store.list_ids() if "--shard" not in cid]
        if self.router is not None:
            ids = [cid for cid in ids if cid not in self.documents]
        return ids

    # ------------------------------------------------------------------
    # rules: submit
    # ------------------------------------------------------------------
    @initialize()
    def ingest_first_document(self):
        self.ingest(0)

    @rule(index=st.integers(0, len(DOCUMENTS) - 1))
    def ingest(self, index):
        context_id = f"doc{index}"
        if context_id in self.store:
            with pytest.raises(DuplicateContextError):
                self.service.ingest(DOCUMENTS[index], context_id=context_id)
            return
        if self.router is not None:
            ref = self.router.ingest(DOCUMENTS[index], context_id=context_id, num_shards=self.SHARDS)
            assert ref.num_shards == self.SHARDS
        else:
            assert self.service.ingest(DOCUMENTS[index], context_id=context_id) == context_id
        self.documents[context_id] = DOCUMENTS[index]

    @rule(
        prompt=text,
        copies=st.integers(1, 3),
        max_new_tokens=st.integers(0, 4),
        priority=st.integers(0, 2),
    )
    def submit_one_shot(self, prompt, copies, max_new_tokens, priority):
        """``copies`` distinct prompts at once, so one round can fill every
        slot; a prompt over ``prefill_chunk_tokens`` prefills in chunks."""
        for copy in range(copies):
            self._submit(f"?{copy}" + prompt, max_new_tokens, priority=priority)

    def _stored_tokens(self, which: int) -> list[int] | None:
        """The tokens of one prefix-matchable stored context: a library
        document or a conversation."""
        contexts = [context for _, context in self.store.items() if context.prefix_matchable]
        return list(contexts[which % len(contexts)].tokens) if contexts else None

    @rule(which=pick, cut=st.floats(0.1, 0.95), tail=text, max_new_tokens=st.integers(0, 3))
    def submit_strict_prefix(self, which, cut, tail, max_new_tokens):
        tokens = self._stored_tokens(which)
        if tokens is not None:
            prefix = tokens[: max(int(cut * len(tokens)), self.config.min_reuse_tokens)]
            self._submit(prefix + [ord("#")] + _encode(tail), max_new_tokens)

    @rule(which=pick, tail=st.one_of(st.just(""), text), max_new_tokens=st.integers(0, 3))
    def submit_whole_prefix(self, which, tail, max_new_tokens):
        tokens = self._stored_tokens(which)
        if tokens is not None:
            self._submit(tokens + _encode(tail), max_new_tokens)

    @rule(which=st.integers(0, 1), prompt=text)
    def chat_turn(self, which, prompt):
        chat = self.chats[which]
        previous = chat.pending
        try:
            chat.send(prompt)  # drives the previous turn to its end first
        except AdmissionRejectedError:
            assert previous is not None and previous.status == RequestState.REJECTED
            return
        except RequestFailedError:
            assert previous is not None and previous.status == RequestState.FAILED
            return
        if previous is not None:
            assert previous.is_done

    @rule(prompt=text)
    def submit_to_burst_tenant(self, prompt):
        """The governor's backpressure: a second queued request is a 429."""
        queued = sum(r.tenant == BURST for r in self.scheduler.queued_requests())
        if queued >= 1:
            with pytest.raises(TenantThrottledError):
                self.service.submit("!" + prompt, max_new_tokens=1, tenant=BURST)
        else:
            self._submit("!" + prompt, 1, tenant=BURST)

    @rule()
    def submit_oversized(self):
        handle = self._submit(OVERSIZED, 1)
        with pytest.raises(AdmissionRejectedError):
            handle.result()

    @rule(prompt=text, filler=text)
    def preempt_with_a_tight_slo(self, prompt, filler):
        """Fill every slot with SLO-less requests, then submit an
        SLO-critical one: it pauses the request with the most slack to
        spare, if pausing that request frees the budget it needs."""
        free = self.config.max_inflight_requests - self.scheduler.num_inflight
        for copy in range(free):
            self._submit(f"~{copy}" + filler, 3)
        if free:
            self.service.step()
        before = self.scheduler.stats.preemptions
        self._submit("*" + prompt, 1, slo=SLO(ttft_seconds=1e-4))
        self.service.step()
        if self.scheduler.stats.preemptions > before:
            assert self.scheduler.num_preempted >= 1

    # ------------------------------------------------------------------
    # rules: progress and cancellation
    # ------------------------------------------------------------------
    @rule(rounds=st.integers(1, 3))
    def step(self, rounds):
        for _ in range(rounds):
            self.service.step()

    @precondition(lambda self: self.handles)
    @rule(which=pick, count=st.integers(1, 2))
    def stream(self, which, count):
        handle = self.handles[which % len(self.handles)]
        streamed = []
        try:
            for token in handle.tokens():
                streamed.append(token)
                if len(streamed) >= count:
                    break
        except (AdmissionRejectedError, RequestFailedError):
            return
        assert streamed == self.service.generated_tokens(handle.request_id)[: len(streamed)] or (
            handle.status == RequestState.CANCELLED
        )

    @rule(kind=st.sampled_from(["queued", "prefilling", "decoding", "preempted"]), which=pick)
    def cancel(self, kind, which):
        candidates = self._pool(kind)
        if not candidates:
            return
        request_id = candidates[which % len(candidates)]
        assert self.service.cancel(request_id)
        assert not self.service.cancel(request_id)  # idempotent
        handle = next(h for h in self._all_handles() if h.request_id == request_id)
        assert handle.status == RequestState.CANCELLED
        assert self.service.generated_tokens(request_id) == []

    @rule(which=st.integers(0, 1))
    def cancel_chat_turn(self, which):
        chat = self.chats[which]
        pending = chat.pending
        if chat.cancel():
            assert pending.status == RequestState.CANCELLED

    # ------------------------------------------------------------------
    # rules: the store
    # ------------------------------------------------------------------
    @rule(which=pick)
    def spill(self, which):
        ids = self.store.list_ids()
        if not ids:
            return
        context_id = ids[which % len(ids)]
        if self.store.pin_count(context_id) and context_id in self.store.resident_ids():
            with pytest.raises(ValueError):
                self.store.spill(context_id)
        else:
            self.store.spill(context_id)
            assert not self.store.get(context_id).is_resident

    @rule(which=pick)
    def reload(self, which):
        ids = self.store.list_ids()
        if ids:
            assert self.store.ensure_resident(ids[which % len(ids)]).is_resident

    @rule(which=pick)
    def remove(self, which):
        ids = self._removable()
        if not ids:
            return
        context_id = ids[which % len(ids)]
        tokens = list(self.store.get(context_id).tokens)
        self.store.remove(context_id)
        self.documents.pop(context_id, None)
        assert context_id not in self.store
        match = self.store.find_longest_prefix(tokens).context
        assert match is None or match.context_id != context_id

    # ------------------------------------------------------------------
    # rules: restart
    # ------------------------------------------------------------------
    @precondition(lambda self: self.router is None and self.DURABLE)
    @rule()
    def restart(self):
        """Drain, flush, reopen the database directory, and serve on."""
        self.service.drain()
        self.check_finished()
        self.store.flush()
        check_drained(self.service)
        catalog = {cid: list(context.tokens) for cid, context in self.store.items()}
        reopened = ContextStore.open(self.root)
        assert {cid: list(context.tokens) for cid, context in reopened.items()} == catalog
        assert reopened.resident_ids() == []  # recovered cold
        self.service = InferenceService(MODEL, self.config, backend=FilesystemBackend(self.root))
        self.handles = []
        self.chats = [self.service.chat(chat.context_id, max_new_tokens=2) for chat in self.chats]

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def reservations_are_the_inflight_sum(self):
        scheduler = self.scheduler
        live = scheduler.inflight_requests() + scheduler.preempted_requests()
        assert scheduler.admission.committed_bytes == sum(fl.reserved_bytes for fl in live)
        tenants = scheduler.tenants
        for name in tenants.known_tenants():
            mine = [fl for fl in live if fl.request.tenant == name]
            stats = tenants.stats(name)
            assert stats.inflight == len(mine), name
            assert stats.reserved_bytes == sum(fl.estimated_bytes for fl in mine), name

    @invariant()
    def pins_are_the_running_sessions(self):
        """Pins are held by id: one per running session connected to the id,
        kept across an overwrite or a remove of the id until the session
        closes.  A preempted session holds none, nor does one that resumed
        after its context was removed (it reads its own resident version)."""
        running: dict[str, int] = {}
        for inflight in self.scheduler.inflight_requests():
            session = inflight.session
            if session.context is not None and session._on_close is not None:
                context_id = session.context.context_id
                running[context_id] = running.get(context_id, 0) + 1
        for store in self._stores():
            expected = running if store is self.store else {}
            for context_id in set(store.list_ids()) | set(store.pinned_ids()) | set(expected):
                assert store.pin_count(context_id) == expected.get(context_id, 0), context_id

    @invariant()
    def lru_holds_the_resident_contexts(self):
        for store in self._stores():
            resident = [context for _, context in store.items() if context.is_resident]
            assert sorted(store.resident_ids()) == sorted(c.context_id for c in resident)
            assert store.resident_kv_bytes == sum(c.kv_bytes for c in resident)

    @invariant()
    def live_requests_are_scheduled(self):
        scheduler = self.scheduler
        where = {r.request_id: (RequestState.QUEUED, RequestState.DEFERRED) for r in scheduler.queued_requests()}
        where.update((fl.request.request_id, (RequestState.RUNNING,)) for fl in scheduler.inflight_requests())
        where.update((fl.request.request_id, (RequestState.PREEMPTED,)) for fl in scheduler.preempted_requests())
        for handle in self._all_handles():
            if handle.is_done:
                assert handle.request_id not in where
            else:
                assert handle.status in where.get(handle.request_id, ()), handle
        assert set(self.service._live) == {
            fl.request.request_id for fl in scheduler.inflight_requests() + scheduler.preempted_requests()
        }

    @invariant()
    def check_finished(self):
        """Every finished request's tokens, checked once."""
        for handle in self._all_handles():
            if handle.status != RequestState.FINISHED or handle.request_id in self.verified:
                continue
            self.verified.add(handle.request_id)
            result, record = self.service.result(handle)
            request = handle.request
            if not self.FULL_ATTENTION:
                assert len(result.generated_tokens) == request.max_new_tokens or result.finished_by_eos
                continue
            prompt = list(request.prompt_tokens)
            consumed = prompt if record.reused_tokens < len(prompt) else prompt + [BOS]
            expected = reference_generate(MODEL, consumed, max_new_tokens=request.max_new_tokens)
            assert result.generated_tokens == expected, (record.reused_tokens, len(prompt))

    def teardown(self):
        try:
            self.service.drain()
            self.check_finished()
            self.store.flush()
            check_drained(self.service)
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


def machine(full_attention: bool, shards: int, durable: bool = True) -> type[LifecycleMachine]:
    name = f"Lifecycle{'Full' if full_attention else 'Sparse'}R{shards}"
    attributes = {"FULL_ATTENTION": full_attention, "SHARDS": shards, "DURABLE": durable}
    return type(name, (LifecycleMachine,), attributes)


VARIANTS = [
    pytest.param(full, shards, id=f"{'full' if full else 'sparse'}-R{shards}")
    for full in (True, False)
    for shards in (1, 2)
]


def _run(full_attention: bool, shards: int, max_examples: int, steps: int) -> None:
    run_state_machine_as_test(
        machine(full_attention, shards),
        settings=settings(
            max_examples=max_examples,
            stateful_step_count=steps,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        ),
    )


@pytest.mark.parametrize("full_attention, shards", VARIANTS)
def test_lifecycle(full_attention, shards):
    # a single-range service lands every store write in a directory, which
    # costs fsyncs; the router's shared backend is in memory
    _run(full_attention, shards, max_examples=10 if shards == 1 else 30, steps=30)


@pytest.mark.slow
@pytest.mark.parametrize("full_attention, shards", VARIANTS)
def test_lifecycle_long(full_attention, shards):
    _run(full_attention, shards, max_examples=60, steps=60)


# ----------------------------------------------------------------------
# shrunk programs the machine found, kept as regression tests
# ----------------------------------------------------------------------
INVARIANTS = (
    "reservations_are_the_inflight_sum",
    "pins_are_the_running_sessions",
    "lru_holds_the_resident_contexts",
    "live_requests_are_scheduled",
    "check_finished",
)


def _replay(full_attention: bool, shards: int, program: list) -> None:
    """Run one rule program, checking every invariant after each rule.

    A program is a list of ``(rule, arguments)`` pairs; a callable in it is a
    witness, asserted on the machine at that point, that the program reached
    the path it is named for.  Only a program that restarts stores in a
    directory (its fsyncs are most of a program's time)."""
    durable = any(not callable(step) and step[0] == "restart" for step in program)
    state = machine(full_attention, shards, durable)()
    for step in program:
        if callable(step):
            assert step(state), step.__name__
            continue
        name, arguments = step
        getattr(state, name)(**arguments)
        for check in INVARIANTS:
            getattr(state, check)()
    state.teardown()


def test_paused_request_outlives_the_removal_of_its_context():
    """Removing the context a paused request reads made its resume raise
    ``ContextNotFoundError`` out of ``step()``.  The request now finishes on
    the version it was created on, still resident, with the oracle's
    tokens."""
    _replay(True, 1, [
        ("ingest_first_document", {}),
        ("submit_whole_prefix", dict(which=0, tail="q", max_new_tokens=3)),
        ("preempt_with_a_tight_slo", dict(prompt="i", filler="abcdefghij" * 3)),
        ("remove", dict(which=0)),
    ])


def test_removing_a_pinned_context_keeps_its_pins():
    """``remove`` dropped the pins of the sessions still reading the context,
    so after a re-ingest under the same id the old session's close took the
    new session's pin."""
    _replay(True, 1, [
        ("ingest_first_document", {}),
        ("submit_whole_prefix", dict(which=0, tail="abcdefghij" * 4, max_new_tokens=3)),
        ("step", dict(rounds=1)),
        ("remove", dict(which=0)),
        ("ingest", dict(index=0)),
        ("submit_whole_prefix", dict(which=0, tail="q", max_new_tokens=3)),
        ("step", dict(rounds=4)),
    ])


def test_sharding_into_a_full_store_keeps_the_base_resident():
    """Adding a shard to a store over its byte budget spilled the base
    context the next shard is sliced from (``AttributeError`` on its
    ``None`` snapshot)."""
    _replay(False, 2, [
        ("ingest_first_document", {}),
        ("submit_oversized", {}),
        ("chat_turn", dict(prompt=_letters(41, 0), which=0)),
        ("submit_oversized", {}),
        ("submit_oversized", {}),
        ("submit_to_burst_tenant", dict(prompt=_letters(47, 0))),
        ("chat_turn", dict(prompt=_letters(24, 0), which=0)),
        ("submit_oversized", {}),
        ("submit_whole_prefix", dict(max_new_tokens=0, tail=_letters(33, 0), which=0)),
        ("submit_oversized", {}),
        ("ingest", dict(index=2)),
    ])


# ----------------------------------------------------------------------
# one fixed program per lifecycle path, at every variant
# ----------------------------------------------------------------------
# The random programs above reach each path only by chance; these reach it
# on every run, with a witness that they did.  Each of three mutations fails
# some of them in well under a second: an admission release skipped on
# cancel (every cancel of an admitted request), an unpin dropped on
# preemption (the preempting programs at R = 1) and a resumed request
# re-prefilling over its stale local KV (the FULL oracle at R = 1).
def one_cancelled(state):
    return state.scheduler.stats.cancelled == 1


def one_preempted(state):
    return state.scheduler.stats.preemptions == 1


def one_burst_request(state):
    """The second burst submission was the 429: only the first is held."""
    return sum(handle.request.tenant == BURST for handle in state.handles) == 1


def whole_prompt_reused(state):
    handle = state.handles[0]
    result, record = state.service.result(handle)
    return record.reused_tokens == len(handle.request.prompt_tokens) and len(result.generated_tokens) == 3


def conversation_removed(state):
    return state.chats[0].context_id not in state.store


def turn_reused_the_stored_transcript(state):
    """The turn after a cancelled one builds on the last completed turn."""
    turns = state.chats[0].turns
    return len(turns) == 2 and turns[1].reused_tokens > 0


def every_request_finished_before_the_restart(state):
    return len(state.verified) == 5


_DOC = ("ingest_first_document", {})
_PREEMPT = ("preempt_with_a_tight_slo", dict(prompt="i", filler=_letters(1, 0)))
PROGRAMS = {
    "cancel-queued": [
        _DOC,
        ("submit_one_shot", dict(prompt=_letters(8, 0), copies=3, max_new_tokens=2, priority=0)),
        ("submit_one_shot", dict(prompt=_letters(8, 1), copies=1, max_new_tokens=2, priority=0)),
        ("cancel", dict(kind="queued", which=0)),
        one_cancelled,
    ],
    "cancel-prefilling": [
        _DOC,
        ("submit_one_shot", dict(prompt=_letters(40, 0), copies=1, max_new_tokens=2, priority=0)),
        ("step", dict(rounds=1)),
        ("cancel", dict(kind="prefilling", which=0)),
        one_cancelled,
    ],
    "cancel-decoding": [
        _DOC,
        ("submit_one_shot", dict(prompt=_letters(4, 0), copies=1, max_new_tokens=4, priority=0)),
        ("step", dict(rounds=2)),
        ("cancel", dict(kind="decoding", which=0)),
        one_cancelled,
    ],
    "cancel-preempted": [
        _DOC,
        ("submit_whole_prefix", dict(which=0, tail="q", max_new_tokens=3)),
        ("preempt_with_a_tight_slo", dict(prompt="i", filler="abcdefghij" * 3)),
        one_preempted,
        ("cancel", dict(kind="preempted", which=0)),
        one_cancelled,
    ],
    "preempt-resume": [
        _DOC,
        ("submit_strict_prefix", dict(cut=0.5, max_new_tokens=2, tail=_letters(16, 0), which=0)),
        _PREEMPT,
        one_preempted,
        ("step", dict(rounds=3)),
    ],
    "tenant-429": [
        ("submit_to_burst_tenant", dict(prompt=_letters(4, 0))),
        ("submit_to_burst_tenant", dict(prompt=_letters(4, 1))),
        one_burst_request,
    ],
    "whole-prompt-reuse": [
        _DOC,
        ("submit_whole_prefix", dict(which=0, tail="", max_new_tokens=3)),
        ("step", dict(rounds=3)),
        ("step", dict(rounds=3)),
        whole_prompt_reused,
    ],
    "spill-reload-remove": [
        _DOC,
        ("chat_turn", dict(which=0, prompt=_letters(20, 5))),
        ("step", dict(rounds=3)),
        ("ingest", dict(index=1)),
        ("submit_whole_prefix", dict(which=1, tail="", max_new_tokens=2)),
        ("step", dict(rounds=1)),
        ("spill", dict(which=0)),
        ("spill", dict(which=1)),
        ("reload", dict(which=0)),
        ("spill", dict(which=2)),
        ("remove", dict(which=0)),
        conversation_removed,
        ("step", dict(rounds=3)),
    ],
    "chat-cancel": [
        ("chat_turn", dict(which=0, prompt=_letters(30, 0))),
        ("chat_turn", dict(which=0, prompt=_letters(10, 1))),
        ("step", dict(rounds=1)),
        ("cancel_chat_turn", dict(which=0)),
        one_cancelled,
        ("chat_turn", dict(which=0, prompt=_letters(5, 2))),
        ("chat_turn", dict(which=0, prompt=_letters(5, 3))),
        turn_reused_the_stored_transcript,
    ],
}
RESTART = [
    _DOC,
    ("submit_strict_prefix", dict(cut=0.5, max_new_tokens=2, tail=_letters(1, 0), which=0)),
    _PREEMPT,
    one_preempted,
    ("restart", {}),
    every_request_finished_before_the_restart,
    ("submit_whole_prefix", dict(which=0, tail="q", max_new_tokens=2)),
    ("step", dict(rounds=3)),
]


@pytest.mark.parametrize("full_attention, shards", VARIANTS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_program(program, full_attention, shards):
    _replay(full_attention, shards, PROGRAMS[program])


@pytest.mark.parametrize("full_attention", [True, False], ids=["full", "sparse"])
def test_restart_after_a_resume(full_attention):
    """Restart runs at one range only: a router's shard catalog lives in
    memory, so a reopened directory holds its shards as plain contexts."""
    _replay(full_attention, 1, RESTART)
