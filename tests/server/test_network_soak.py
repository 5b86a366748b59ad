"""Network soak: hundreds of concurrent mixed-tenant streams over real TCP.

The HTTP counterpart of ``tests/core/test_lifecycle_machine.py``: one
server, one event loop, and three phases —

1. **parity at scale**: 220 concurrent SSE streams across three tenants;
   every stream's token sequence must be byte-identical to what the
   in-process ``repro.api`` facade produces for the same prompt (greedy
   sampling + fixed per-request seeds make the stream a pure function of the
   prompt, whatever the network interleaving did to scheduling order);
2. **disconnect storm**: dozens of clients drop their connections mid-stream
   (TCP aborts, not clean closes) while others cancel via DELETE;
3. **drain**: a graceful shutdown must settle with zero pinned contexts,
   zero admission reservations, and no request in a non-terminal state —
   the invariants the lifecycle machine asserts, re-checked here through
   :func:`repro.server.check_drained`.

Marked ``slow`` (out of tier-1) and ``server`` (the CI server job runs it).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import Client
from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.llm.model import ModelConfig, TransformerModel
from repro.scheduler import TenantSpec
from repro.server import AlayaDBServer, ServerClient, check_drained
from repro.storage.backend import FilesystemBackend

pytestmark = [pytest.mark.slow, pytest.mark.server]

NUM_STREAMS = 220
STORM_STREAMS = 40
DELETE_CANCELS = 10
MAX_NEW_TOKENS = 6

PROMPTS = [
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen liquor jugs",
    "sphinx of black quartz judge my vow",
    "how vexingly quick daft zebras jump",
    "a stitch in time saves nine",
    "all that glitters is not gold",
    "actions speak louder than words",
    "the early bird catches the worm",
    "practice makes perfect they say",
    "rome was not built in a day",
    "fortune favours the bold ones",
    "curiosity killed the cat maybe",
]
TENANTS = ["gold", "bronze", "default"]


def _config(**kwargs) -> AlayaDBConfig:
    return AlayaDBConfig(
        http_port=0,
        tenants=(TenantSpec(name="gold", weight=3), TenantSpec(name="bronze", weight=1)),
        **kwargs,
    )


def _service(tmp_path, **kwargs) -> InferenceService:
    model = TransformerModel(ModelConfig.tiny())
    return InferenceService(model, _config(**kwargs), backend=FilesystemBackend(tmp_path))


def _expected_streams(tmp_path) -> dict[str, list[int]]:
    """The in-process facade's token stream per prompt (the parity oracle)."""
    client = Client(_service(tmp_path))
    expected = {}
    for prompt in PROMPTS:
        chunks = client.completions.create(
            prompt, max_new_tokens=MAX_NEW_TOKENS, stream=True
        )
        expected[prompt] = [chunk.token_id for chunk in chunks]
    return expected


def test_network_soak(tmp_path):
    expected = _expected_streams(tmp_path / "oracle")

    async def scenario():
        service = _service(tmp_path / "serving")
        server = AlayaDBServer(service)
        await server.start()
        client = ServerClient(*server.address)

        # -- phase 1: 220 concurrent mixed-tenant streams, byte-identical --
        async def one_stream(index: int):
            prompt = PROMPTS[index % len(PROMPTS)]
            tenant = TENANTS[index % len(TENANTS)]
            stream, events = await client.collect_stream(
                prompt=prompt, max_new_tokens=MAX_NEW_TOKENS, tenant=tenant
            )
            assert stream.status == 200, events
            return prompt, stream, events

        results = await asyncio.gather(*(one_stream(i) for i in range(NUM_STREAMS)))
        for prompt, stream, events in results:
            assert stream.done, "stream ended without [DONE]"
            tokens = [e["token_id"] for e in events if "token_id" in e]
            assert tokens == expected[prompt], (
                f"stream for {prompt!r} diverged from the in-process facade"
            )
            final = events[-1]
            assert final["done"] is True
            assert final["usage"]["completion_tokens"] == len(tokens)
        assert server.stats.streams_completed == NUM_STREAMS

        # every tenant was actually served and accounted
        rows = service.memory_report()["tenants"]
        for tenant in TENANTS:
            assert rows[tenant]["completed"] > 0
            assert rows[tenant]["tokens_served"] > 0

        # -- phase 2: disconnect storm + explicit DELETE cancels ----------
        async def storm_stream(index: int):
            stream = await client.stream_completion(
                prompt=f"storm {index} " + PROMPTS[index % len(PROMPTS)],
                max_new_tokens=5000,
                tenant=TENANTS[index % len(TENANTS)],
            )
            if index < DELETE_CANCELS:
                # explicit cancel over the API, then read the stream out
                async for event in stream.events():
                    if "token_id" in event:
                        await client.cancel(stream.request_id)
                await stream.close()
                return "delete"
            async for _event in stream.events():
                stream.abort()  # hard TCP drop mid-stream
                return "abort"
            return "finished-early"

        outcomes = await asyncio.gather(*(storm_stream(i) for i in range(STORM_STREAMS)))
        assert outcomes.count("abort") == STORM_STREAMS - DELETE_CANCELS
        assert outcomes.count("delete") == DELETE_CANCELS

        # -- phase 3: drain and verify the invariants ---------------------
        await server.shutdown(drain=True)  # runs check_drained internally
        check_drained(service)

        scheduler = service.scheduler
        assert not scheduler.has_work
        assert scheduler.admission.committed_bytes == 0
        assert service.db.store_registry.num_pinned == 0
        assert service._live == {}
        # every storm request reached a terminal state, none leaked
        assert service.stats.cancelled == STORM_STREAMS
        assert server.stats.disconnect_cancels == STORM_STREAMS - DELETE_CANCELS
        assert scheduler.stats.completed == NUM_STREAMS
        assert server.state == "stopped"

    asyncio.run(scenario())


def test_network_soak_under_memory_pressure(tmp_path):
    """A small admission budget adds deferrals to the mix; streams must still
    match the oracle and the drain must still be clean."""
    expected = _expected_streams(tmp_path / "oracle")

    async def scenario():
        service = _service(
            tmp_path / "serving",
            scheduler_gpu_budget_bytes=400_000,
            max_inflight_requests=4,
        )
        server = AlayaDBServer(service)
        await server.start()
        client = ServerClient(*server.address)

        async def one_stream(index: int):
            prompt = PROMPTS[index % len(PROMPTS)]
            stream, events = await client.collect_stream(
                prompt=prompt, max_new_tokens=MAX_NEW_TOKENS,
                tenant=TENANTS[index % len(TENANTS)],
            )
            return prompt, stream, events

        results = await asyncio.gather(*(one_stream(i) for i in range(80)))
        served = 0
        for prompt, stream, events in results:
            if stream.status != 200:
                continue  # a rejection is allowed under pressure; a wrong stream is not
            tokens = [e["token_id"] for e in events if "token_id" in e]
            if events and events[-1].get("finish_reason") == "rejected":
                continue
            assert tokens == expected[prompt]
            served += 1
        assert served > 0
        await server.shutdown(drain=True)
        check_drained(service)

    asyncio.run(scenario())
