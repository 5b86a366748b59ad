"""Tier-1 tests of the HTTP serving frontend.

Each test boots an :class:`AlayaDBServer` on an ephemeral port inside one
asyncio event loop and talks to it over real TCP with the package's own
:class:`ServerClient` — covering response parity with the in-process facade,
SSE streaming, cancellation (explicit and via client disconnect), the
structured error surface, tenant backpressure over the wire, stats, and
graceful shutdown with drain invariants.
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


def _service(tmp_path, **config_kwargs) -> InferenceService:
    model = TransformerModel(ModelConfig.tiny())
    config = AlayaDBConfig(http_port=0, **config_kwargs)
    return InferenceService(model, config, backend=FilesystemBackend(tmp_path))


def run(coro):
    """Each test runs in a fresh event loop (servers never leak across tests)."""
    return asyncio.run(coro)


async def _serving(service):
    server = AlayaDBServer(service)
    await server.start()
    return server, ServerClient(*server.address)


class TestCompletions:
    def test_non_streaming_matches_in_process_facade(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            # the greedy sampler + fixed per-request seed make token streams a
            # pure function of the prompt, so the wire must match in-process
            expected = Client(_service(tmp_path / "ref")).completions.create(
                "the quick brown fox", max_new_tokens=6
            )
            server, client = await _serving(service)
            response = await client.completion(prompt="the quick brown fox", max_new_tokens=6)
            assert response.status == 200
            payload = response.json()
            assert payload["token_ids"] == expected.choices[0].token_ids
            assert payload["text"] == expected.text
            assert payload["finish_reason"] == expected.choices[0].finish_reason
            assert payload["usage"]["prompt_tokens"] == expected.usage.prompt_tokens
            assert payload["usage"]["completion_tokens"] == expected.usage.completion_tokens
            assert payload["usage"]["reused_tokens"] == expected.usage.reused_tokens
            await server.shutdown()

        run(scenario())

    def test_streaming_tokens_match_non_streaming(self, tmp_path):
        async def scenario():
            server, client = await _serving(_service(tmp_path))
            flat = await client.completion(prompt="stream me", max_new_tokens=5)
            stream, events = await client.collect_stream(prompt="stream me", max_new_tokens=5)
            assert stream.status == 200
            assert stream.done
            chunks = [e for e in events if "token_id" in e]
            final = events[-1]
            assert [c["token_id"] for c in chunks] == flat.json()["token_ids"]
            assert [c["index"] for c in chunks] == list(range(len(chunks)))
            assert final["done"] is True
            assert final["finish_reason"] == flat.json()["finish_reason"]
            assert final["usage"] == flat.json()["usage"]
            await server.shutdown()

        run(scenario())

    def test_concurrent_streams_interleave_one_pump(self, tmp_path):
        async def scenario():
            server, client = await _serving(_service(tmp_path))
            prompts = [f"prompt number {i}" for i in range(6)]
            results = await asyncio.gather(
                *(client.collect_stream(prompt=p, max_new_tokens=4) for p in prompts)
            )
            for _, events in results:
                chunks = [e for e in events if "token_id" in e]
                assert len(chunks) == 4
                assert events[-1]["done"] is True
            # all streams shared the server's single pump: batched decodes ran
            assert server.service.scheduler.stats.batched_decode_calls > 0
            await server.shutdown()

        run(scenario())

    def test_token_id_prompt_and_store_context(self, tmp_path):
        async def scenario():
            server, client = await _serving(_service(tmp_path))
            response = await client.completion(
                prompt=[5, 6, 7, 8], max_new_tokens=3, store_context_id="ctx-a"
            )
            assert response.status == 200
            assert "ctx-a" in server.service.db.store_registry
            await server.shutdown()

        run(scenario())


class TestCancellation:
    def test_delete_cancels_a_running_stream(self, tmp_path):
        async def scenario():
            server, client = await _serving(_service(tmp_path))
            stream = await client.stream_completion(prompt="long one", max_new_tokens=5000)
            request_id = stream.request_id
            assert request_id is not None
            events = []
            async for event in stream.events():
                events.append(event)
                if len(events) == 2:
                    response = await client.cancel(request_id)
                    assert response.json() == {"request_id": request_id, "cancelled": True}
            final = events[-1]
            assert final["status"] == "cancelled"
            assert final["finish_reason"] == "cancelled"
            await stream.close()
            # idempotent second cancel
            assert (await client.cancel(request_id)).json()["cancelled"] is False
            await server.shutdown()
            assert server.service.stats.cancelled == 1

        run(scenario())

    def test_client_disconnect_cancels_and_frees_resources(self, tmp_path):
        async def scenario():
            server, client = await _serving(_service(tmp_path))
            stream = await client.stream_completion(prompt="goodbye cruel world", max_new_tokens=5000)
            async for _event in stream.events():
                stream.abort()  # drop TCP mid-stream: the disconnect path
                break
            # let the server observe the EOF and cancel
            for _ in range(200):
                if server.stats.disconnect_cancels:
                    break
                await asyncio.sleep(0.005)
            assert server.stats.disconnect_cancels == 1
            assert server.service.stats.cancelled == 1
            await server.shutdown()  # asserts zero pins / zero reservations

        run(scenario())

    def test_disconnect_before_first_token_cancels_nonstreaming(self, tmp_path):
        async def scenario():
            server, client = await _serving(_service(tmp_path))
            reader, writer = await asyncio.open_connection(*server.address)
            body = b'{"prompt": "never read", "max_new_tokens": 5000}'
            writer.write(
                b"POST /v1/completions HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
            writer.transport.abort()
            for _ in range(200):
                if server.service.stats.cancelled:
                    break
                await asyncio.sleep(0.005)
            assert server.service.stats.cancelled == 1
            await server.shutdown()

        run(scenario())


class TestErrorSurface:
    def test_malformed_and_invalid_bodies(self, tmp_path):
        async def scenario():
            server, client = await _serving(_service(tmp_path))
            cases = [
                ({"prompt": 7}, 400, "invalid_request"),
                ({"prompt": "x", "max_new_tokens": "five"}, 400, "invalid_request"),
                ({"prompt": "x", "stream": "yes"}, 400, "invalid_request"),
                ({"prompt": "x", "surprise": 1}, 400, "unknown_field"),
                ({"prompt": "x", "tenant": 9}, 400, "invalid_request"),
                ({"prompt": "x", "slo": {"bogus": 1}}, 400, "invalid_request"),
                ({"prompt": ""}, 400, "invalid_request"),
            ]
            for payload, status, code in cases:
                response = await client.request("POST", "/v1/completions", payload)
                assert response.status == status, payload
                assert response.json()["error"]["code"] == code, payload

            # non-JSON body
            raw = await client.request("POST", "/v1/completions", None)
            assert raw.status in (400, 411)
            await server.shutdown()

        run(scenario())

    def test_oversized_body_is_413(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, http_max_body_bytes=256)
            server, client = await _serving(service)
            response = await client.completion(prompt="y" * 1000, max_new_tokens=1)
            assert response.status == 413
            assert response.json()["error"]["code"] == "body_too_large"
            await server.shutdown()

        run(scenario())

    def test_unknown_route_and_method(self, tmp_path):
        async def scenario():
            server, client = await _serving(_service(tmp_path))
            assert (await client.request("GET", "/nope")).status == 404
            assert (await client.request("GET", "/v1/completions", None)).status == 405
            assert (await client.request("POST", "/v1/stats", {})).status == 405
            bad_id = await client.request("DELETE", "/v1/requests/seven")
            assert bad_id.status == 400
            assert bad_id.json()["error"]["code"] == "invalid_request_id"
            await server.shutdown()

        run(scenario())

    def test_unknown_tenant_is_400(self, tmp_path):
        async def scenario():
            service = _service(
                tmp_path, strict_tenants=True, tenants=(TenantSpec(name="known"),)
            )
            server, client = await _serving(service)
            ok = await client.completion(prompt="hi", max_new_tokens=1, tenant="known")
            assert ok.status == 200
            bad = await client.completion(prompt="hi", max_new_tokens=1, tenant="spoof")
            assert bad.status == 400
            assert bad.json()["error"]["code"] == "unknown_tenant"
            await server.shutdown()

        run(scenario())

    def test_backpressure_is_429_with_retry_headers(self, tmp_path):
        async def scenario():
            service = _service(
                tmp_path,
                tenants=(TenantSpec(name="busy", max_queued=1),),
                max_inflight_requests=1,
            )
            server, client = await _serving(service)
            # a long-running stream keeps the queue occupied...
            stream = await client.stream_completion(
                prompt="occupy the only slot", max_new_tokens=5000, tenant="busy"
            )
            # ...plus one queued request fills the tenant's max_queued=1
            second = asyncio.create_task(
                client.completion(prompt="queued", max_new_tokens=5000, tenant="busy")
            )
            throttled = None
            for _ in range(100):
                response = await client.completion(
                    prompt="one too many", max_new_tokens=1, tenant="busy"
                )
                if response.status == 429:
                    throttled = response
                    break
                await asyncio.sleep(0.01)
            assert throttled is not None, "backpressure never engaged"
            assert throttled.json()["error"]["code"] == "tenant_throttled"
            assert int(throttled.headers["retry-after"]) >= 1
            assert int(throttled.headers["x-queue-position"]) == 2
            assert throttled.headers["x-tenant"] == "busy"
            assert server.stats.throttled >= 1
            stream.abort()
            second.cancel()
            try:
                await second
            except asyncio.CancelledError:
                pass
            await server.shutdown(drain=False)

        run(scenario())


class TestStatsAndLifecycle:
    def test_stats_endpoint_reports_tenants_and_counters(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, tenant_fairness=True)
            server, client = await _serving(service)
            await client.completion(prompt="alpha speaks", max_new_tokens=2, tenant="alpha")
            stats = await client.stats()
            assert stats["state"] == "serving"
            assert stats["server"]["completions"] == 1
            assert stats["scheduler"]["completed"] == 1
            rows = stats["memory"]["tenants"]
            assert rows["alpha"]["completed"] == 1
            assert rows["alpha"]["tokens_served"] == 2
            health = await client.health()
            assert health == {"status": "serving"}
            await server.shutdown()

        run(scenario())

    def test_drain_shutdown_finishes_inflight_work(self, tmp_path):
        async def scenario():
            server, client = await _serving(_service(tmp_path))
            collector = asyncio.create_task(
                client.collect_stream(prompt="finish me", max_new_tokens=8)
            )
            while not server.service.scheduler.has_work:
                await asyncio.sleep(0.001)
            await server.shutdown(drain=True)
            stream, events = await collector
            assert stream.done  # the stream completed in full during drain
            assert sum("token_id" in e for e in events) == 8
            assert server.state == "stopped"
            # the listener is closed: a post-drain connection is refused
            with pytest.raises(OSError):
                await client.completion(prompt="too late", max_new_tokens=1)

        run(scenario())

    def test_cancel_shutdown_aborts_inflight_work(self, tmp_path):
        async def scenario():
            server, client = await _serving(_service(tmp_path))
            collector = asyncio.create_task(
                client.collect_stream(prompt="abort me", max_new_tokens=5000)
            )
            while not server.service.scheduler.has_work:
                await asyncio.sleep(0.001)
            await server.shutdown(drain=False)
            stream, events = await collector
            assert events[-1].get("finish_reason") == "cancelled"
            assert server.service.stats.cancelled == 1
            check_drained(server.service)  # explicit: invariants hold post-cancel

        run(scenario())

    def test_draining_rejects_new_completions_with_503(self, tmp_path):
        async def scenario():
            server, client = await _serving(_service(tmp_path))
            server.state = "draining"  # simulate the drain window
            refused = await client.completion(prompt="no", max_new_tokens=1)
            assert refused.status == 503
            assert refused.json()["error"]["code"] == "draining"
            # stats stays available during the drain window
            assert (await client.health())["status"] == "draining"
            server.state = "serving"
            await server.shutdown()

        run(scenario())
