"""Unit checks of the benchmark's tracer (collected by the tier-1 pytest run)."""

from __future__ import annotations

import asyncio
import inspect
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402


@pytest.fixture
def fake_package():
    """A two-module package: ``home`` defines the targets, ``user`` holds a
    ``from home import`` alias of one of them."""
    home = types.ModuleType("e2e_fake.home")
    user = types.ModuleType("e2e_fake.user")

    def leaf(n):
        time.sleep(0.002)
        return n + 1

    def outer(n):
        time.sleep(0.001)
        return home.leaf(n) + home.leaf(n)

    async def fetch(n):
        await asyncio.sleep(0.02)
        return home.leaf(n)

    class Thing:
        def method(self, n):
            return n * 2

        @classmethod
        def build(cls):
            return cls()

    home.leaf, home.outer, home.fetch, home.Thing = leaf, outer, fetch, Thing
    user.leaf = leaf
    sys.modules.update({"e2e_fake": types.ModuleType("e2e_fake"), "e2e_fake.home": home, "e2e_fake.user": user})
    yield home, user
    for name in ("e2e_fake", "e2e_fake.home", "e2e_fake.user"):
        del sys.modules[name]


FAKE_TARGETS = {
    "leaf": "e2e_fake.home:leaf",
    "outer": "e2e_fake.home:outer",
    "fetch": "e2e_fake.home:fetch",
    "thing.method": "e2e_fake.home:Thing.method",
    "thing.build": "e2e_fake.home:Thing.build",
}


def test_install_and_uninstall_restore_the_original_callables(fake_package):
    home, user = fake_package
    before = {
        "leaf": home.leaf, "alias": user.leaf, "outer": home.outer, "fetch": home.fetch,
        "method": inspect.getattr_static(home.Thing, "method"),
        "build": inspect.getattr_static(home.Thing, "build"),
    }
    tracer = tracing.Tracer(FAKE_TARGETS, counts={})
    tracer.install()
    assert tracer.unresolved == []
    assert home.leaf is not before["leaf"] and user.leaf is home.leaf  # the alias is patched too
    assert inspect.getattr_static(home.Thing, "method") is not before["method"]
    assert isinstance(home.Thing.build(), home.Thing)  # still a classmethod
    tracer.uninstall()
    after = {
        "leaf": home.leaf, "alias": user.leaf, "outer": home.outer, "fetch": home.fetch,
        "method": inspect.getattr_static(home.Thing, "method"),
        "build": inspect.getattr_static(home.Thing, "build"),
    }
    assert all(after[name] is before[name] for name in before)


def test_wrappers_record_only_while_enabled(fake_package):
    home, _ = fake_package
    tracer = tracing.Tracer(FAKE_TARGETS, counts={})
    tracer.install()
    try:
        assert home.outer(1) == 4 and tracer.spans == []
        tracer.enabled = True
        assert home.outer(1) == 4
        assert [span.name for span in tracer.spans] == ["outer", "leaf", "leaf"]
    finally:
        tracer.uninstall()


def test_nested_spans_give_non_negative_self_time(fake_package):
    home, _ = fake_package
    tracer = tracing.Tracer(FAKE_TARGETS, counts={})
    tracer.install()
    tracer.enabled = True
    try:
        home.outer(1)
    finally:
        tracer.uninstall()
    outer, first, second = tracer.spans
    assert first.parent == 0 and second.parent == 0 and outer.parent is None
    own = tracer.self_times()
    assert all(value >= 0.0 for value in own)
    assert own[0] == pytest.approx(outer.time - first.time - second.time)
    assert own[0] >= 0.0009  # the sleep outer() does itself


def test_coroutine_target_is_timed_as_wall_with_awaits_marked(fake_package):
    home, _ = fake_package
    tracer = tracing.Tracer(FAKE_TARGETS, counts={"fetch": lambda a, k, r: {"result": r}})
    tracer.install()
    tracer.enabled = True
    try:
        assert asyncio.run(home.fetch(1)) == 2
    finally:
        tracer.uninstall()
    fetch, leaf = tracer.spans
    assert fetch.name == "fetch" and leaf.parent == 0
    wall = fetch.end - fetch.start
    assert wall >= 0.02  # includes the await
    assert fetch.busy is not None and fetch.busy < wall - 0.015  # ... which busy time leaves out
    assert fetch.busy >= leaf.time  # the child ran inside a busy slice
    assert fetch.counts == {"result": 2}


def test_bogus_target_is_unresolved_and_its_metrics_are_null_not_zero():
    targets = dict(tracing.SPAN_TARGETS)
    targets["planner.retrieve_heads"] = "repro.core.planner:PlanExecutor.no_such_method"
    targets["window_cache.max_window_scores"] = "repro.core.no_such_module:WindowCache.max_window_scores"
    tracer = tracing.Tracer(targets)
    tracer.install()
    tracer.uninstall()
    assert sorted(tracer.unresolved) == ["planner.retrieve_heads", "window_cache.max_window_scores"]
    facts = {
        "out_tokens": 0, "dense_match": 1.0, "traced_busy_s": 1.0, "untraced_busy_s": 1.0, "store_reloads": 0,
        "store_reloads_deserialized": 0, "store_spills": 0, "disk_bytes": 0, "stored_kv_bytes": 0,
    }
    metrics = tracing.layer_metrics(tracer, facts)
    assert metrics["planner.retrieve_heads.fine.ms_per_call"] is None
    assert metrics["query.dipr.hops_per_tok"] is None
    assert metrics["window_cache.max_window_scores.us_per_call"] is None
    assert metrics["scheduler.step.calls"] == 0  # resolved and never called: a real zero
    assert metrics["trace.unresolved"] == 2


def test_real_targets_are_restored_by_identity():
    import repro.server.app as app
    import repro.server.http as http
    from repro.core.planner import PlanExecutor

    originals = (http.read_request, app.read_request, inspect.getattr_static(PlanExecutor, "retrieve_heads"))
    tracer = tracing.Tracer()
    tracer.install()
    assert app.read_request is http.read_request and http.read_request is not originals[0]
    tracer.uninstall()
    assert (http.read_request, app.read_request, inspect.getattr_static(PlanExecutor, "retrieve_heads")) == originals
