"""Tests of the filesystem backend's write-behind lander.

``FilesystemBackend.write_bytes`` and ``delete`` only record the newest
operation per key; one lander thread per directory lands them — objects,
then a directory fsync, then the manifest and another directory fsync, then
deletes.  These tests pin the ordering, read-your-writes, coalescing, the
delete backlog bound, failure reporting, and crash consistency.
"""

from __future__ import annotations

import errno
import gc
import os
import shutil
import stat
import sys
import threading
import time

import pytest

from repro.core.config import AlayaDBConfig
from repro.core.context_store import ContextStore
from repro.core.service import InferenceService
from repro.errors import ContextLoadError, RequestFailedError, StorageError
from repro.llm.model import ModelConfig, TransformerModel
from repro.server.app import check_drained
from repro.storage import backend as backend_module
from repro.storage.backend import FilesystemBackend
from repro.storage.manifest import MANIFEST_KEY, ContextManifest
from tests.conftest import make_context


class _Gate(threading.Event):
    """Set it to let landing cycles run; ``holding`` is set once a cycle has
    taken the pending operations and waits at the gate."""

    def __init__(self):
        super().__init__()
        self.holding = threading.Event()


@pytest.fixture()
def paused(monkeypatch):
    """Holds every landing cycle until the returned gate is set."""
    gate = _Gate()
    land_cycle = backend_module._Lander._land_cycle

    def gated(self):
        gate.holding.set()
        gate.wait(10)
        land_cycle(self)

    monkeypatch.setattr(backend_module._Lander, "_land_cycle", gated)
    yield gate
    gate.set()


def _service(directory, **overrides):
    config = dict(
        window_initial_tokens=8,
        window_last_tokens=16,
        short_context_threshold=64,
        max_retrieved_tokens=64,
        context_db_path=str(directory),
    )
    config.update(overrides)
    return InferenceService(TransformerModel(ModelConfig.tiny(seed=5)), AlayaDBConfig(**config))


class TestReadYourWrites:
    def test_every_handle_on_the_directory_sees_unlanded_ops(self, tmp_path, paused):
        writer = FilesystemBackend(tmp_path / "db")
        other = FilesystemBackend(tmp_path / "db" / ".." / "db")
        writer.write_bytes("a", b"new")
        writer.write_bytes("nested/b", b"xy")
        assert not (tmp_path / "db" / "a").exists()  # nothing landed yet
        assert other.read_bytes("a") == b"new"
        assert other.exists("nested/b") and other.size_bytes("nested/b") == 2
        assert other.list_keys() == ["a", "nested/b"]
        assert other.pending_ops == 2

        other.delete("a")
        assert not writer.exists("a")
        with pytest.raises(ContextLoadError):
            writer.read_bytes("a")
        assert writer.list_keys() == ["nested/b"]

        paused.set()
        writer.flush()
        assert writer.pending_ops == 0
        assert not (tmp_path / "db" / "a").exists()
        assert (tmp_path / "db" / "nested" / "b").read_bytes() == b"xy"

    def test_store_reopened_in_process_sees_the_live_population(self, tmp_path, paused):
        live = ContextStore.open(tmp_path / "db")
        for i in range(3):
            live.add(make_context(context_id=f"ctx-{i}", seed=i))
        live.remove("ctx-1")
        reopened = ContextStore.open(tmp_path / "db")
        assert reopened.list_ids() == ["ctx-0", "ctx-2"]
        reopened.ensure_resident("ctx-2")
        assert reopened.get("ctx-2").tokens == live.get("ctx-2").tokens


class TestLandingCycle:
    def test_writes_to_one_key_coalesce(self, tmp_path, monkeypatch, paused):
        renamed = []
        real_replace = os.replace

        def spy_replace(src, dst):
            real_replace(src, dst)
            renamed.append(os.path.basename(dst))

        monkeypatch.setattr(os, "replace", spy_replace)
        backend = FilesystemBackend(tmp_path / "db")
        backend.write_bytes("k", b"v0")
        assert paused.holding.wait(5)  # v0 is in flight, the rest pend behind it
        for i in range(1, 20):
            backend.write_bytes("k", b"v%d" % i)
        assert backend.read_bytes("k") == b"v19"
        paused.set()
        backend.flush()
        assert renamed == ["k", "k"]  # v0, then v19 for the nineteen behind it
        assert (tmp_path / "db" / "k").read_bytes() == b"v19"

    def test_directory_is_synced_between_the_objects_and_the_manifest(self, tmp_path, monkeypatch, paused):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            events.append(("fsync-dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync-file", None))
            real_fsync(fd)

        def spy_replace(src, dst):
            real_replace(src, dst)
            events.append(("rename", os.path.basename(dst)))

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        store = ContextStore.open(tmp_path / "db")
        store.add(make_context(context_id="ctx-a", seed=1))
        store.add(make_context(context_id="ctx-b", seed=2))
        paused.set()
        store.flush()

        renames = [i for i, (kind, _) in enumerate(events) if kind == "rename"]
        manifest = next(i for i in renames if events[i][1] == MANIFEST_KEY)
        last_object = max(i for i in renames if events[i][1] != MANIFEST_KEY)
        assert last_object < manifest  # one cycle: the objects, then the catalog
        assert ("fsync-dir", None) in events[last_object:manifest]
        assert ("fsync-dir", None) in events[manifest:]

    def test_deletes_land_after_the_manifest_that_uncatalogs_them(self, tmp_path, monkeypatch):
        store = ContextStore.open(tmp_path / "db")
        store.add(make_context(context_id="gone", seed=1))
        store.flush()
        order = []
        real_replace, real_unlink = os.replace, os.unlink

        def spy_replace(src, dst):
            real_replace(src, dst)
            order.append(os.path.basename(dst))

        def spy_unlink(path):
            real_unlink(path)
            order.append("unlink " + os.path.basename(path))

        monkeypatch.setattr(os, "replace", spy_replace)
        monkeypatch.setattr(os, "unlink", spy_unlink)
        store.remove("gone")
        store.flush()
        assert order[0] == MANIFEST_KEY
        assert order[1:] == ["unlink gone.npz"]

    def test_a_write_behind_an_inflight_delete_lands_after_it(self, tmp_path, paused):
        backend = FilesystemBackend(tmp_path / "db")
        for key in ("j", "k"):
            (tmp_path / "db" / key).write_bytes(b"old")
        backend.delete("j")
        backend.delete("k")
        assert paused.holding.wait(5)  # both deletes are in flight
        backend.write_bytes("k", b"new")
        assert backend.read_bytes("k") == b"new"
        paused.set()
        backend.flush()
        assert not (tmp_path / "db" / "j").exists()
        assert (tmp_path / "db" / "k").read_bytes() == b"new"

    def test_delete_backlog_is_bounded(self, tmp_path, monkeypatch, paused):
        monkeypatch.setattr(backend_module, "MAX_PENDING_DELETES", 3)
        backend = FilesystemBackend(tmp_path / "db")
        for i in range(4):
            (tmp_path / "db" / f"k{i}").write_bytes(b"x")
        for i in range(3):
            backend.delete(f"k{i}")
        blocked = threading.Thread(target=backend.delete, args=("k3",))
        blocked.start()
        blocked.join(0.2)
        assert blocked.is_alive()  # the fourth delete waits for the lander
        paused.set()
        blocked.join(10)
        assert not blocked.is_alive()
        backend.flush()
        assert backend.list_keys() == []


class TestFailures:
    def test_a_failed_cycle_stays_pending_and_every_write_raises_until_one_lands(
        self, tmp_path, monkeypatch, paused
    ):
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        store = ContextStore.open(tmp_path / "db")
        store.add(make_context(context_id="kept", seed=1))
        paused.set()
        store.flush()
        before = ContextManifest.load(FilesystemBackend(tmp_path / "db")).generation

        real_replace = os.replace

        def full_disk(src, dst):
            if os.path.basename(dst) != MANIFEST_KEY:
                raise OSError(errno.ENOSPC, "No space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", full_disk)
        paused.clear()
        store.add(make_context(context_id="lost", seed=2))
        store.remove("kept")
        paused.set()
        for _ in range(2):  # the error stays until a cycle lands
            with pytest.raises(StorageError, match="No space left"):
                store.flush()
            with pytest.raises(StorageError, match="No space left"):
                store.backend.write_bytes("other", b"x")
            with pytest.raises(StorageError, match="No space left"):
                store.backend.delete("lost.npz")
        assert hooked == []  # the lander caught it; no thread died

        # nothing landed past the failure: the disk holds the older catalog
        on_disk = ContextStore.open(shutil.copytree(tmp_path / "db", tmp_path / "copy"))
        assert on_disk.manifest_generation == before
        assert on_disk.list_ids() == ["kept"]
        on_disk.ensure_resident("kept")
        assert [p.name for p in (tmp_path / "db").iterdir() if p.suffix == ".tmp"] == []

        # the unlanded operations are still read, and land once the disk has room
        assert ContextStore.open(tmp_path / "db").list_ids() == ["lost"]
        monkeypatch.setattr(os, "replace", real_replace)
        store.flush()
        store.add(make_context(context_id="later", seed=3))
        store.flush()
        reopened = ContextStore.open(shutil.copytree(tmp_path / "db", tmp_path / "after"))
        assert reopened.list_ids() == ["later", "lost"]
        for context_id in reopened.list_ids():
            reopened.ensure_resident(context_id)  # every row names a landed snapshot
        assert not (tmp_path / "db" / "kept.npz").exists()

    def test_a_retried_operation_never_overrides_a_newer_one(self, tmp_path, monkeypatch, paused):
        backend = FilesystemBackend(tmp_path / "db")
        backend.write_bytes("k", b"old")
        assert paused.holding.wait(5)  # "old" is in flight
        backend.write_bytes("k", b"new")
        real_replace = os.replace

        def broken(src, dst):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "replace", broken)
        paused.set()
        with pytest.raises(StorageError):
            backend.flush()
        assert backend.read_bytes("k") == b"new"
        monkeypatch.setattr(os, "replace", real_replace)
        backend.flush()
        assert (tmp_path / "db" / "k").read_bytes() == b"new"

    def test_a_failed_first_cycle_lands_no_row_without_its_snapshot(self, tmp_path, monkeypatch):
        real_replace = os.replace

        def broken(src, dst):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "replace", broken)
        store = ContextStore.open(tmp_path / "db")
        store.add(make_context(context_id="first", seed=1))
        with pytest.raises(StorageError, match="Input/output error"):
            store.flush()
        assert not (tmp_path / "db" / MANIFEST_KEY).exists()
        monkeypatch.setattr(os, "replace", real_replace)
        store.flush()
        reopened = ContextStore.open(shutil.copytree(tmp_path / "db", tmp_path / "copy"))
        assert reopened.list_ids() == ["first"]
        reopened.ensure_resident("first")

    def test_a_removed_root_is_never_recreated(self, tmp_path, monkeypatch, paused):
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        backend = FilesystemBackend(tmp_path / "db")
        backend.write_bytes("a", b"1")
        backend.write_bytes("nested/b", b"2")
        shutil.rmtree(tmp_path / "db")
        paused.set()
        backend.flush()  # a removed database is no error: nothing to land into
        assert not (tmp_path / "db").exists()
        assert hooked == []

    def test_a_root_made_anew_does_not_inherit_the_removed_ones_writes(self, tmp_path, paused):
        live = ContextStore.open(tmp_path / "db")
        live.add(make_context(context_id="old", seed=1))
        shutil.rmtree(tmp_path / "db")  # removed with its writes pending
        fresh = ContextStore.open(tmp_path / "db")
        assert fresh.list_ids() == []
        assert FilesystemBackend(tmp_path / "db").list_keys() == []
        paused.set()
        live.flush()
        fresh.flush()
        assert sorted(p.name for p in (tmp_path / "db").iterdir()) == []
        assert ContextStore.open(tmp_path / "db").list_ids() == []

    def test_a_lander_nothing_holds_leaves_the_registry(self, tmp_path):
        backend = FilesystemBackend(tmp_path / "db")
        backend.write_bytes("a", b"1")
        backend.flush()
        root = (tmp_path / "db").resolve()
        assert backend_module._LANDERS.get(root) is not None
        del backend
        deadline = time.monotonic() + 10
        while backend_module._LANDERS.get(root) is not None and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.05)  # the thread holds it until it idles out
        assert backend_module._LANDERS.get(root) is None

    def test_failed_store_write_fails_the_request(self, tmp_path, monkeypatch):
        service = _service(tmp_path / "db")
        backend = service.db.store_registry.backend

        def broken(src, dst):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "replace", broken)
        chat = service.chat(max_new_tokens=2)
        chat.ask("the first turn is stored behind the caller " * 4)
        with pytest.raises(StorageError):
            backend.flush()  # the turn's re-store did not land
        handle = service.submit("a second request stored under its own id " * 3,
                                max_new_tokens=2, store_context_id="second")
        service.drain()
        assert handle.status == "failed"
        assert "StorageError" in handle.request.error
        with pytest.raises(RequestFailedError, match="Input/output error"):
            handle.result()
        assert service.scheduler.stats.failed == 1
        monkeypatch.undo()
        service.db.store_registry.flush()  # the first turn lands now
        check_drained(service)
        assert ContextStore.open(tmp_path / "db").list_ids() == [chat.context_id]


class TestSchedulerThread:
    def test_chat_restores_never_touch_the_disk_on_the_stepping_thread(self, tmp_path, monkeypatch):
        calls = []
        for name in ("fsync", "replace", "unlink"):
            real = getattr(os, name)

            def spy(*args, _real=real, _name=name):
                calls.append((_name, threading.get_ident()))
                return _real(*args)

            monkeypatch.setattr(os, name, spy)
        service = _service(tmp_path / "db", context_store_budget_bytes=40_000)
        chat = service.chat(max_new_tokens=2)
        for turn in range(4):
            chat.ask(f"turn {turn} of a conversation that is re-stored each time " * 3)
        service.ingest("a library document " * 20, context_id="doc")
        service.db.store_registry.remove("doc")
        service.db.store_registry.flush()
        stepping = threading.get_ident()
        assert {name for name, _ in calls} == {"fsync", "replace", "unlink"}
        assert [name for name, ident in calls if ident == stepping] == []

    def test_the_store_deletes_only_keys_its_catalog_names(self, tmp_path):
        """Looking up a key that was never written waits behind the lander's
        unlinks, so a store never deletes one: an index-less context's
        overwrite and removal delete its snapshot and nothing else."""
        deleted = []

        class Recording(FilesystemBackend):
            def delete(self, key):
                deleted.append(key)
                return super().delete(key)

        store = ContextStore(backend=Recording(tmp_path / "db"))
        store.add(make_context(context_id="chat", seed=1))
        store.add(make_context(context_id="chat", seed=2, num_tokens=80), overwrite=True)
        store.remove("chat")
        assert deleted == ["chat.npz"]

    def test_check_drained_reports_unflushed_writes(self, tmp_path, paused):
        service = _service(tmp_path / "db")
        service.ingest("a library document " * 20, context_id="doc")
        with pytest.raises(AssertionError, match="storage operations still pending"):
            check_drained(service)
        paused.set()
        service.db.store_registry.flush()
        check_drained(service)


def test_every_crash_prefix_opens_consistently(tmp_path, monkeypatch):
    """Copy the directory after every landed operation — each copy is what a
    crash at that point leaves — and open every copy: each cataloged
    snapshot loads, each index blob loads or degrades to a rebuild, and the
    catalog's generation never goes back."""
    directory = tmp_path / "db"
    copies = []
    real_replace, real_unlink = os.replace, os.unlink

    def crash_point():
        copies.append(shutil.copytree(directory, tmp_path / f"crash-{len(copies):03d}"))

    def replace(src, dst):
        real_replace(src, dst)
        crash_point()

    def unlink(path):
        real_unlink(path)
        if not os.path.basename(path).endswith(".tmp"):
            crash_point()

    service = _service(directory, context_store_budget_bytes=40_000)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "unlink", unlink)
    service.ingest("the first library document " * 12, context_id="doc-a")
    service.ingest("a second library document " * 12, context_id="doc-b")
    chat = service.chat(max_new_tokens=2)
    for turn in range(3):
        chat.ask(f"turn {turn} re-stores the conversation " * 3)
    service.db.store_registry.remove("doc-a")
    service.db.store_registry.flush()
    monkeypatch.undo()
    assert len(copies) >= 8

    generations = []
    for copy in copies:
        store = ContextStore.open(copy)
        generations.append(store.manifest_generation)
        for context_id in store.list_ids():
            store.ensure_resident(context_id)  # raises if a snapshot is missing or torn
        assert store.reload_count == len(store.list_ids())
    assert generations == sorted(generations)
    final = ContextStore.open(directory)
    assert set(final.list_ids()) == set(service.db.store_registry.list_ids())


def test_concurrent_writers_read_their_writes_and_land_the_last(tmp_path):
    """More writer threads than cores, each owning its keys, over handles on
    one directory, with a tiny switch interval: every read returns the
    thread's own last write, and the landed directory holds exactly each
    key's last operation."""
    root = tmp_path / "db"
    expected: dict[str, bytes | None] = {}
    problems = []

    def writer(worker: int) -> None:
        backend = FilesystemBackend(root)
        for step in range(60):
            key = f"w{worker}/k{step % 7}"
            if step % 5 == 4:
                backend.delete(key)
                expected[key] = None
                if backend.exists(key):
                    problems.append(f"{key} visible after its delete")
            else:
                data = b"%d:%d" % (worker, step)
                backend.write_bytes(key, data)
                expected[key] = data
                if backend.read_bytes(key) != data:
                    problems.append(f"{key} did not read back its last write")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(worker,)) for worker in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert problems == []
    FilesystemBackend(root).flush()
    for key, data in expected.items():
        path = root / key
        assert (path.read_bytes() if path.exists() else None) == data
