"""Package-level tests: public API surface, error hierarchy, version."""

from __future__ import annotations

import dataclasses
import inspect
import re

import pytest

import repro
from repro import AlayaDBConfig, errors


def test_config_field_count():
    """A ratchet on the configuration surface: a new knob must show up in review."""
    count = len(dataclasses.fields(AlayaDBConfig))
    assert count <= 29, (
        f"AlayaDBConfig has {count} fields, above the ratchet of 29: ROADMAP aim 2 ranks "
        "deleting a knob as highly as a speedup, so justify the new one there (or delete "
        "another) before raising this bound"
    )


def test_service_implements_every_scheduler_backend_hook():
    """The scheduler calls every ``SchedulerBackend`` hook without probing for
    it, so the production backend must define each one."""
    from repro.core.service import InferenceService
    from repro.scheduler import SchedulerBackend

    hooks = [name for name in vars(SchedulerBackend) if not name.startswith("_")]
    assert "cancel_request" in hooks
    assert [name for name in hooks if not callable(getattr(InferenceService, name, None))] == []


def test_no_index_policy_on_the_ingest_surface():
    """A ratchet on where index construction is decided: the query
    optimizer's plans choose each context's indexes, so no ingest path takes
    an index switch and no stored context or catalog row records a policy."""
    from repro.core.context_store import StoredContext
    from repro.core.db import DB
    from repro.storage.manifest import ManifestEntry

    names = [
        f"DB.{method}({parameter})"
        for method in ("import_context", "store", "prefill_and_import")
        for parameter in inspect.signature(getattr(DB, method)).parameters
    ]
    names += [f"{cls.__name__}.{f.name}" for cls in (StoredContext, ManifestEntry) for f in dataclasses.fields(cls)]
    assert [name for name in names if re.search(r"[.(](build|lazy|wants)_", name)] == []


def test_one_fine_index_layout_and_no_standalone_index_files():
    """A ratchet on the index layout: a layer's fine indexes are one RoarGraph
    per KV head, and a context's indexes persist only inside its index blob.
    The per-query-head layout, the group size threaded next to it and the
    one-index file format must not come back."""
    import repro.index as index_package
    from repro.core.planner import LayerIndexData
    from repro.index import builder, serialization
    from repro.index.builder import BuildReport, IndexBuildConfig
    from repro.index.coarse import CoarseBlockIndex
    from repro.index.roargraph import RoarGraphIndex

    def field_names(cls) -> set[str]:
        return {f.name for f in dataclasses.fields(cls)}

    found = [f"{cls.__name__}.gqa_share" for cls in (IndexBuildConfig, BuildReport) if "gqa_share" in field_names(cls)]
    found += [f"{module.__name__}.LayerIndexes" for module in (builder, index_package)
              if hasattr(module, "LayerIndexes")]
    found += [f"LayerIndexData.{name}" for name in ("shared", "gqa_group_size")
              if hasattr(LayerIndexData, name) or name in field_names(LayerIndexData)]
    found += [f"{cls.__name__}.{name}" for cls in (RoarGraphIndex, CoarseBlockIndex)
              for name in ("save", "load") if hasattr(cls, name)]
    found += [f"serialization.{name}" for name in ("save_roargraph", "load_roargraph", "save_coarse", "load_coarse")
              if hasattr(serialization, name)]
    assert found == []


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_exports(self):
        for name in ("DB", "Session", "AlayaDBConfig", "TransformerModel", "ModelConfig", "ReproError"):
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        import repro.analysis
        import repro.baselines
        import repro.core
        import repro.index
        import repro.kvcache
        import repro.llm
        import repro.query
        import repro.simulator
        import repro.storage
        import repro.workloads

        for module in (
            repro.analysis,
            repro.baselines,
            repro.core,
            repro.index,
            repro.kvcache,
            repro.llm,
            repro.query,
            repro.simulator,
            repro.storage,
            repro.workloads,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError), name

    def test_subsystem_groups(self):
        assert issubclass(errors.SessionClosedError, errors.DatabaseError)
        assert issubclass(errors.ContextLoadError, errors.StorageError)
        assert issubclass(errors.OutOfDeviceMemoryError, errors.SimulatorError)
        assert issubclass(errors.UnsupportedQueryError, errors.QueryError)
        assert issubclass(errors.IndexNotBuiltError, errors.IndexError_)

    def test_errors_are_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.ContextNotFoundError("x")
