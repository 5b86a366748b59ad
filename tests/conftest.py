"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.context_store import StoredContext
from repro.kvcache.serialization import KVSnapshot
from repro.llm.model import ModelConfig, TransformerModel
from repro.storage.backend import FilesystemBackend
from repro.workloads.generator import ScoringMode, WorkloadSpec, generate_workload


@pytest.fixture(autouse=True)
def _land_every_write():
    """Each test ends with every directory write it issued landed; a
    directory that still cannot land fails the test."""
    yield
    errors = FilesystemBackend.land_all()
    if errors:
        pytest.fail(f"writes that cannot land: {errors}")


@pytest.fixture(scope="session")
def tiny_model() -> TransformerModel:
    """A deterministic tiny transformer shared across tests."""
    return TransformerModel(ModelConfig.tiny())


@pytest.fixture(scope="session")
def small_workload():
    """A small needle workload used by strategy/evaluation tests."""
    spec = WorkloadSpec(
        name="test-needle",
        context_length=1024,
        num_layers=1,
        num_query_heads=4,
        num_kv_heads=2,
        head_dim=16,
        num_decode_steps=3,
        num_evidence_tokens=2,
        scoring=ScoringMode.NEEDLE,
        seed=7,
    )
    return generate_workload(spec)


@pytest.fixture(scope="session")
def recovery_workload():
    """A small recovery-scored workload."""
    spec = WorkloadSpec(
        name="test-recovery",
        context_length=1024,
        num_layers=1,
        num_query_heads=4,
        num_kv_heads=2,
        head_dim=16,
        num_decode_steps=3,
        num_evidence_tokens=2,
        critical_fraction_low=0.02,
        critical_fraction_high=0.05,
        scoring=ScoringMode.RECOVERY,
        seed=11,
    )
    return generate_workload(spec)


def make_context(
    num_layers: int = 2,
    num_kv_heads: int = 2,
    num_tokens: int = 64,
    head_dim: int = 8,
    seed: int = 0,
    context_id: str = "ctx-test",
) -> StoredContext:
    """Build a StoredContext with random KV tensors (helper for unit tests)."""
    rng = np.random.default_rng(seed)
    keys = {
        layer: rng.normal(size=(num_kv_heads, num_tokens, head_dim)).astype(np.float32)
        for layer in range(num_layers)
    }
    values = {
        layer: rng.normal(size=(num_kv_heads, num_tokens, head_dim)).astype(np.float32)
        for layer in range(num_layers)
    }
    tokens = [int(t) for t in rng.integers(0, 255, size=num_tokens)]
    snapshot = KVSnapshot(tokens=tokens, keys=keys, values=values)
    return StoredContext(context_id=context_id, snapshot=snapshot)


@pytest.fixture()
def random_context() -> StoredContext:
    return make_context()
