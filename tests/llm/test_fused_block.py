"""The fused block against its unfused oracle, and the SiLU it runs."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.kvcache.cache import DynamicCache
from repro.llm.layers import silu
from repro.llm.model import ModelConfig, TransformerModel
from tests.reference_model import ReferenceModel

BENCH = ModelConfig(dim=128, num_layers=3, num_query_heads=8, num_kv_heads=2, hidden_dim=256, seed=20250925)
"""The serving benchmark's model."""

CONFIGS = {"tiny": ModelConfig.tiny(), "bench": BENCH}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def pair(request):
    config = CONFIGS[request.param]
    return TransformerModel(config), ReferenceModel(config)


def _caches(model, histories):
    made = []
    for history in histories:
        cache = DynamicCache()
        if history:
            model.forward_rows(history, [cache], [len(history)])
        made.append(cache)
    return made


@pytest.mark.parametrize("num_rows", [1, 8, 256])
def test_forward_rows_equals_the_unfused_reference(pair, num_rows):
    model, reference = pair
    tokens = np.random.default_rng(num_rows).integers(0, 256, size=num_rows)
    history = [7, 8, 9]
    fused = model.forward_rows(tokens, _caches(model, [history]), [num_rows])
    expected = reference.forward_rows(tokens, _caches(reference, [history]), [num_rows])
    np.testing.assert_allclose(fused, expected, rtol=0, atol=1e-5)


def test_ragged_prefill_and_decode_batch_equals_the_unfused_reference(pair):
    """A prefill chunk on a fresh cache, a chunk continuing a prefix and two
    decode rows at different positions, in one pass."""
    model, reference = pair
    histories = [[], [1, 2, 3, 4, 5], [6, 7], list(range(10, 40))]
    rows = [6, 3, 1, 1]
    tokens = np.random.default_rng(0).integers(0, 256, size=sum(rows))
    fused = model.forward_rows(tokens, _caches(model, histories), rows)
    expected = reference.forward_rows(tokens, _caches(reference, histories), rows)
    np.testing.assert_allclose(fused, expected, rtol=0, atol=1e-5)


def test_fused_weights_are_the_reference_draws(pair):
    """Same seed, same rng order: each fused weight is its projections side by side."""
    model, reference = pair
    for layer, ref in zip(model.layers, reference.layers):
        np.testing.assert_array_equal(layer.w_qkv, np.concatenate([ref["q"], ref["k"], ref["v"]]).T)
        np.testing.assert_array_equal(layer.w_gate_up, np.concatenate([ref["gate"], ref["up"]]).T)
        np.testing.assert_array_equal(layer.w_o, ref["o"].T)
        np.testing.assert_array_equal(layer.w_down, ref["down"].T)
    np.testing.assert_array_equal(model.embedding, reference.embedding)
    np.testing.assert_array_equal(model.lm_head, reference.lm_head.T)


@pytest.mark.parametrize(
    "config, parameters",
    [(ModelConfig.tiny(), 35_168), (BENCH, 484_992)],
    ids=["tiny", "bench"],
)
def test_parameter_counts_are_the_unfused_models(config, parameters):
    """Fusing and folding the all-ones norm gains changes no count."""
    model, reference = TransformerModel(config), ReferenceModel(config)
    assert model.num_parameters == reference.num_parameters == parameters
    assert model.num_bytes == reference.num_bytes == 4 * parameters


def test_silu_is_overflow_free_and_matches_float64():
    """Gate activations of any float32 magnitude — batched rows stack into one
    matmul — give finite outputs without a floating-point warning."""
    x = np.asarray(
        [1e4, -1e4, 3e38, -3e38, 0.0, 0.5, -0.5, 3.0, -3.0, 20.0, -20.0, 90.0, -90.0],
        dtype=np.float32,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = silu(x)
    assert out.dtype == np.float32 and np.isfinite(out).all()
    x64 = x.astype(np.float64)
    with np.errstate(over="ignore"):
        expected = x64 / (1.0 + np.exp(-x64))
    np.testing.assert_allclose(out, expected, rtol=1e-6, atol=1e-6)
