"""The end-to-end benchmark's span targets must keep resolving.

``benchmarks/e2e/tracer.py`` wraps the callables named in ``SPAN_TARGETS``;
one it cannot find is listed as unresolved and its per-layer metrics read
``null`` — silently, unless something asserts it.  This resolves every target
the way the tracer does, without running the benchmark.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _span_targets() -> dict[str, str]:
    spec = importlib.util.spec_from_file_location(
        "e2e_tracer_contract", ROOT / "benchmarks" / "e2e" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.SPAN_TARGETS)


SPAN_TARGETS = _span_targets()


def test_there_are_targets():
    assert SPAN_TARGETS  # an empty table would make the check below vacuous


@pytest.mark.parametrize("span", sorted(SPAN_TARGETS))
def test_span_target_resolves_to_a_callable_in_src(span):
    module_name, qualname = SPAN_TARGETS[span].split(":")
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src" / "repro")
    *owners, attr = qualname.split(".")
    owner = module
    for part in owners:
        owner = getattr(owner, part)
    # the tracer patches the owner's own namespace: an inherited name does not count
    assert attr in vars(owner), f"{span}: {qualname} is not defined on {owner!r}"
    raw = vars(owner)[attr]
    assert callable(getattr(raw, "__func__", raw)), f"{span}: {qualname} is not callable"
