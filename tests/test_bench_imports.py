"""Every paper bench imports against the current package.

Tier-1 never runs ``benchmarks/bench_*.py`` (their names do not match
pytest's default patterns; the paper-figures job names them), so a ``src/``
name a bench imports could be deleted with tier-1 still green.  Importing
each bench module catches that without running it.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

BENCHES = sorted(path.stem for path in (Path(__file__).resolve().parents[1] / "benchmarks").glob("bench_*.py"))


def test_there_are_benches():
    assert BENCHES  # an empty list would make the check below vacuous


@pytest.mark.parametrize("name", BENCHES)
def test_bench_module_imports(name):
    importlib.import_module(f"benchmarks.{name}")
