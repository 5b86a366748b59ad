"""The serving stack's import graph: loading it pulls in no evaluation code.

The service, the HTTP frontend, the OpenAI-style facade and the sharded
router serve requests; the paper's baselines, analysis, cost-model
simulator, workload generators and the LMCache-style KV compression exist
for the figures, tables and tests.  A serving import that reaches them is a
dependency the serving path does not need.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SERVING_MODULES = ("repro.core.service", "repro.server", "repro.api", "repro.sharding")
EVALUATION_PACKAGES = (
    "repro.simulator",
    "repro.baselines",
    "repro.analysis",
    "repro.workloads",
    "repro.kvcache.compression",
)


def test_serving_imports_load_no_evaluation_module():
    script = (
        "import importlib, json, sys\n"
        f"for name in {SERVING_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    output = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = json.loads(output)
    assert set(SERVING_MODULES) <= set(loaded)
    leaked = [
        name
        for name in loaded
        if any(name == package or name.startswith(package + ".") for package in EVALUATION_PACKAGES)
    ]
    assert leaked == []
