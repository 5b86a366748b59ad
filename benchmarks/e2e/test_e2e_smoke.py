"""Smoke run of the end-to-end benchmark (collected by the tier-1 pytest run).

Seconds instead of minutes, shrunken request lists, the same code paths: a
refactor that breaks a call the benchmark makes fails here, before the
benchmark pipeline does.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import inputs as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
CHECKS = {
    "long_solo_dipr": {"dense_oracle", "plan_routing", "attributed_share"},
    "mid_batch8_coarse": {"dense_oracle", "batched_equals_solo", "plan_routing", "attributed_share"},
    "store_churn": {"dense_oracle", "reopen_recovers_and_serves", "plan_routing", "attributed_share"},
    "http_mix_open": {"dense_oracle", "check_drained", "cancels_landed", "http_equals_inprocess",
                      "generator_kept_up", "plan_routing", "attributed_share"},
}


def _run(*args: str, cwd: Path = ROOT, script: Path | None = None) -> subprocess.CompletedProcess:
    command = [sys.executable, str(script or HERE / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def smoke():
    done = _run("--smoke", "--seed", "3")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done.stdout


def test_declared_names_are_well_formed():
    assert WORKLOADS == list(bench.WORKLOADS)
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(declared) == len(set(declared))
    assert all(NAME.fullmatch(name) for name in declared)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_every_metric_is_printed_once_with_its_unit(smoke):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    seen: dict[tuple[str, str], list[str]] = {}
    for line in smoke.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0] in WORKLOADS and fields[4].startswith("n="):
            seen.setdefault((fields[0], fields[1]), []).append(fields[3])
    for workload in WORKLOADS:
        for name, unit in units.items():
            assert seen.get((workload, name)) == [unit], (workload, name, seen.get((workload, name)))
    assert len(seen) == len(WORKLOADS) * len(units)


def test_summary_is_correct_and_claims_nothing(smoke):
    last = smoke.strip().splitlines()[-1]
    assert last.endswith('"claim": null}')
    summary = json.loads(last)
    assert summary["correct"] is True and summary["broken"] == []
    by_workload: dict[str, set] = {}
    for report in summary["reports"]:
        assert report["problems"] == [] and report["claim"] is None
        by_workload.setdefault(report["workload"], set()).update(report["checks_ran"])
        counts = [phase for phase in report["phases"].values()]
        assert all(phase["requests_sent"] >= 1 and phase["requests_failed"] == 0 for phase in counts)
        assert set(report["provenance"]) >= {"git_revision", "python", "numpy", "nproc", "blas_threads", "seed"}
    assert by_workload == CHECKS  # the correctness checks ran, on the workloads they belong to


def test_inputs_depend_on_the_seed_alone(smoke):
    printed = {
        (report["workload"], report["pass"]): report["inputs_sha256"]
        for report in json.loads(smoke.strip().splitlines()[-1])["reports"]
    }
    for workload in WORKLOADS:
        same = bench.make_inputs(workload, 3, smoke=True).sha256()
        assert bench.make_inputs(workload, 3, smoke=True).sha256() == same
        assert bench.make_inputs(workload, 4, smoke=True).sha256() != same
        assert printed[(workload, "timed")] == printed[(workload, "traced")] == same


def test_single_pass_ends_with_the_result_line():
    done = _run("--workload", "http_mix_open", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(isinstance(m["value"], (int, float)) and m["unit"] for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "long_solo_dipr", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
