"""Shared helpers for the benchmark harnesses.

Every harness regenerates one table or figure of the paper.  Results are
(1) printed, (2) appended to the terminal summary shown after the pytest run
(so they survive output capturing), and (3) written to
``benchmarks/results/<experiment>.txt`` for later inspection.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: lines queued for the pytest terminal summary (see benchmarks/conftest.py)
SUMMARY_LINES: list[str] = []


def emit(experiment: str, text: str) -> None:
    """Record one experiment's output: stdout + terminal summary + results file."""
    banner = f"\n================ {experiment} ================"
    block = f"{banner}\n{text}\n"
    print(block)
    SUMMARY_LINES.append(block)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    safe_name = experiment.lower().replace(" ", "_").replace("/", "-")
    (RESULTS_DIR / f"{safe_name}.txt").write_text(text + "\n")


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)
