#!/usr/bin/env python3
"""The end-to-end benchmark's single command.

One workload, one pass (what the driver of ``BENCHMARK.json`` calls)::

    python3 benchmarks/e2e/run.py --workload long_solo_dipr --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the program up several times, drives the workload for
``--seconds`` with tracing off and prints the end-to-end metrics.
``--trace 1`` replays a fixed prefix of the same request list twice on fresh
set-ups — wrappers idle, then recording — and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Without ``--workload`` every workload runs both passes, one after another,
each in its own fresh interpreter, and the last line is a summary that ends
with ``"claim": null`` — the benchmark measures, it claims no gain.
"""

from __future__ import annotations

import os

BLAS_THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)  # before anything imports numpy

import argparse
import asyncio
import json
import platform
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
"""Trace files and the store_churn database land here (gitignored)."""
SETUP_REPEATS = 3
"""``setup_s`` is the median of this many full set-ups; the last one serves."""
SMOKE_SECONDS = 1.0
UNRESOLVED = -1.0
"""What the last line carries for a per-layer metric whose target no longer
resolves (the report above it says ``null``): a number, but never 0."""


def _fail(message: str) -> "NoReturn":
    print(f"benchmarks/e2e/run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def _pin_to_one_cpu() -> int | None:
    """Keep the one thread on one processor (the highest-numbered one allowed,
    leaving CPU 0 to the kernel's own work).  Unpinned, the open-loop workload
    idles between arrivals and is migrated on wake-up; the cold caches showed
    as a 20-30 % run-to-run spread of TTFT that pinning brings to about 5 %."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path} is missing")
    return json.loads(path.read_text())


def _git_revision() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ---------------------------------------------------------------------------
# one workload, one pass
# ---------------------------------------------------------------------------
async def _drive(loadgen, env, inputs, ops, slots, seconds):
    if env.server is not None:
        return await loadgen.run_http(env.server.address, ops, inputs.prompt, slots, open_loop=True, seconds=seconds)
    return loadgen.run_inproc(env.service, ops, inputs.prompt, slots, seconds=seconds)


async def _close(env) -> list[str]:
    """Tear the set-up down; a server that does not drain clean is a problem."""
    try:
        await env.close()
    except (AssertionError, TimeoutError) as exc:
        env.server = None
        return [f"shutdown: {exc}"]
    return []


async def _timed_pass(args, inputs, bench, loadgen, scratch) -> dict:
    """Set up (several times), drive for ``--seconds`` untraced, check the
    outputs."""
    over_http = inputs.workload == "http_mix_open"
    slots = os.cpu_count() if over_http else bench.CLIENTS[inputs.workload]
    setups, env = [], None
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        if env is not None:
            await env.close()
        env = await loadgen.set_up(inputs, scratch, over_http, slots)
        setups.append(env.setup_s)
    timed = await _drive(loadgen, env, inputs, inputs.ops, slots, args.seconds)
    # read before the checks: their oracle and restarted services are the
    # benchmark's memory, not the program's (the dense oracle's longest prompt
    # alone set http_mix_open's peak, at 138 or 162 MB depending on the seed)
    peak_rss_mb = loadgen.peak_rss_mb()

    problems, checks, extra = [], [], {}
    if inputs.workload == "mid_batch8_coarse":
        checks.append("batched_equals_solo")
        problems += loadgen.check_solo_equal(env, inputs, timed)
    if inputs.workload == "store_churn":
        checks.append("reopen_recovers_and_serves")
        reopen_problems, extra["reopen"] = loadgen.check_reopen(env, inputs)
        problems += reopen_problems
    if over_http:
        checks += ["check_drained", "cancels_landed", "http_equals_inprocess", "generator_kept_up"]
        problems += loadgen.settle_cancels(env.service, timed)
        # every context is short here, so the dense oracle *is* the in-process service
        oracle = loadgen.dense_oracle(inputs, inputs.oracle_sample)
        match, positions = loadgen.token_match(timed.records, oracle)
        if match != 1.0 or positions == 0:
            problems.append(f"HTTP outputs differ from the in-process service's ({positions} positions, match {match:.4f})")
        lag_p95 = loadgen.percentile(timed.lag_ms(), 95)
        extra["open_loop"] = {
            "offered_sessions_per_s": bench.OPEN_LOOP_SESSIONS_PER_S,
            "connection_slots": slots,
            "backlog_at_end_of_schedule": timed.backlog_at_end_of_schedule,
            "lag_ms_p95": lag_p95,
        }
        if lag_p95 > bench.MAX_LAG_MS_P95:
            problems.append(f"the generator fell behind: lag p95 {lag_p95:.1f} ms > {bench.MAX_LAG_MS_P95} ms")
    problems += await _close(env)

    metrics, samples, windows = loadgen.client_metrics(timed, bench.SLO_LIMITS_MS[inputs.workload])
    metrics.update(setup_s=median(setups), peak_rss_mb=peak_rss_mb)
    samples.update(setup_s=len(setups), peak_rss_mb=1)
    unsupported = [name for name in ("ttft_ms_p95", "tpot_ms_p95") if samples[name] < loadgen.MIN_TAIL_SAMPLES]
    return {
        "metrics": metrics, "samples": samples, "problems": problems, "checks": checks,
        "attempted": len(timed.records), "failed": timed.failed,
        "phases": {"timed": dict(timed.counts(), wall_s=timed.wall_s, cpu_s=timed.cpu_s)},
        "extra": dict(extra, setup_s_each=setups, tail_unsupported=unsupported,
                      slo_limits_ms=bench.SLO_LIMITS_MS[inputs.workload],
                      windows=windows),
    }


def _store_counters(service) -> dict:
    store = service.db.store_registry
    return {"reloads": store.reload_count, "deserialized": store.reload_deserialized_count, "spills": store.spill_count}


async def _traced_pass(args, inputs, bench, loadgen, scratch) -> dict:
    """Replay a fixed prefix of the list on two fresh set-ups: wrappers idle,
    then recording.  Counts repeat exactly because the prefix is fixed."""
    import tracer as tracing

    over_http = inputs.workload == "http_mix_open"
    slots = os.cpu_count() if over_http else bench.CLIENTS[inputs.workload]
    if over_http:
        sessions = inputs.sizes.traced_ops * len(bench.HTTP_WINDOW)
        prefix = [op for op in inputs.ops if op.session < sessions]
        seconds = sessions / bench.OPEN_LOOP_SESSIONS_PER_S
    else:
        prefix, seconds = inputs.ops[: inputs.sizes.traced_ops], None

    # the oracle first, while nothing is wrapped: dense outputs of the sampled
    # requests that fall inside the prefix
    in_prefix = {id(op) for op in prefix}
    oracle = loadgen.dense_oracle(inputs, [i for i in inputs.oracle_sample if id(inputs.ops[i]) in in_prefix])

    tracer = tracing.Tracer()
    tracer.install()  # before set-up: the scheduler binds backend.decode_batch when built
    problems, checks, extra = [], ["dense_oracle", "plan_routing", "attributed_share"], {}
    try:
        env = await loadgen.set_up(inputs, scratch, over_http, slots)
        untraced = await _drive(loadgen, env, inputs, prefix, slots, seconds)
        await env.close()
        dense_match, extra["dense_match_positions"] = loadgen.token_match(untraced.records, oracle)
        if not extra["dense_match_positions"]:
            problems.append("no sampled request completed: dense_match compared nothing")

        env = await loadgen.set_up(inputs, scratch, over_http, slots)
        before = _store_counters(env.service)
        tracer.enabled = True
        traced = await _drive(loadgen, env, inputs, prefix, slots, seconds)
        if inputs.workload == "store_churn":
            checks.append("reopen_recovers_and_serves")
            reopen_problems, extra["reopen"] = loadgen.check_reopen(env, inputs)
            problems += reopen_problems
        tracer.enabled = False
        after = _store_counters(env.service)
        store = env.service.db.store_registry
        facts = {
            "out_tokens": traced.out_tokens,
            "dense_match": dense_match,
            "traced_busy_s": traced.busy_s,
            "untraced_busy_s": untraced.busy_s,
            "store_reloads": after["reloads"] - before["reloads"],
            "store_reloads_deserialized": after["deserialized"] - before["deserialized"],
            "store_spills": after["spills"] - before["spills"],
            "disk_bytes": store.backend.total_bytes() if store.backend is not None else 0,
            "stored_kv_bytes": store.total_kv_bytes,
        }
        if over_http:
            problems += loadgen.settle_cancels(env.service, traced)
        problems += await _close(env)

        if over_http:
            # the same list, same schedule, served in-process: what the frontend adds
            checks += ["check_drained", "cancels_landed", "http_equals_inprocess"]
            twin_env = await loadgen.set_up(inputs, scratch, False, slots)
            twin = loadgen.run_inproc(twin_env.service, prefix, inputs.prompt, slots, open_loop=True, seconds=seconds)
            await twin_env.close()
            limits = bench.SLO_LIMITS_MS[inputs.workload]
            http_metrics = loadgen.client_metrics(untraced, limits)[0]
            twin_metrics = loadgen.client_metrics(twin, limits)[0]
            facts.update(
                server_ttft_overhead_x=http_metrics["ttft_ms_p50"] / twin_metrics["ttft_ms_p50"],
                server_req_s_ratio=http_metrics["req_s"] / twin_metrics["req_s"],
                wire_bytes=sum(r.wire_bytes for r in traced.requests),
                lag_ms_p95=loadgen.percentile(traced.lag_ms(), 95),
            )
            in_process = {r.index: r.tokens for r in twin.records if r.status == "ok"}
            differing = [
                r.index for r in untraced.records
                if r.status == "ok" and r.tokens != in_process.get(r.index)
            ]
            if differing:
                problems.append(f"HTTP outputs differ from the in-process service's for ops {differing[:8]}")
    finally:
        tracer.uninstall()

    metrics = tracing.layer_metrics(tracer, facts)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace_{inputs.workload}.json"
    tracer.write(trace_path, {"workload": inputs.workload, "seed": inputs.seed, "smoke": inputs.smoke,
                              "inputs_sha256": inputs.sha256()})

    def calls(metric: str) -> float:
        return metrics[metric] or 0.0

    routing = {
        "long_solo_dipr": ["planner.retrieve_heads.coarse.ms_per_call"],
        "mid_batch8_coarse": ["planner.retrieve_heads.flat.ms_per_call", "planner.retrieve_heads.fine.ms_per_call"],
        "store_churn": [],
        "http_mix_open": [f"planner.retrieve_heads.{kind}.ms_per_call" for kind in ("flat", "fine", "coarse")],
    }[inputs.workload]
    for metric in routing:
        if calls(metric) != 0.0:
            problems.append(f"plan routing: {metric} = {metrics[metric]} but this workload must not take that path")
    expected = {"long_solo_dipr": ("flat", "fine"), "mid_batch8_coarse": ("coarse",)}.get(inputs.workload, ())
    for kind in expected:
        if calls(f"planner.retrieve_heads.{kind}.ms_per_call") == 0.0:
            problems.append(f"plan routing: no {kind} retrieval ran on {inputs.workload}")
    if inputs.workload != "store_churn" and calls("store.reloads") != 0:
        problems.append(f"store.reloads = {metrics['store.reloads']} outside store_churn")
    if (metrics["trace.attributed_share"] or 0.0) < 0.9:
        problems.append(f"trace.attributed_share = {metrics['trace.attributed_share']} < 0.9")
    if traced.failed or untraced.failed:
        problems.append(f"failed ops: traced {traced.failed}, untraced {untraced.failed}")

    return {
        "metrics": metrics, "samples": {name: traced.out_tokens for name in metrics},
        "problems": problems, "checks": checks,
        "attempted": len(traced.records), "failed": traced.failed,
        "phases": {
            "untraced": dict(untraced.counts(), wall_s=untraced.wall_s, cpu_s=untraced.cpu_s),
            "traced": dict(traced.counts(), wall_s=traced.wall_s, cpu_s=traced.cpu_s),
        },
        "extra": dict(extra, trace_file=str(trace_path.relative_to(ROOT)), spans=len(tracer.spans),
                      unresolved=tracer.unresolved),
    }


async def _run_single(args, spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import inputs as bench
    import loadgen

    pinned_cpu = None if args.smoke else _pin_to_one_cpu()  # a smoke run measures nothing
    inputs = bench.make_inputs(args.workload, args.seed, args.smoke)
    scratch = OUT / f"tmp-{os.getpid()}"
    try:
        outcome = await (_traced_pass if args.trace else _timed_pass)(args, inputs, bench, loadgen, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(outcome["metrics"]):
        _fail(f"metrics measured and declared differ: {sorted(set(units) ^ set(outcome['metrics']))}")
    report = {
        "benchmark": "alayadb-e2e",
        "workload": args.workload,
        "pass": "traced" if args.trace else "timed",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "inputs_sha256": inputs.sha256(),
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": units[name], "n": outcome["samples"][name]}
            for name in units
        },
        "correct": not outcome["problems"],
        "problems": outcome["problems"],
        "checks_ran": outcome["checks"],
        "phases": outcome["phases"],
        **outcome["extra"],
        "provenance": {
            "git_revision": _git_revision(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "pinned_cpu": pinned_cpu,
            "blas_threads": BLAS_THREADS,
            "seed": args.seed,
        },
        "claim": None,
    }
    for name, entry in report["metrics"].items():
        print(f"{args.workload:18s} {name:44s} {_show(entry['value']):>14s} {entry['unit']:8s} n={entry['n']}")
    for problem in outcome["problems"]:
        print(f"PROBLEM {problem}")
    print("REPORT " + json.dumps(report))
    final = {
        "correct": report["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": UNRESOLVED if entry["value"] is None else entry["value"], "unit": entry["unit"]}
            for name, entry in report["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


def _show(value) -> str:
    return "null" if value is None else f"{value:.6g}"


# ---------------------------------------------------------------------------
# every workload, both passes, each in a fresh interpreter
# ---------------------------------------------------------------------------
def _run_all(args, spec: dict) -> int:
    def one(job: tuple[str, int]) -> subprocess.CompletedProcess:
        workload, trace = job
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
        if args.smoke:
            command.append("--smoke")
        return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)

    jobs = [(w["name"], trace) for w in spec["workloads"] for trace in (0, 1)]
    # measurements run one after another; a smoke run only checks that every
    # path still works, so it may use both processors
    with ThreadPoolExecutor(max_workers=(os.cpu_count() or 1) if args.smoke else 1) as pool:
        finished = list(pool.map(one, jobs))
    reports, broken = [], []
    for (workload, trace), done in zip(jobs, finished):
        lines = done.stdout.splitlines()
        report_lines = [line for line in lines if line.startswith("REPORT ")]
        if done.returncode != 0 or not report_lines:
            sys.stderr.write(done.stderr)
            broken.append(f"{workload} --trace {trace}: exit {done.returncode}")
            continue
        print("\n".join(line for line in lines[:-1] if not line.startswith("REPORT ")))
        reports.append(json.loads(report_lines[-1][len("REPORT "):]))
    summary = {
        "benchmark": "alayadb-e2e",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "correct": not broken and all(r["correct"] for r in reports),
        "broken": broken,
        "reports": reports,
        "claim": None,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; omit to run all of them, both passes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="how long the timed phase measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds, shrunken lists, same code paths")
    args = parser.parse_args(argv)
    spec = _load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"the program's source is not at {ROOT / 'src' / 'repro'}")
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    if args.workload is None:
        return _run_all(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        _fail(f"unknown workload {args.workload!r}")
    return asyncio.run(_run_single(args, spec))


if __name__ == "__main__":
    raise SystemExit(main())
