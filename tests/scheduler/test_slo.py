"""Tests of the SLO object: its targets and its one per-request verdict."""

from __future__ import annotations

import math

from repro.scheduler import HUMAN_READING_TPOT, SLO, SLOReport
from repro.scheduler.slo import percentiles


def test_default_slo_is_human_reading_speed():
    assert SLO().tpot_seconds == HUMAN_READING_TPOT


def test_check_tpot():
    slo = SLO(tpot_seconds=0.24)
    assert slo.check_tpot(0.2)
    assert not slo.check_tpot(0.3)


def test_ttft_optional():
    assert SLO().check_ttft(100.0)
    assert not SLO(ttft_seconds=1.0).check_ttft(2.0)


def test_attained_needs_both_targets():
    slo = SLO(tpot_seconds=0.1, ttft_seconds=1.0)
    assert slo.attained(ttft_seconds=0.5, tpot_seconds=0.05)
    assert not slo.attained(ttft_seconds=1.5, tpot_seconds=0.05)
    assert not slo.attained(ttft_seconds=0.5, tpot_seconds=0.2)


def test_one_token_request_is_not_judged_on_tpot():
    """TPOT 0 means no decode gap was measured, not an infinitely fast one."""
    slo = SLO(tpot_seconds=1e-9, ttft_seconds=1.0)
    assert slo.attained(ttft_seconds=0.5, tpot_seconds=0.0)
    assert not slo.attained(ttft_seconds=1.5, tpot_seconds=0.0)


def test_ttft_slack():
    assert SLO().ttft_slack(5.0) == math.inf
    assert SLO(ttft_seconds=2.0).ttft_slack(0.5) == 1.5


def test_report_attainment():
    report = SLOReport(
        num_requests=4, attained=3, ttft_seconds=percentiles([]), tpot_seconds=percentiles([])
    )
    assert report.attainment == 0.75
    empty = SLOReport(num_requests=0, attained=0, ttft_seconds={}, tpot_seconds={})
    assert empty.attainment == 0.0


def test_percentiles():
    assert percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    values = [float(v) for v in range(1, 101)]
    got = percentiles(values)
    assert got["p50"] == 50.5
    assert 95.0 <= got["p95"] <= got["p99"] <= 100.0
