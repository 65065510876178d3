"""Detector behaviour on synthetic series: a real step is found and
localized, honest noise never flags, drift is drift."""

from __future__ import annotations

import random

import pytest

from repro.perf.detect import (
    KIND_DRIFT,
    KIND_STEP,
    METRIC_WALL,
    STATUS_DEGRADED,
    STATUS_IMPROVED,
    STATUS_INSUFFICIENT,
    STATUS_OK,
    best_model,
    check_history,
    extract_series,
    judge_series,
    noise_floor,
)
from tests.perf.conftest import make_cell, make_entry, series_entries

BASE = 50_000.0


class TestModelSelection:
    def test_flat_series_is_constant(self):
        fit = best_model([BASE] * 20)
        assert fit.model == "constant"

    def test_step_series_localized(self):
        values = [BASE] * 12 + [BASE * 1.2] * 8
        fit = best_model(values)
        assert fit.model == "step"
        assert fit.change_index == 12

    def test_ramp_series_is_linear(self):
        fit = best_model([BASE + 100.0 * i for i in range(20)])
        assert fit.model == "linear"
        assert fit.slope == pytest.approx(100.0)


class TestJudgeSeries:
    @pytest.mark.parametrize("k", [10, 25, 40])
    def test_fifteen_percent_step_found_at_k(self, k):
        values = [BASE] * k + [BASE * 1.15] * (50 - k)
        judgment = judge_series(values)
        assert judgment.status == STATUS_DEGRADED
        assert judgment.kind == KIND_STEP
        assert judgment.change_index == k
        assert judgment.delta_rel == pytest.approx(0.15, rel=1e-6)

    def test_step_on_the_last_run_still_flags(self):
        values = [BASE] * 49 + [BASE * 1.15]
        judgment = judge_series(values)
        assert judgment.status == STATUS_DEGRADED
        assert judgment.change_index == 49

    def test_three_percent_noise_never_flags(self):
        # 50 independent 50-run histories of honest +-3% Gaussian noise:
        # every one must judge clean (the threshold is derived from the
        # measured spread, so the band sits far outside the noise)
        rng = random.Random(1998)
        flagged = 0
        for _ in range(50):
            values = [BASE * (1.0 + rng.gauss(0.0, 0.03)) for _ in range(50)]
            judgment = judge_series(values, noise_rel=0.03)
            if judgment.status != STATUS_OK:
                flagged += 1
        assert flagged == 0

    def test_linear_drift_reported_as_drift_not_step(self):
        values = [BASE * (1.0 + 0.004 * i) for i in range(50)]
        judgment = judge_series(values)
        assert judgment.status == STATUS_DEGRADED
        assert judgment.kind == KIND_DRIFT
        assert judgment.model == "linear"

    def test_improvement_step_reported_as_improved(self):
        values = [BASE] * 30 + [BASE * 0.85] * 20
        judgment = judge_series(values)
        assert judgment.status == STATUS_IMPROVED
        assert judgment.kind == KIND_STEP
        assert judgment.change_index == 30

    def test_short_series_is_insufficient(self):
        judgment = judge_series([BASE] * 3)
        assert judgment.status == STATUS_INSUFFICIENT

    def test_step_below_noise_floor_is_ok(self):
        # a 2% step is real but indistinguishable from a 3% noise floor
        values = [BASE] * 30 + [BASE * 1.02] * 20
        judgment = judge_series(values, noise_rel=0.03)
        assert judgment.status == STATUS_OK


class TestSeriesExtraction:
    def test_wall_from_every_fresh_cell(self):
        entries = series_entries([1.0, 1.1, 1.2])
        series = extract_series(entries)
        assert list(series) == ["compress/advanced/4-way"]
        assert [p.value for p in series["compress/advanced/4-way"]] == [
            1.0, 1.1, 1.2,
        ]
        assert [p.sha for p in series["compress/advanced/4-way"]] == [
            e.sha for e in entries
        ]

    def test_wall_skips_cached_cells(self):
        fresh = make_entry([make_cell(wall=2.0)], sha="a" * 40)
        cached = make_entry([make_cell(wall=2.0, cached=True)], sha="b" * 40)
        series = extract_series([fresh, cached])
        assert [p.sha for p in series["compress/advanced/4-way"]] == ["a" * 40]

    def test_wall_partitioned_by_host(self):
        here = make_entry([make_cell(wall=2.0)], sha="a" * 40)
        other_host = dict(platform="other-os", machine="arm64",
                          python="3.11.0", cpu_count=64)
        there = make_entry(
            [make_cell(wall=9.0)], sha="b" * 40, host=other_host
        )
        series = extract_series([here, there], host=here.host_fingerprint)
        assert [p.value for p in series["compress/advanced/4-way"]] == [2.0]


class TestNoiseFloor:
    def test_noise_floor_is_zero_without_reruns(self):
        # every run is its own code version: no repeats, no noise data
        entries = series_entries([1.0, 1.1, 1.2])
        assert noise_floor(entries) == 0.0

    def test_wall_noise_floor_from_same_code_reruns(self):
        # two runs of the same code version on the same host: their wall
        # scatter is pure noise and must feed the floor
        entries = [
            make_entry([make_cell(wall=1.0)], sha="a" * 40,
                       code_version="same"),
            make_entry([make_cell(wall=1.1)], sha="b" * 40,
                       code_version="same"),
        ]
        assert noise_floor(entries) > 0.0


class TestCheckHistory:
    def test_degraded_cell_named_with_change_sha(self):
        entries = series_entries([1.0] * 30 + [1.15] * 20)  # +15% at run 30
        report = check_history(entries, suite="fig8")
        [verdict] = report.degraded()
        assert verdict.cell == "compress/advanced/4-way"
        assert verdict.metric == METRIC_WALL
        assert verdict.status == STATUS_DEGRADED
        assert verdict.kind == KIND_STEP
        assert verdict.change_sha == entries[30].sha
        assert verdict.delta_pct == pytest.approx(15.0, rel=1e-6)

    def test_clean_history_produces_no_verdicts(self):
        entries = series_entries([1.0] * 20)
        report = check_history(entries, suite="fig8")
        assert report.degraded() == []
        assert report.improved() == []
        assert [(v.metric, v.status) for v in report.verdicts] == [
            (METRIC_WALL, STATUS_OK)
        ]

    def test_unknown_suite_is_empty(self):
        entries = series_entries([1.0] * 10)
        report = check_history(entries, suite="nope")
        assert report.runs == 0
        assert report.verdicts == []
