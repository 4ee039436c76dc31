"""Chunk-grained QoE metrics and aggregation."""
import json

import numpy as np
import pytest

from abrlab.metrics import (QoEReport, avg_quality, batch_report, format_table,
                            qoe_report, quality_variation, rebuffering_time,
                            reports_to_csv, reports_to_json, table_to_csv)
from abrlab.config import RunConfig
from abrlab.plant import build_scenario, run_episode

CFG = RunConfig()


class TestAvgQuality:
    def test_mean(self):
        assert avg_quality([0.6, 1.0, 0.6, 1.0]) == pytest.approx(0.8)

    def test_constant(self):
        assert avg_quality([2.0, 2.0, 2.0]) == 2.0

    def test_empty(self):
        with pytest.raises(ValueError):
            avg_quality([])


class TestQualityVariation:
    def test_alternating(self):
        assert quality_variation([0.6, 1.0, 0.6, 1.0]) == (pytest.approx(1.0), 3)

    def test_single_switch(self):
        norm, count = quality_variation([1.0, 1.0, 2.0, 2.0])
        assert count == 1 and norm == pytest.approx(1.0 / 3.0)

    def test_constant_sequence(self):
        assert quality_variation([3.0, 3.0, 3.0]) == (0.0, 0)

    def test_counts_direction_changes_not_magnitude(self):
        # a big jump counts the same as a small one
        assert quality_variation([0.35, 5.0])[1] == quality_variation([0.6, 1.0])[1]

    def test_too_short(self):
        with pytest.raises(ValueError):
            quality_variation([1.0])


class TestRebuffering:
    def test_counts_at_or_below_threshold(self):
        assert rebuffering_time([3.0, 1.9, 2.5], delta=2.0) == 1
        assert rebuffering_time([2.0], delta=2.0) == 1  # boundary counts
        assert rebuffering_time([2.1, 4.0], delta=2.0) == 0

    def test_empty(self):
        with pytest.raises(ValueError):
            rebuffering_time([], delta=2.0)


@pytest.fixture(scope="module")
def log():
    return run_episode(build_scenario(CFG, 0), CFG)


class TestReport:
    def test_full_report(self, log):
        r = qoe_report(log, CFG.chunk_duration, CFG.delta_startup)
        assert r.M == 300
        assert 0.0 < r.avg_quality <= 5.0
        assert r.quality_variation_normalized == pytest.approx(
            r.switch_count / (r.M - 1))

    def test_startup_exclusion(self, log):
        default = qoe_report(log, CFG.chunk_duration, CFG.delta_startup)
        counted = qoe_report(log, CFG.chunk_duration, CFG.delta_startup,
                             count_startup_chunks=True)
        # the buffer is below the chunk duration while it first fills
        assert counted.rebuffer_count >= default.rebuffer_count + 1

    def test_batch_aggregation(self):
        rs = [QoEReport(1.0, 0.1, 30, 0, M=300, scenario_id=1, replan_enabled=False),
              QoEReport(2.0, 0.2, 60, 2, M=300, scenario_id=1, replan_enabled=False),
              QoEReport(1.5, 0.0, 5, 0, M=300, scenario_id=1, replan_enabled=True)]
        rows = batch_report(rs)
        assert len(rows) == 2
        off = next(r for r in rows if not r["replan"])
        assert off["episodes"] == 2
        assert off["avg_quality"] == pytest.approx(1.5)
        assert off["quality_variation"] == pytest.approx(45.0)
        assert off["rebuffering_time"] == pytest.approx(1.0)

    def test_batch_rejects_mixed_chunk_counts(self):
        rs = [QoEReport(1.0, 0.1, 30, 0, M=300),
              QoEReport(1.0, 0.1, 30, 0, M=150)]
        with pytest.raises(ValueError):
            batch_report(rs)

    def test_batch_rejects_empty(self):
        with pytest.raises(ValueError):
            batch_report([])


class TestSerialization:
    RS = [QoEReport(0.744, 0.68, 204, 0, M=300, scenario_id=1, seed=0),
          QoEReport(0.74, 0.11, 33, 0, M=300, scenario_id=1, seed=1,
                    replan_enabled=True)]

    def test_csv(self, tmp_path):
        path = tmp_path / "qoe.csv"
        reports_to_csv(self.RS, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("scenario,replan,seed,avg_quality,switch_count,"
                            "variation_norm,rebuffer_count")
        assert len(lines) == 3
        assert lines[1].startswith("1,0,0,0.744,204")

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "qoe.json"
        reports_to_json(self.RS, path)
        data = json.loads(path.read_text())
        assert len(data) == 2
        assert data[0]["avg_quality"] == pytest.approx(0.744)
        assert data[1]["replan_enabled"] is True

    def test_table(self, tmp_path):
        rows = batch_report(self.RS)
        path = tmp_path / "table.csv"
        table_to_csv(rows, path)
        assert path.read_text().splitlines()[0] == (
            "scenario,replan,episodes,avg_quality,quality_variation,"
            "rebuffering_time")
        text = format_table(rows)
        assert "scenario" in text and " on" in text and " off" in text
