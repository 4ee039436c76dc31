"""Chunk-grained QoE metrics and aggregation."""
import csv
import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from abrlab.metrics import (QoEReport, batch_report, format_table, qoe_report,
                            reports_to_csv, reports_to_json, table_to_csv)
from abrlab.config import RunConfig
from abrlab.plant import FMT, build_scenario, run_episode

CFG = RunConfig()


def report(R=(1.0, 1.0), x=(3.0,), t=None):
    """qoe_report on hand-built chunk columns: rates R, buffers x at times t
    (by default all at the startup, so every buffer counts)."""
    t = np.full(len(x), CFG.delta_startup) if t is None else t
    chunks = SimpleNamespace(R_k=np.array(R, dtype=float), x_k=np.array(x, dtype=float),
                             t_k=np.array(t, dtype=float), cfg=CFG)
    return qoe_report(chunks, 0)


class TestAvgQuality:
    def test_mean(self):
        assert report([0.6, 1.0, 0.6, 1.0]).avg_quality == pytest.approx(0.8)

    def test_constant(self):
        assert report([2.0, 2.0, 2.0]).avg_quality == 2.0

    def test_empty(self):
        with pytest.raises(ValueError):
            report([])


class TestQualityVariation:
    def test_alternating(self):
        r = report([0.6, 1.0, 0.6, 1.0])
        assert (r.quality_variation_normalized, r.switch_count) == (pytest.approx(1.0), 3)

    def test_single_switch(self):
        r = report([1.0, 1.0, 2.0, 2.0])
        assert r.switch_count == 1 and r.quality_variation_normalized == pytest.approx(1.0 / 3.0)

    def test_constant_sequence(self):
        r = report([3.0, 3.0, 3.0])
        assert (r.quality_variation_normalized, r.switch_count) == (0.0, 0)

    def test_counts_direction_changes_not_magnitude(self):
        # a big jump counts the same as a small one
        assert report([0.35, 5.0]).switch_count == report([0.6, 1.0]).switch_count

    def test_too_short(self):
        with pytest.raises(ValueError):
            report([1.0])


class TestRebuffering:
    def test_counts_at_or_below_threshold(self):
        assert CFG.chunk_duration == 2.0
        assert report(x=[3.0, 1.9, 2.5]).rebuffer_count == 1
        assert report(x=[2.0]).rebuffer_count == 1  # boundary counts
        assert report(x=[2.1, 4.0]).rebuffer_count == 0

    def test_empty(self):
        with pytest.raises(ValueError):
            report(x=[])
        # no chunk at or after the startup
        with pytest.raises(ValueError):
            report(x=[1.0, 1.0], t=[0.0, CFG.delta_startup - CFG.te])


@pytest.fixture(scope="module")
def log():
    return run_episode(build_scenario(CFG, 0), CFG)


class TestReport:
    def test_full_report(self, log):
        r = qoe_report(log, 0)
        assert r.M == 300
        assert 0.0 < r.avg_quality <= 5.0
        assert r.quality_variation_normalized == pytest.approx(
            r.switch_count / (r.M - 1))

    def test_startup_exclusion(self, log):
        default = qoe_report(log, 0)
        # the buffer is below the chunk duration while it first fills
        counted = np.count_nonzero(log.x_k <= CFG.chunk_duration)
        assert counted >= default.rebuffer_count + 1

    def test_batch_aggregation(self):
        rs = [QoEReport(1.0, 0.1, 30, 0, M=300, scenario_id=2, replan_enabled=True, seed=0),
              QoEReport(2.0, 0.2, 60, 2, M=300, scenario_id=2, replan_enabled=True, seed=1)]
        assert batch_report(rs) == {
            "scenario": 2, "replan": True, "episodes": 2, "avg_quality": 1.5,
            "quality_variation": 45.0, "rebuffering_time": 1.0}

    def test_batch_rejects_empty(self):
        with pytest.raises(ValueError):
            batch_report([])


class TestSerialization:
    RS = [QoEReport(0.744, 0.68, 204, 0, M=300, scenario_id=1, replan_enabled=True, seed=0),
          QoEReport(0.74, 0.11, 33, 1, M=300, scenario_id=1, replan_enabled=True, seed=1)]

    def test_csv(self, tmp_path):
        path = tmp_path / "qoe.csv"
        reports_to_csv(self.RS, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("scenario,replan,seed,avg_quality,switch_count,"
                            "variation_norm,rebuffer_count")
        assert lines[1:] == ["1,1,0,0.744,204,0.68,0", "1,1,1,0.74,33,0.11,1"]

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "qoe.json"
        reports_to_json(self.RS, path)
        data = json.loads(path.read_text())
        assert len(data) == 2
        assert data[0]["avg_quality"] == pytest.approx(0.744)
        assert data[1]["replan_enabled"] is True

    def test_table(self, tmp_path):
        row = batch_report(self.RS)
        path = tmp_path / "table.csv"
        table_to_csv(row, path)
        assert path.read_text().splitlines() == [
            "scenario,replan,episodes,avg_quality,quality_variation,rebuffering_time",
            "1,1,2,0.742,118.5,0.5"]
        header, line = format_table(row).split("\n")
        assert header.split() == ["scenario", "replan", "episodes", "avg_quality",
                                  "quality_var", "rebuffering"]
        assert line.split() == ["1", "on", "2", "0.7420", "118.50", "0.50"]


def _csv_bytes(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


_floats = st.floats(allow_nan=False, allow_infinity=False)
_counts = st.integers(min_value=0)
_reports = st.builds(QoEReport, _floats, _floats, _counts, _counts, _counts,
                     _counts, st.booleans(), _counts)


@settings(max_examples=200, deadline=None)
@given(reports=st.lists(_reports, max_size=5),
       row=st.fixed_dictionaries({
           "scenario": _counts, "replan": st.booleans(), "episodes": _counts,
           "avg_quality": _floats, "quality_variation": _floats,
           "rebuffering_time": _floats}))
# a seed past int64 next to a small one, which a numeric column turns to float
@example(reports=[QoEReport(0.0, 0.0, 0, 0, 0, 0, False, 0),
                  QoEReport(0.0, 0.0, 0, 0, 0, 0, False, 2**63 + 1)],
         row={"scenario": 0, "replan": False, "episodes": 0, "avg_quality": 0.0,
              "quality_variation": 0.0, "rebuffering_time": 0.0})
def test_writers_match_the_csv_module(reports, row):
    """qoe.csv and table.csv are byte for byte what the csv module writes
    for the same values, each float as FMT text."""
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        reports_to_csv(reports, got)
        assert got.read_bytes() == _csv_bytes(
            want, ["scenario", "replan", "seed", "avg_quality", "switch_count",
                   "variation_norm", "rebuffer_count"],
            [[r.scenario_id, int(r.replan_enabled), r.seed, FMT % r.avg_quality,
              r.switch_count, FMT % r.quality_variation_normalized, r.rebuffer_count]
             for r in reports])
        table_to_csv(row, got)
        assert got.read_bytes() == _csv_bytes(
            want, ["scenario", "replan", "episodes", "avg_quality", "quality_variation",
                   "rebuffering_time"],
            [[row["scenario"], int(row["replan"]), row["episodes"],
              FMT % row["avg_quality"], FMT % row["quality_variation"],
              FMT % row["rebuffering_time"]]])
