"""Chunk-grained QoE metrics and batch aggregation."""
import json
from dataclasses import dataclass

import numpy as np

from .plant import FMT, EpisodeLog, write_columns

# qoe.csv header -> report field
QOE_COLUMNS = {"scenario": "scenario_id", "replan": "replan_enabled", "seed": "seed",
               "avg_quality": "avg_quality", "switch_count": "switch_count",
               "variation_norm": "quality_variation_normalized",
               "rebuffer_count": "rebuffer_count"}
# table.csv column -> report field whose batch mean it holds; the last two
# hold mean counts (switches, rebuffer chunks), not a variation and a time
TABLE_MEANS = {"avg_quality": "avg_quality", "quality_variation": "switch_count",
               "rebuffering_time": "rebuffer_count"}
TABLE_COLUMNS = ("scenario", "replan", "episodes", *TABLE_MEANS)


def value_text(v) -> str:
    """Text of one report or table value: a float by ``FMT``, an int or a
    bool as its integer."""
    return (FMT if isinstance(v, float) else "%d") % v


@dataclass(frozen=True)
class QoEReport:
    avg_quality: float
    quality_variation_normalized: float
    switch_count: int
    rebuffer_count: int
    M: int
    scenario_id: int
    replan_enabled: bool
    seed: int


def qoe_report(log: EpisodeLog, seed: int) -> QoEReport:
    """Full QoE report for one episode, run under the log's config, and its
    seed: the mean chunk bitrate, the bitrate switches between consecutive
    chunks (raw and per chunk pair) and the rebuffering count, the chunks
    whose buffer is at or below the chunk duration (H(0)=1).  Chunks before
    the startup delay are excluded from the rebuffering count: the buffer is
    legitimately below the chunk duration while it first fills."""
    cfg = log.cfg
    R = log.R_k
    live = log.x_k[log.t_k >= cfg.delta_startup]
    if len(R) < 2 or len(live) == 0:
        raise ValueError("need at least two chunks, one of them at or after the startup")
    switches = int(np.count_nonzero(np.diff(R)))
    return QoEReport(float(R.mean()), switches / (len(R) - 1), switches,
                     int(np.count_nonzero(cfg.chunk_duration - live >= 0.0)), M=len(R),
                     scenario_id=cfg.scenario, replan_enabled=cfg.replan, seed=seed)


def batch_report(reports) -> dict:
    """Aggregate the per-episode reports of one batch (one config: one
    scenario, one arm, its seeds) into the batch's table row."""
    if not reports:
        raise ValueError("no episodes to aggregate")
    first = reports[0]
    return {"scenario": first.scenario_id, "replan": first.replan_enabled, "episodes": len(reports),
            **{column: float(np.mean([getattr(r, name) for r in reports]))
               for column, name in TABLE_MEANS.items()}}


def reports_to_csv(reports, path) -> None:
    write_columns(path, QOE_COLUMNS, [[value_text(getattr(r, name)) for r in reports]
                                      for name in QOE_COLUMNS.values()])


def reports_to_json(reports, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([vars(r) for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")


def table_to_csv(row, path) -> None:
    write_columns(path, TABLE_COLUMNS, [[value_text(row[name])] for name in TABLE_COLUMNS])


def format_table(row) -> str:
    """Human-readable aggregate table: a header line and the batch's row."""
    return (f"{'scenario':>8} {'replan':>6} {'episodes':>8} {'avg_quality':>12} "
            f"{'quality_var':>12} {'rebuffering':>12}\n"
            f"{row['scenario']:>8} {'on' if row['replan'] else 'off':>6} "
            f"{row['episodes']:>8} {row['avg_quality']:>12.4f} "
            f"{row['quality_variation']:>12.2f} {row['rebuffering_time']:>12.2f}")
