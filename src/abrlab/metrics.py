"""Chunk-grained QoE metrics and batch aggregation."""
import json
from dataclasses import dataclass, asdict

import numpy as np

from .config import RunConfig
from .plant import FMT, EpisodeLog, write_columns

INT, FLOAT = "%d".__mod__, FMT.__mod__  # text of one int (or bool) / float value
# CSV header -> (report field, text of one value)
QOE_COLUMNS = {"scenario": ("scenario_id", INT), "replan": ("replan_enabled", INT),
               "seed": ("seed", INT), "avg_quality": ("avg_quality", FLOAT),
               "switch_count": ("switch_count", INT),
               "variation_norm": ("quality_variation_normalized", FLOAT),
               "rebuffer_count": ("rebuffer_count", INT)}
TABLE_COLUMNS = {"scenario": INT, "replan": INT, "episodes": INT, "avg_quality": FLOAT,
                 "quality_variation": FLOAT, "rebuffering_time": FLOAT}


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


def qoe_report(log: EpisodeLog, cfg: RunConfig, seed: int) -> QoEReport:
    """Full QoE report for one episode of the config and seed: the mean chunk
    bitrate, the bitrate switches between consecutive chunks (raw and per
    chunk pair) and the rebuffering count, the chunks whose buffer is at or
    below the chunk duration (H(0)=1).  Chunks before the startup delay are
    excluded from the rebuffering count: the buffer is legitimately below
    the chunk duration while it first fills."""
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
    return {
        "scenario": reports[0].scenario_id,
        "replan": reports[0].replan_enabled,
        "episodes": len(reports),
        "avg_quality": float(np.mean([r.avg_quality for r in reports])),
        "quality_variation": float(np.mean([r.switch_count for r in reports])),
        "rebuffering_time": float(np.mean([r.rebuffer_count for r in reports])),
    }


def reports_to_csv(reports, path) -> None:
    write_columns(path, QOE_COLUMNS, [[fmt(getattr(r, name)) for r in reports]
                                      for name, fmt in QOE_COLUMNS.values()])


def reports_to_json(reports, path) -> None:
    with open(path, "w") as fh:
        json.dump([asdict(r) for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")


def table_to_csv(row, path) -> None:
    write_columns(path, TABLE_COLUMNS, [[fmt(row[name])] for name, fmt in TABLE_COLUMNS.items()])


def format_table(row) -> str:
    """Human-readable aggregate table: a header line and the batch's row."""
    return (f"{'scenario':>8} {'replan':>6} {'episodes':>8} {'avg_quality':>12} "
            f"{'quality_var':>12} {'rebuffering':>12}\n"
            f"{row['scenario']:>8} {'on' if row['replan'] else 'off':>6} "
            f"{row['episodes']:>8} {row['avg_quality']:>12.4f} "
            f"{row['quality_variation']:>12.2f} {row['rebuffering_time']:>12.2f}")
