"""Chunk-grained QoE metrics and batch aggregation."""
import csv
import json
from dataclasses import dataclass, asdict

import numpy as np

from .config import RunConfig
from .plant import FMT, EpisodeLog


@dataclass(frozen=True)
class QoEReport:
    avg_quality: float
    quality_variation_normalized: float
    switch_count: int
    rebuffer_count: int
    M: int
    scenario_id: int = 0
    replan_enabled: bool = False
    seed: int = 0


def avg_quality(chunks) -> float:
    """Mean chunk bitrate."""
    chunks = np.asarray(chunks, dtype=float)
    if chunks.size == 0:
        raise ValueError("need at least one chunk")
    return float(chunks.mean())


def quality_variation(chunks) -> tuple[float, int]:
    """(normalized variation, raw switch count) over consecutive chunks."""
    chunks = np.asarray(chunks, dtype=float)
    if chunks.size < 2:
        raise ValueError("need at least two chunks")
    switches = int(np.count_nonzero(np.sign(np.diff(chunks))))
    return switches / (chunks.size - 1), switches


def rebuffering_time(chunk_buffers, delta: float) -> int:
    """Count of chunks whose buffer level is at or below delta (H(0)=1)."""
    xs = np.asarray(chunk_buffers, dtype=float)
    if xs.size == 0:
        raise ValueError("need at least one chunk")
    return int(np.count_nonzero(delta - xs >= 0.0))


def qoe_report(log: EpisodeLog, cfg: RunConfig, seed: int) -> QoEReport:
    """Full QoE report for one episode of the config and seed.  Chunks before
    the startup delay are excluded from the rebuffering count: the buffer is
    legitimately below the chunk duration while it first fills."""
    var_norm, switches = quality_variation(log.R_k)
    mask = log.t_k >= cfg.delta_startup
    rebuf = rebuffering_time(log.x_k[mask], cfg.chunk_duration) if mask.any() else 0
    return QoEReport(avg_quality(log.R_k), var_norm, switches, rebuf,
                     M=log.n_chunks, scenario_id=cfg.scenario,
                     replan_enabled=cfg.replan, seed=seed)


def batch_report(episodes) -> list[dict]:
    """Aggregate per-episode reports into one row per (scenario, replan) cell."""
    episodes = list(episodes)
    if not episodes:
        raise ValueError("no episodes to aggregate")
    cells: dict[tuple, list[QoEReport]] = {}
    for r in episodes:
        cells.setdefault((r.scenario_id, r.replan_enabled), []).append(r)
    rows = []
    for (sid, replan), rs in sorted(cells.items()):
        if len({r.M for r in rs}) != 1:
            raise ValueError(f"mixed chunk counts in cell scenario={sid} replan={replan}")
        rows.append({
            "scenario": sid,
            "replan": replan,
            "episodes": len(rs),
            "avg_quality": float(np.mean([r.avg_quality for r in rs])),
            "quality_variation": float(np.mean([r.switch_count for r in rs])),
            "rebuffering_time": float(np.mean([r.rebuffer_count for r in rs])),
        })
    return rows


def reports_to_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "replan", "seed", "avg_quality", "switch_count",
                    "variation_norm", "rebuffer_count"])
        for r in reports:
            w.writerow([r.scenario_id, int(r.replan_enabled), r.seed,
                        FMT % r.avg_quality, r.switch_count,
                        FMT % r.quality_variation_normalized, r.rebuffer_count])


def reports_to_json(reports, path) -> None:
    with open(path, "w") as fh:
        json.dump([asdict(r) for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")


def table_to_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "replan", "episodes", "avg_quality",
                    "quality_variation", "rebuffering_time"])
        for r in rows:
            w.writerow([r["scenario"], int(r["replan"]), r["episodes"],
                        FMT % r["avg_quality"], FMT % r["quality_variation"],
                        FMT % r["rebuffering_time"]])


def format_table(rows) -> str:
    """Human-readable aggregate table (one line per scenario/replan cell)."""
    out = [f"{'scenario':>8} {'replan':>6} {'episodes':>8} {'avg_quality':>12} "
           f"{'quality_var':>12} {'rebuffering':>12}"]
    for r in rows:
        out.append(f"{r['scenario']:>8} {'on' if r['replan'] else 'off':>6} "
                   f"{r['episodes']:>8} {r['avg_quality']:>12.4f} "
                   f"{r['quality_variation']:>12.2f} {r['rebuffering_time']:>12.2f}")
    return "\n".join(out)
