"""Command-line scenario runner and report generator."""
import sys
from pathlib import Path

from . import metrics
from .config import ConfigError, RunConfig, parse_config
from .plant import FMT, EpisodeLog, build_scenario, run_episode, write_columns


def run_single(cfg: RunConfig, seed: int) -> EpisodeLog:
    """One episode under the given config and seed."""
    return run_episode(build_scenario(cfg, seed), cfg)


def _episode_tag(cfg: RunConfig, seed: int) -> str:
    return f"s{cfg.scenario}_{'replan' if cfg.replan else 'noreplan'}_{seed}"


def _write_plotdata(log: EpisodeLog, cfg: RunConfig, outdir: Path, tag: str) -> None:
    write_columns(outdir / f"capacity_{tag}.csv", ("t", "c_true", "c_est"),
                  f"{FMT},{FMT},{FMT}", (log.t, log.c_true, log.c_est))
    # the stall threshold is constant: formatted once, into the row template
    write_columns(outdir / f"buffer_{tag}.csv", ("t", "x", "ref", "stall_threshold"),
                  f"{FMT},{FMT},{FMT},{FMT % cfg.chunk_duration}", (log.t, log.x, log.ref))


def run(cfg: RunConfig) -> int:
    """Execute all seeds, write the requested outputs, print the table."""
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    reports = []
    for seed in cfg.seeds:
        log = run_single(cfg, seed)
        reports.append(metrics.qoe_report(log, cfg, seed))
        tag = _episode_tag(cfg, seed)
        if "log" in cfg.emit:
            log.to_csv(outdir / f"episode_{tag}.csv")
        if "plotdata" in cfg.emit:
            _write_plotdata(log, cfg, outdir, tag)
    if "qoe" in cfg.emit:
        metrics.reports_to_csv(reports, outdir / "qoe.csv")
        metrics.reports_to_json(reports, outdir / "qoe.json")
    rows = metrics.batch_report(reports)
    if "table" in cfg.emit:
        metrics.table_to_csv(rows, outdir / "table.csv")
    print(metrics.format_table(rows))
    return 0


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
    except ConfigError as exc:
        print(f"abrlab: invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except (OSError, ValueError) as exc:
        print(f"abrlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
