"""Command-line scenario runner and report generator."""
import sys
from fnmatch import fnmatchcase
from pathlib import Path

from . import metrics
from .config import ConfigError, RunConfig, parse_config
from .plant import PLOT_FILES, EpisodeLog, build_scenario, run_episode, write_columns


# The names of the files a run writes.  A file in the output directory that
# matches one and that the run did not write is an earlier run's: the run
# names it on stderr and leaves it there.
OUTPUT_PATTERNS = ("episode_*", *(f"{prefix}_*" for prefix in PLOT_FILES), "qoe.*", "table.csv")


def run_single(cfg: RunConfig, seed: int) -> EpisodeLog:
    """One episode under the given config and seed."""
    return run_episode(build_scenario(cfg, seed), cfg)


def _write_plotdata(log: EpisodeLog, capacity_path: Path, buffer_path: Path) -> None:
    """Write the episode's plot data, each file with its ``PLOT_FILES`` columns."""
    for path, header in zip((capacity_path, buffer_path), PLOT_FILES.values()):
        write_columns(path, header, [log.text(name) for name in header])


def run(cfg: RunConfig) -> int:
    """Execute all seeds, write the requested outputs, print the table.  The
    config needs no check: an invalid one is refused, with a ``ConfigError``,
    when it is made."""
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    reports = []
    names = []  # the run's files, in the order written

    def path(name: str) -> Path:
        names.append(name)
        return outdir / name

    log = last = None
    for seed in cfg.seeds:
        trace = build_scenario(cfg, seed)
        # a seed that draws the previous seed's inputs bitwise (scenario 1 at
        # zero buffer noise draws the same for every seed) is the same episode
        if last is None or not trace.bitwise_equal(last):
            log = last = None  # free the last episode before the next one runs
            log = run_episode(trace, cfg)
        last = trace
        reports.append(metrics.qoe_report(log, seed))
        tag = f"s{cfg.scenario}_{'replan' if cfg.replan else 'noreplan'}_{seed}"
        if "log" in cfg.emit:
            log.to_csv(path(f"episode_{tag}.csv"))
        if "plotdata" in cfg.emit:
            _write_plotdata(log, *(path(f"{prefix}_{tag}.csv") for prefix in PLOT_FILES))
    if "qoe" in cfg.emit:
        metrics.reports_to_csv(reports, path("qoe.csv"))
        metrics.reports_to_json(reports, path("qoe.json"))
    row = metrics.batch_report(reports)
    if "table" in cfg.emit:
        metrics.table_to_csv(row, path("table.csv"))
    for name in sorted({p.name for p in outdir.iterdir() if p.is_file()}.difference(names)):
        if any(fnmatchcase(name, pat) for pat in OUTPUT_PATTERNS):
            print(f"abrlab: {outdir / name}: not written by this run", file=sys.stderr)
    print(metrics.format_table(row))
    return 0


def main(argv=None) -> int:
    try:
        return run(parse_config(argv if argv is not None else sys.argv[1:]))
    except ConfigError as exc:
        print(f"abrlab: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"abrlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
