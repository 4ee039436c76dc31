"""Command-line scenario runner and report generator."""
import sys
from fnmatch import fnmatchcase
from pathlib import Path

from . import metrics
from .config import ConfigError, RunConfig, parse_config
from .plant import FMT, EpisodeLog, build_scenario, run_episode, write_columns


# The names of the files a run writes.  A file in the output directory that
# matches one and that the run did not write is an earlier run's: the run
# names it on stderr and leaves it there.
OUTPUT_PATTERNS = ("episode_*", "capacity_*", "buffer_*", "qoe.*", "table.csv")


def run_single(cfg: RunConfig, seed: int) -> EpisodeLog:
    """One episode under the given config and seed."""
    return run_episode(build_scenario(cfg, seed), cfg)


def _episode_tag(cfg: RunConfig, seed: int) -> str:
    return f"s{cfg.scenario}_{'replan' if cfg.replan else 'noreplan'}_{seed}"


def _write_plotdata(log: EpisodeLog, outdir: Path, tag: str) -> list:
    """Write the episode's plot data; returns the names of the files written."""
    names = [f"capacity_{tag}.csv", f"buffer_{tag}.csv"]
    write_columns(outdir / names[0], ("t", "c_true", "c_est"),
                  [log.text("t"), log.text("c_true"), log.text("c_est")])
    # the stall threshold is constant: formatted once
    write_columns(outdir / names[1], ("t", "x", "ref", "stall_threshold"),
                  [log.text("t"), log.text("x"), log.text("ref"),
                   [FMT % log.cfg.chunk_duration] * log.cfg.n_steps])
    return names


def run(cfg: RunConfig) -> int:
    """Execute all seeds, write the requested outputs, print the table.  The
    config needs no check: an invalid one is refused, with a ``ConfigError``,
    when it is made."""
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    reports = []
    written = set()
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
        tag = _episode_tag(cfg, seed)
        if "log" in cfg.emit:
            log.to_csv(outdir / f"episode_{tag}.csv")
            written.add(f"episode_{tag}.csv")
        if "plotdata" in cfg.emit:
            written.update(_write_plotdata(log, outdir, tag))
    if "qoe" in cfg.emit:
        metrics.reports_to_csv(reports, outdir / "qoe.csv")
        metrics.reports_to_json(reports, outdir / "qoe.json")
        written.update(("qoe.csv", "qoe.json"))
    row = metrics.batch_report(reports)
    if "table" in cfg.emit:
        metrics.table_to_csv(row, outdir / "table.csv")
        written.add("table.csv")
    for name in sorted(p.name for p in outdir.iterdir() if p.is_file()):
        if name not in written and any(fnmatchcase(name, pat) for pat in OUTPUT_PATTERNS):
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
