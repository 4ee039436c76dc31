"""Layered benchmark for abrlab's command-line entry point.

Runs one workload through ``abrlab.cli.main`` in this process, one caller and
one thread, closed loop, for ``--seconds`` seconds, checks every output, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

    python3 perfbench/run.py --workload table-sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced rounds with rounds under the span wrappers of
``layers.py``, reports per-layer metrics and the tracing overhead, and ends
with a cProfile pass on one single-run call.  ``--seed n`` selects the seed
range starting at ``n * 1000``; the program only sees the generated
``--seeds`` argument.  ``--kernel fallback`` swaps the uncompiled episode loop
in for the whole run, which compares numba against the fallback when numba is
installed.  ``--record-reference`` rewrites ``reference.json`` from the
program as it is; do that only when its outputs change on purpose.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""
import argparse
import contextlib
import cProfile
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import layers
import workloads as wl

# name -> (unit, direction); every run prints exactly these
END_TO_END = {
    "setup_s": ("s", "lower"),
    "episodes_per_s": ("1/s", "higher"),
    "latency_ms_p50": ("ms", "lower"),
    "latency_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "config.parse_calls": ("count/round", "lower"),
    "config.parse_s": ("s/round", "lower"),
    "config.errors": ("count", "lower"),
    "plant.build_scenario_s": ("s/round", "lower"),
    "plant.run_episode_self_s": ("s/round", "lower"),
    "plant.log_csv_s": ("s/round", "lower"),
    "plant.log_csv_mb": ("MB/round", "lower"),
    "plant.errors": ("count", "lower"),
    "estimation.weights_calls": ("count/round", "lower"),
    "estimation.weights_s": ("s/round", "lower"),
    "estimation.errors": ("count", "lower"),
    "kernels.episode_loop_calls": ("count/round", "lower"),
    "kernels.episode_loop_s": ("s/round", "lower"),
    "kernels.steps": ("count/round", "lower"),
    "kernels.ns_per_step": ("ns/step", "lower"),
    "kernels.out_mb": ("MB/round", "lower"),
    "kernels.errors": ("count", "lower"),
    "kernels.ring_dot_share": ("share", "lower"),
    "kernels.loop_self_share": ("share", "lower"),
    "metrics.qoe_report_s": ("s/round", "lower"),
    "metrics.batch_report_s": ("s/round", "lower"),
    "metrics.writers_s": ("s/round", "lower"),
    "metrics.writers_mb": ("MB/round", "lower"),
    "metrics.errors": ("count", "lower"),
    "cli.plotdata_s": ("s/round", "lower"),
    "cli.plotdata_mb": ("MB/round", "lower"),
    "cli.run_self_s": ("s/round", "lower"),
    "cli.errors": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.coverage_share": ("share", "higher"),
}

TIMES = [n for n, (unit, _) in PER_LAYER.items() if unit in ("s/round", "ns/step")]

SETUP_PROBES = 9
# What every CLI invocation pays before its first result: interpreter start,
# imports (with numba compile or cache load when numba is present), config
# parsing and one 20 s-simulated episode.
SETUP_CODE = ("import sys; sys.path.insert(0, {src!r}); from abrlab import cli; "
              "cli.run_single(cli.parse_config(['--scenario', '2', '--replan', "
              "'--duration', '20']), 0)")


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def _cpu() -> str:
    try:
        import cpuinfo
    except ImportError:
        return platform.processor() or "unknown"
    return cpuinfo.get_cpu_info().get("brand_raw", "unknown")


def measure_setup(n: int) -> list:
    """(wall seconds, scale to quiet host speed) of ``n`` fresh processes,
    each timed from spawn to exit."""
    code = SETUP_CODE.format(src=str(wl.SRC))
    runs = []
    for _ in range(n):
        proc, seconds, scale = wl.timed_call(
            subprocess.run, [sys.executable, "-c", code], sample=False, cwd=wl.ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        runs.append((seconds, scale))
    return runs


def _run_round(cli, ops, workdir, reference, outcomes, sample=True) -> tuple:
    """Run a round's ops; returns their (wall, scaled) seconds."""
    wall = scaled = 0.0
    for op in ops:
        outcome = wl.execute(cli, op, workdir, reference, sample=sample)
        outcomes.append(outcome)
        wall += outcome.seconds
        scaled += outcome.scaled_seconds
    return wall, scaled


def timed_run(cli, workload, base, seconds, workdir, reference, outcomes) -> dict:
    """Closed loop of rounds until ``seconds`` pass; end-to-end metrics.

    Latency is the wall time of one round, the unit a user waits for: one
    episode in single-run, one plot-data batch in full-emit, the whole
    six-cell table in table-sweep."""
    first = len(outcomes)
    walls, scaled = [], []
    start = time.perf_counter()
    while len(walls) < wl.MIN_ROUNDS[workload] or time.perf_counter() - start < seconds:
        ops = wl.round_ops(workload, base, len(walls))
        wall, quiet = _run_round(cli, ops, workdir, reference, outcomes)
        walls.append(wall)
        scaled.append(quiet)
    episodes = sum(len(o.op.seeds) for o in outcomes[first:])

    def summary(rounds):
        lat = [s * 1e3 for s in rounds]
        return {"episodes_per_s": episodes / sum(rounds),
                "latency_ms_p50": statistics.median(lat),
                "latency_ms_p90": statistics.quantiles(lat, n=10, method="inclusive")[8]}
    found = summary(scaled)
    found["_wall"] = summary(walls)
    found.update(_ops=len(outcomes) - first, _rounds=len(walls), _episodes=episodes)
    return found


def traced_run(abrlab, workload, base, seconds, workdir, reference, outcomes) -> dict:
    """Untraced and traced rounds in turn, on the same ops; per-layer metrics.

    The host speed is sampled only around calls here, so that no sample
    lands inside a span."""
    tracer = layers.Tracer(abrlab)
    plain, rounds = [], []
    start = time.perf_counter()
    i = 0
    while i < 2 * wl.MIN_ROUNDS[workload] or time.perf_counter() - start < seconds:
        ops = wl.round_ops(workload, base, i // 2)
        if i % 2 == 0:
            plain.append(_run_round(abrlab.cli, ops, workdir, reference, outcomes, False)[1])
        else:
            first = len(outcomes)
            with tracer:
                wall, scaled = _run_round(abrlab.cli, ops, workdir, reference, outcomes,
                                          False)
            r = tracer.take_round()
            for name in TIMES:  # span times at quiet host speed, like the ops
                r[name] *= scaled / wall
            written = [o.out_bytes for o in outcomes[first:]]
            r["plant.log_csv_mb"] = sum(b["log"] for b in written) / 1e6
            r["cli.plotdata_mb"] = sum(b["plotdata"] for b in written) / 1e6
            r["metrics.writers_mb"] = sum(b["reports"] for b in written) / 1e6
            r["trace.coverage_share"] = r.pop("_covered_s") / wall
            r["_wall"] = scaled
            rounds.append(r)
        i += 1
    out = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    out["trace.overhead_ratio"] = out.pop("_wall") / statistics.median(plain)
    for layer, count in tracer.errors.items():
        out[f"{layer}.errors"] = count
    out["_rounds"] = len(rounds)
    out["_missing"] = tracer.missing
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--kernel", choices=("default", "fallback"), default="default")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    if args.workload is None and not args.record_reference:
        ap.error("--workload is required")
    if not (wl.SRC / "abrlab" / "__init__.py").is_file():
        print(f"perfbench: no abrlab package under {wl.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    import abrlab
    import abrlab.cli
    from abrlab import kernels

    work_root = wl.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        if args.record_reference:
            ops = wl.record_reference(abrlab.cli, Path(workdir))
            with open(wl.REFERENCE, "w") as fh:
                json.dump({"ops": ops}, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"recorded {len(ops)} operations into {wl.REFERENCE}")
            return 0
        swap = layers.fallback_kernel(kernels) if args.kernel == "fallback" \
            else contextlib.nullcontext()
        with swap:
            return measure(args, abrlab, kernels, Path(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


def measure(args, abrlab, kernels, workdir) -> int:
    numba = bool(abrlab.NUMBA_ENABLED)
    env = {
        "numba_enabled": numba,
        # no figure is labelled compiled unless numba actually ran
        "kernel_path": "compiled" if numba and args.kernel == "default" else "fallback",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": _loadavg(),
    }
    # One CPU for the calls, the calibration loops around them and the setup
    # probes, so that each call is scaled by the speed of the CPU it ran on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env["pinned_cpu"] = cpu
    reference = wl.load_reference()
    base = wl.seed_base(args.seed)
    outcomes = []
    # Digest check of the default seed range in every run, whatever --seed
    # is; it also warms the process before the clock starts.
    for i in range(wl.REFERENCE_ROUNDS[args.workload]):
        _run_round(abrlab.cli, wl.round_ops(args.workload, 0, i), workdir, reference, outcomes)

    if args.trace:
        found = traced_run(abrlab, args.workload, base, args.seconds, workdir, reference,
                           outcomes)
        op = wl.round_ops("single-run", base, 0)[0]
        prof = cProfile.Profile()
        with layers.fallback_kernel(kernels):
            outcomes.append(wl.execute(abrlab.cli, op, workdir, reference, sample=False,
                                       runner=lambda *a: prof.runcall(wl.call_cli, *a)))
        found.update(layers.profile_shares(prof, kernels))
        names = PER_LAYER
        detail = {"traced_rounds": found.pop("_rounds"),
                  "missing_targets": found.pop("_missing"),
                  "profile": "fallback path only; compiled callees are invisible to cProfile"}
    else:
        found = timed_run(abrlab.cli, args.workload, base, args.seconds, workdir, reference,
                          outcomes)
        setup = measure_setup(SETUP_PROBES)
        found["setup_s"] = statistics.median(s * k for s, k in setup)
        found["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        names = END_TO_END
        wall = found.pop("_wall")
        wall["setup_s"] = statistics.median(s for s, _ in setup)
        detail = {"timed_ops": found.pop("_ops"), "timed_rounds": found.pop("_rounds"),
                  "timed_episodes": found.pop("_episodes"), "unscaled_wall": wall,
                  "median_scale": statistics.median(o.scale for o in outcomes)}

    failed = [o for o in outcomes if o.problems]
    for o in failed[:10]:
        print(f"perfbench: failed: {o.op.key}: {'; '.join(o.problems[:3])}", file=sys.stderr)
    env["loadavg_after"] = _loadavg()
    env["cpu"] = _cpu()
    metrics = {n: {"value": found[n], "unit": names[n][0]} for n in names}
    for n, m in metrics.items():
        print(f"{args.workload:>11} {n:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:>11} ops {len(outcomes)} failed_ops {len(failed)}")
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace, "kernel": args.kernel,
                      "detail": detail}))
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
