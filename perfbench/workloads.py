"""Workloads, operations and output checks for the abrlab benchmark.

An operation is one ``abrlab.cli.main`` call made in this process, with its
stdout captured and its outputs written to a fresh directory under the
benchmark's work directory.  The call alone is timed; checking, hashing and
clean-up happen after the clock stops.

Outputs of the default seed range (``--seed 0``) are compared byte for byte,
by SHA-256, with ``reference.json``, recorded from the program at the commit
that added this benchmark.  Any other seed range is checked against
invariants of the output format instead.
"""
import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import signal
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

SEED_STRIDE = 1000      # --seed n uses seeds from n * SEED_STRIDE upwards
SWEEP_SEEDS = 10        # seeds per cell in table-sweep
FULL_EMIT_SEEDS = 10    # seeds per call in full-emit
SINGLE_RUN_SEEDS = 100  # single-run cycles through this many one-seed calls

# Round structure: a round is the unit the timed loop repeats.  single-run
# needs at least 100 calls so that ten samples lie beyond its p90.
WORKLOADS = ("table-sweep", "full-emit", "single-run")
MIN_ROUNDS = {"table-sweep": 1, "full-emit": 1, "single-run": 100}
REFERENCE_ROUNDS = {"table-sweep": 1, "full-emit": 1, "single-run": 10}

# Properties of abrlab's default configuration that the invariants rely on.
LADDER = (0.35, 0.6, 1.0, 2.0, 3.0, 5.0)
STEPS = 6000            # 600 s at Te = 0.1 s
CHUNKS = 300            # 600 s at one decision per 2 s

QOE_HEADER = ["scenario", "replan", "seed", "avg_quality", "switch_count",
              "variation_norm", "rebuffer_count"]
TABLE_HEADER = ["scenario", "replan", "episodes", "avg_quality",
                "quality_variation", "rebuffering_time"]
LOG_HEADER = ["t", "x", "x_meas", "R", "c_true", "c_est", "u", "ref", "regime", "stalled"]
CAPACITY_HEADER = ["t", "c_true", "c_est"]
BUFFER_HEADER = ["t", "x", "ref", "stall_threshold"]


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call: a scenario, an arm, a seed range and the outputs."""
    scenario: int
    replan: bool
    seeds: tuple
    emit: tuple

    def argv(self) -> list:
        lo, hi = self.seeds[0], self.seeds[-1]
        seeds = str(lo) if lo == hi else f"{lo}..{hi}"
        return ["--scenario", str(self.scenario),
                "--replan" if self.replan else "--no-replan",
                "--seeds", seeds, "--emit", ",".join(self.emit)]

    @property
    def key(self) -> str:
        return " ".join(self.argv())

    def tags(self) -> list:
        arm = "replan" if self.replan else "noreplan"
        return [f"s{self.scenario}_{arm}_{s}" for s in self.seeds]


def round_ops(workload: str, base: int, i: int) -> list:
    """The operations of round ``i`` of a workload whose seeds start at ``base``."""
    if workload == "table-sweep":
        seeds = tuple(range(base, base + SWEEP_SEEDS))
        return [Op(s, r, seeds, ("qoe", "table")) for s in (1, 2, 3) for r in (False, True)]
    if workload == "full-emit":
        seeds = tuple(range(base, base + FULL_EMIT_SEEDS))
        return [Op(3, True, seeds, ("qoe", "table", "log", "plotdata"))]
    if workload == "single-run":
        return [Op(2, True, (base + i % SINGLE_RUN_SEEDS,), ("qoe",))]
    raise ValueError(f"unknown workload {workload!r}")


def seed_base(seed: int) -> int:
    return seed * SEED_STRIDE


# Host-speed calibration.  On a shared machine the speed of a vCPU changes by
# up to a half over seconds to minutes as neighbours load the physical core;
# CPU time rises with wall time, so the program runs slower rather than
# waiting.  A short fixed loop of the kind of work the fallback kernel does
# (NumPy scalar reads and writes from Python) is timed five times right
# before and five times right after each measured call and, every
# SAMPLE_PERIOD_S during the call, from a timer signal.  The call's wall time,
# less the time the samples took, is scaled by CAL_REF_S over the median loop
# time, which states it at the machine's quiet speed.
CAL_STEPS = 1000
CAL_REF_S = 0.00035     # CAL_STEPS loop steps on a quiet 2.1 GHz Xeon vCPU
SAMPLE_PERIOD_S = 0.025
_RING = np.zeros(11)


def _calibration_loop() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(CAL_STEPS):
        _RING[i % 11] = acc * 1e-9 + 0.5
        acc += _RING[(i + 3) % 11] * 1.0001
    return time.perf_counter() - start


def timed_call(fn, *args, sample: bool = True, **kwargs):
    """Call ``fn``; returns (result, wall seconds, scale to quiet host speed).

    With ``sample`` a timer signal samples the host speed during the call too;
    the samples' own time is left out of the wall time.
    """
    samples = [_calibration_loop() for _ in range(5)]
    stolen = 0.0

    def on_timer(signum, frame):
        nonlocal stolen
        start = time.perf_counter()
        samples.append(_calibration_loop())
        stolen += time.perf_counter() - start

    if sample:
        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    finally:
        wall = time.perf_counter() - start
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    samples += [_calibration_loop() for _ in range(5)]
    return result, wall - stolen, CAL_REF_S / statistics.median(samples)


@dataclass
class Outcome:
    """What one operation did: wall time, its scale to quiet host speed,
    problems found and bytes written by kind."""
    op: Op
    seconds: float
    scale: float
    problems: list
    out_bytes: dict

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.scale


def call_cli(cli, op: Op, out: Path):
    """One ``cli.main`` call; returns (exit code, stdout, error)."""
    buf = io.StringIO()
    rc, err = None, None
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op.argv() + ["--out", str(out)])
    except Exception:  # the benchmark must record the failure and go on
        err = traceback.format_exc(limit=3)
    return rc, buf.getvalue(), err


def execute(cli, op: Op, workdir: Path, reference: dict, runner=call_cli,
            sample: bool = True) -> Outcome:
    """Time, check and clean up one operation; ``runner`` makes the call."""
    out = workdir / "out"
    (rc, stdout, err), seconds, scale = timed_call(runner, cli, op, out, sample=sample)
    if err is not None:
        problems = ["raised: " + err.strip().splitlines()[-1]]
    elif rc != 0:
        problems = [f"exit code {rc}"]
    else:
        try:
            problems = check_outputs(op, out, stdout, reference)
        except (OSError, ValueError, LookupError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    out_bytes = output_bytes(out)
    shutil.rmtree(out, ignore_errors=True)
    return Outcome(op, seconds, scale, problems, out_bytes)


def output_bytes(out: Path) -> dict:
    """Bytes written per writer: the per-step log, plot data, QoE/table reports."""
    sizes = {"log": 0, "plotdata": 0, "reports": 0}
    if out.is_dir():
        for p in out.iterdir():
            kind = ("log" if p.name.startswith("episode_") else
                    "plotdata" if p.name.startswith(("capacity_", "buffer_")) else "reports")
            sizes[kind] += p.stat().st_size
    return sizes


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(out: Path, stdout: str) -> dict:
    files = {}
    if out.is_dir():
        files = {p.name: _sha256(p.read_bytes()) for p in sorted(out.iterdir())}
    return {"stdout": _sha256(stdout.encode()), "files": files}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["ops"]


def check_outputs(op: Op, out: Path, stdout: str, reference: dict) -> list:
    """Problems with one successful call's outputs; empty when they are correct."""
    expected = reference.get(op.key)
    if expected is None:
        return invariant_problems(op, out, stdout)
    got = digests(out, stdout)
    problems = []
    if got["stdout"] != expected["stdout"]:
        problems.append("stdout table differs from the reference")
    names = set(got["files"]) | set(expected["files"])
    for name in sorted(names):
        if got["files"].get(name) != expected["files"].get(name):
            problems.append(f"{name}: differs from the reference")
    return problems


def expected_files(op: Op) -> set:
    names = set()
    if "qoe" in op.emit:
        names |= {"qoe.csv", "qoe.json"}
    if "table" in op.emit:
        names.add("table.csv")
    for tag in op.tags():
        if "log" in op.emit:
            names.add(f"episode_{tag}.csv")
        if "plotdata" in op.emit:
            names |= {f"capacity_{tag}.csv", f"buffer_{tag}.csv"}
    return names


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def invariant_problems(op: Op, out: Path, stdout: str) -> list:
    """Format invariants for a seed range without recorded digests.

    One QoE row per seed in seed order, values inside their ranges, JSON equal
    to CSV, table and stdout equal to the means of the QoE rows, and in the
    per-step logs every bitrate on the ladder.
    """
    names = {p.name for p in out.iterdir()} if out.is_dir() else set()
    want = expected_files(op)
    if names != want:
        return [f"files: missing {sorted(want - names)}, unexpected {sorted(names - want)}"]
    problems = []
    rows = _qoe_problems(op, out, problems)
    if rows is None:
        return problems
    cell = [statistics.fmean(r["avg_quality"] for r in rows),
            statistics.fmean(r["switch_count"] for r in rows),
            statistics.fmean(r["rebuffer_count"] for r in rows)]
    if "table" in op.emit:
        table = _read_csv(out / "table.csv")
        if table[0] != TABLE_HEADER or len(table) != 2:
            problems.append("table.csv: wrong header or row count")
        else:
            r = table[1]
            if r[:3] != [str(op.scenario), str(int(op.replan)), str(len(op.seeds))] or \
                    not all(_close(float(v), c) for v, c in zip(r[3:], cell)):
                problems.append("table.csv: row differs from the QoE rows")
    lines = stdout.strip().splitlines()
    fields = lines[1].split() if len(lines) == 2 else []
    if not (len(fields) == 6
            and fields[:3] == [str(op.scenario), "on" if op.replan else "off",
                               str(len(op.seeds))]
            and _close(float(fields[3]), cell[0], 0, 5.1e-5)
            and _close(float(fields[4]), cell[1], 0, 5.1e-3)
            and _close(float(fields[5]), cell[2], 0, 5.1e-3)):
        problems.append("stdout table differs from the QoE rows")
    for tag in op.tags():
        if "log" in op.emit:
            problems += _log_problems(out / f"episode_{tag}.csv")
        if "plotdata" in op.emit:
            for name, header in ((f"capacity_{tag}.csv", CAPACITY_HEADER),
                                 (f"buffer_{tag}.csv", BUFFER_HEADER)):
                data = _read_csv(out / name)
                if data[0] != header or len(data) != STEPS + 1:
                    problems.append(f"{name}: wrong header or row count")
    return problems


def _qoe_problems(op: Op, out: Path, problems: list):
    """Check qoe.csv against qoe.json and the ranges; returns the JSON rows."""
    table = _read_csv(out / "qoe.csv")
    with open(out / "qoe.json") as fh:
        rows = json.load(fh)
    if table[0] != QOE_HEADER or len(table) - 1 != len(op.seeds) or len(rows) != len(op.seeds):
        problems.append("qoe: wrong header or not one row per seed")
        return None
    for seed, c, j in zip(op.seeds, table[1:], rows):
        ident = [str(op.scenario), str(int(op.replan)), str(seed)]
        ok = (c[:3] == ident
              and (j["scenario_id"], j["replan_enabled"], j["seed"], j["M"])
              == (op.scenario, op.replan, seed, CHUNKS)
              and c[3] == "%.10g" % j["avg_quality"]
              and LADDER[0] <= j["avg_quality"] <= LADDER[-1]
              and int(c[4]) == j["switch_count"] and 0 <= j["switch_count"] < CHUNKS
              and int(c[6]) == j["rebuffer_count"] and 0 <= j["rebuffer_count"] <= CHUNKS
              and _close(float(c[5]), j["switch_count"] / (CHUNKS - 1)))
        if not ok:
            problems.append(f"qoe: row for seed {seed} is inconsistent or out of range")
    return rows


def _log_problems(path: Path) -> list:
    data = _read_csv(path)
    if data[0] != LOG_HEADER or len(data) != STEPS + 1:
        return [f"{path.name}: wrong header or row count"]
    rates = {float(r[3]) for r in data[1:]}
    if not rates <= set(LADDER):
        return [f"{path.name}: bitrate off the ladder: {sorted(rates - set(LADDER))}"]
    if not all(r[8] in ("filling", "playing") and r[9] in ("0", "1") and float(r[1]) >= 0.0
               for r in data[1:]):
        return [f"{path.name}: bad regime, stall flag or negative buffer"]
    return []


def record_reference(cli, workdir: Path) -> dict:
    """Digests of every default-range operation, for ``reference.json``."""
    ops = {}
    for workload in WORKLOADS:
        for i in range(max(MIN_ROUNDS[workload], REFERENCE_ROUNDS[workload])):
            for op in round_ops(workload, seed_base(0), i):
                out = workdir / "out"
                rc, stdout, err = call_cli(cli, op, out)
                if err is not None or rc != 0:
                    raise RuntimeError(f"{op.key}: failed while recording ({rc}, {err})")
                ops[op.key] = digests(out, stdout)
                shutil.rmtree(out)
    return ops
