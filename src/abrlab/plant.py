"""Channel scenarios, episode execution and the per-step episode log."""
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

import numpy as np

from . import estimation, kernels
from .config import S3_DIP_MAX, S3_FORCE_BELOW, RunConfig

FMT = "%.10g"  # stable float formatting for byte-identical reruns
REGIME_LABELS = ("filling", "playing")  # indexed by the int8 regime flag
WRITE_ROWS = 1000  # CSV rows joined per write
LOG_COLUMNS = ("t", "x", "x_meas", "R", "c_true", "c_est", "u", "ref", "regime", "stalled")
# text of one value of a log column, FMT unless named here
LOG_FORMATS = {"regime": REGIME_LABELS.__getitem__, "stalled": "%d".__mod__}

# First entropy word of the buffer-measurement noise stream, which keeps it
# apart from the capacity stream of the same scenario and seed.
X_NOISE_STREAM = 99


@dataclass
class ChannelTrace:
    """Every random input of one episode."""
    true_capacity: np.ndarray
    measured_capacity: np.ndarray
    x_noise: np.ndarray  # relative buffer-measurement noise per step

    def bitwise_equal(self, other: "ChannelTrace") -> bool:
        """Whether both traces hold the same bits, so that an episode run on
        one is the episode of the other (``-0.0`` and ``0.0`` differ)."""
        return all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                   for a, b in ((self.true_capacity, other.true_capacity),
                                (self.measured_capacity, other.measured_capacity),
                                (self.x_noise, other.x_noise)))


def episode_steps(cfg: RunConfig) -> int:
    """The config's number of te steps; a te that is not finite and positive,
    or a duration that gives no step, is an error."""
    if not 0.0 < cfg.te < math.inf:  # NaN fails both
        raise ValueError(f"te must be finite and positive, got {cfg.te:g} s")
    if not math.isfinite(cfg.duration):
        raise ValueError(f"duration must be finite, got {cfg.duration:g} s")
    n = cfg.n_steps
    if n < 1:
        raise ValueError(f"duration {cfg.duration:g} s spans no step of te = {cfg.te:g} s")
    return n


def build_scenario(cfg: RunConfig, seed: int) -> ChannelTrace:
    """Deterministic capacity trace and buffer-measurement noise for the
    config's scenario and one seed.  Every scenario is piecewise-constant
    capacity measured with relative noise; scenario 1 is one segment at c0,
    measured exactly.  Zero noise draws +0.0: uniform(-0.0, 0.0) is +0.0."""
    n = episode_steps(cfg)
    sid = cfg.scenario
    if sid == 1:
        seg_steps, lo, hi, noise = n, cfg.c0, cfg.c0, 0.0
    elif sid in (2, 3):
        seg_len, lo, hi, noise = (getattr(cfg, f"s{sid}_{name}")
                                  for name in ("segment", "level_lo", "level_hi", "noise"))
        seg_steps = cfg.steps(seg_len)
    else:
        raise ValueError(f"unknown scenario id {sid}")
    rng = np.random.default_rng([sid, seed])
    n_seg = (n + seg_steps - 1) // seg_steps
    lv = rng.uniform(lo, hi, n_seg)
    if sid == 3 and lv.min() >= S3_FORCE_BELOW:
        lv[rng.integers(n_seg)] = rng.uniform(lo, S3_DIP_MAX)
    true = np.repeat(lv, seg_steps)[:n]
    meas = true * (1.0 + rng.uniform(-noise, noise, n))
    rng = np.random.default_rng([X_NOISE_STREAM, sid, seed])
    return ChannelTrace(true, meas, rng.uniform(-cfg.x_noise, cfg.x_noise, n))


@dataclass
class EpisodeLog:
    """Per-step and per-chunk records of one simulated episode."""
    t: np.ndarray
    x: np.ndarray
    x_meas: np.ndarray
    R: np.ndarray
    c_true: np.ndarray
    c_est: np.ndarray
    u: np.ndarray
    ref: np.ndarray
    regime: np.ndarray      # int8, 0 filling / 1 playing
    stalled: np.ndarray     # int8
    t_k: np.ndarray
    R_k: np.ndarray
    x_k: np.ndarray
    te: float               # sampling period: t is arange(len(t)) * te

    # text of the formatted columns, shared by every file written from the log
    _text: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def text(self, name: str) -> list:
        """The column ``name`` as text, formatted on first use only."""
        text = self._text.get(name)
        if text is None:
            if name == "t":
                text = clock_text(len(self.t), self.te)
            elif name == "x_meas" and np.array_equal(self.x_meas.view(np.int64),
                                                     self.x.view(np.int64)):
                text = self.text("x")  # no buffer-measurement noise
            else:
                text = kernels.held_list(getattr(self, name), LOG_FORMATS.get(name, FMT.__mod__))
            self._text[name] = text
        return text

    def to_csv(self, path) -> None:
        write_columns(path, LOG_COLUMNS, [self.text(name) for name in LOG_COLUMNS])


@lru_cache(maxsize=1)
def clock_text(n: int, te: float) -> list:
    """Text of the clock column ``arange(n) * te``.  Every episode of a run has
    the same clock, so it is formatted once and its text shared."""
    return kernels.held_list(np.arange(n) * te, FMT.__mod__)


def write_columns(path, header, columns) -> None:
    """Write equal-length text columns as CSV, with the csv module's \\r\\n
    line endings.  Every CSV file of a run is written here.

    An episode's columns are turned into text once per log (``EpisodeLog.text``
    through ``kernels.held_list``) and shared by its three files; the QoE and table
    writers format their few values directly.  Rows are joined WRITE_ROWS at a
    time to bound the memory held."""
    rows = map(",".join, zip(*columns))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while block := list(islice(rows, WRITE_ROWS)):
            fh.write("\r\n".join(block) + "\r\n")


def run_episode(trace: ChannelTrace, cfg: RunConfig) -> EpisodeLog:
    """Run one full Te-stepped episode of the config on the trace's random
    inputs (``build_scenario`` draws all of them for a seed) through the fused
    kernel and derive the log columns that the kernel does not record.

    The kernel's numeric preconditions are checked here: capacities finite
    and positive at every step, and the estimator window and the decision
    interval whole numbers of te steps; anything else is a ``ValueError``.
    So is a buffer ``x``, reference ``ref`` or correction ``u`` that comes out
    of the kernel not finite at some step (a config whose magnitudes
    overflow); ``c_est`` is NaN before the first estimate by design."""
    n = episode_steps(cfg)
    if len(trace.true_capacity) < n:
        raise ValueError("trace shorter than episode duration")
    for problem in cfg.off_grid("tau", "decision_interval"):
        raise ValueError(problem)
    n_seg = cfg.steps(cfg.tau)
    if n_seg < 2:
        raise ValueError("tau must span at least two sampling periods")
    c_true = trace.true_capacity[:n]
    c_meas = trace.measured_capacity[:n]
    for name, c in (("true", c_true), ("measured", c_meas)):
        if not ((0.0 < c) & (c < np.inf)).all():  # NaN fails both
            raise ValueError(f"{name} capacity must be finite and positive at every step")
    w_lin = estimation.linear_kernel_weights(cfg.tau, n_seg)
    w_bump = estimation.bump_kernel_weights(cfg.tau, n_seg)
    x_noise = trace.x_noise[:n]
    x, ref, valid, R_k, u_k = kernels.episode_loop(
        c_true, c_meas, x_noise, w_lin, w_bump, cfg)
    ratio = cfg.steps(cfg.decision_interval)
    for name, column, steps_per_value in (("x", x, 1), ("ref", ref, 1), ("u", u_k, ratio)):
        finite = np.isfinite(column)
        if not finite.all():
            raise ValueError(f"{name} is not finite, first at step"
                             f" {finite.argmin() * steps_per_value}")
    t = np.arange(n) * cfg.te
    x_meas = x * (1.0 + x_noise)
    R = np.repeat(R_k, ratio)[:n]
    # each estimate used the bitrate held before its step's decision
    R_before = np.concatenate(([cfg.ladder[0]], R[:-1]))
    started = t >= cfg.delta_startup
    return EpisodeLog(
        t=t, x=x, x_meas=x_meas, R=R, c_true=c_true,
        c_est=kernels.held_estimates(x_meas, valid, R_before, w_lin, cfg.tau),
        u=np.repeat(u_k, ratio)[:n], ref=ref,
        regime=(started & (x >= cfg.chunk_duration)).astype(np.int8),
        stalled=(started & (x < cfg.chunk_duration)).astype(np.int8),
        t_k=t[::ratio], R_k=R_k, x_k=x[::ratio], te=cfg.te)
