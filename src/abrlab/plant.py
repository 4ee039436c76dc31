"""Channel scenarios, episode execution and the per-step episode log."""
from dataclasses import dataclass

import numpy as np

from . import estimation, kernels
from .config import S3_DIP_MAX, S3_FORCE_BELOW, RunConfig

FMT = "%.10g"  # stable float formatting for byte-identical reruns
REGIME_LABELS = np.array(["filling", "playing"])  # indexed by the int8 regime flag
WRITE_ROWS = 1000  # CSV rows formatted per write

# First entropy word of the buffer-measurement noise stream, which keeps it
# apart from the capacity stream of the same scenario and seed.
X_NOISE_STREAM = 99


@dataclass
class ChannelTrace:
    """Every random input of one episode."""
    true_capacity: np.ndarray
    measured_capacity: np.ndarray
    x_noise: np.ndarray  # relative buffer-measurement noise per step


def build_scenario(cfg: RunConfig, seed: int) -> ChannelTrace:
    """Deterministic capacity trace and buffer-measurement noise for the
    config's scenario and one seed."""
    n = cfg.n_steps
    sid = cfg.scenario
    rng = np.random.default_rng([sid, seed])
    if sid == 1:
        true = np.full(n, cfg.c0)
        meas = true.copy()
    elif sid in (2, 3):
        if sid == 2:
            seg_len, lo, hi, noise = cfg.s2_segment, cfg.s2_level_lo, cfg.s2_level_hi, cfg.s2_noise
        else:
            seg_len, lo, hi, noise = cfg.s3_segment, cfg.s3_level_lo, cfg.s3_level_hi, cfg.s3_noise
        seg_steps = cfg.steps(seg_len)
        n_seg = (n + seg_steps - 1) // seg_steps
        lv = rng.uniform(lo, hi, n_seg)
        if sid == 3 and lv.min() >= S3_FORCE_BELOW:
            lv[rng.integers(n_seg)] = rng.uniform(lo, S3_DIP_MAX)
        true = np.repeat(lv, seg_steps)[:n]
        meas = true * (1.0 + rng.uniform(-noise, noise, n))
    else:
        raise ValueError(f"unknown scenario id {sid}")
    if cfg.x_noise > 0.0:
        rng = np.random.default_rng([X_NOISE_STREAM, sid, seed])
        x_noise = rng.uniform(-cfg.x_noise, cfg.x_noise, n)
    else:
        x_noise = np.zeros(n)
    return ChannelTrace(true, meas, x_noise)


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

    @property
    def n_chunks(self) -> int:
        return len(self.t_k)

    def to_csv(self, path) -> None:
        write_columns(path, ("t", "x", "x_meas", "R", "c_true", "c_est", "u", "ref",
                             "regime", "stalled"),
                      ",".join([FMT] * 8) + ",%s,%d",
                      (self.t, self.x, self.x_meas, self.R, self.c_true, self.c_est,
                       self.u, self.ref, REGIME_LABELS[self.regime], self.stalled))


def write_columns(path, header, row, columns) -> None:
    """Write equal-length array columns as CSV, each row formatted by the
    %-template ``row``, with the csv module's \\r\\n line endings.  Every
    CSV file of a run is written here.

    Rows are formatted from Python values (``tolist``), which is much faster
    than from NumPy scalars, WRITE_ROWS at a time to bound the memory held.
    """
    line = row + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, len(columns[0]), WRITE_ROWS):
            block = zip(*(c[i:i + WRITE_ROWS].tolist() for c in columns))
            fh.write("".join(map(line.__mod__, block)))


def run_episode(trace: ChannelTrace, cfg: RunConfig) -> EpisodeLog:
    """Run one full Te-stepped episode of the config on the trace's random
    inputs (``build_scenario`` draws all of them for a seed) through the fused
    kernel and derive the log columns that the kernel does not record."""
    n = cfg.n_steps
    if len(trace.true_capacity) < n:
        raise ValueError("trace shorter than episode duration")
    n_seg = cfg.steps(cfg.tau)
    if n_seg < 2:
        raise ValueError("tau must span at least two sampling periods")
    w_lin = estimation.linear_kernel_weights(cfg.tau, n_seg)
    w_bump = estimation.bump_kernel_weights(cfg.tau, n_seg)
    c_true = trace.true_capacity[:n]
    x_noise = trace.x_noise[:n]
    x, ref, valid, R_k, u_k = kernels.episode_loop(
        c_true, trace.measured_capacity[:n], x_noise, w_lin, w_bump, cfg)
    ratio = cfg.steps(cfg.decision_interval)
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
        t_k=t[::ratio], R_k=R_k, x_k=x[::ratio])
