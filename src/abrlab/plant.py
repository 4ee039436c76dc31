"""Channel scenarios, episode execution and the per-step episode log."""
import csv
from dataclasses import dataclass

import numpy as np

from . import estimation, kernels
from .config import RunConfig

FMT = "%.10g"  # stable float formatting for byte-identical reruns

# Scenario 3 always dips under this capacity, the smallest default bitrate.
S3_FORCE_BELOW = 0.35

# First entropy word of the buffer-measurement noise stream, which keeps it
# apart from the capacity stream of the same scenario and seed.
X_NOISE_STREAM = 99


@dataclass
class ChannelTrace:
    true_capacity: np.ndarray
    measured_capacity: np.ndarray
    seed: int
    scenario_id: int


def build_scenario(cfg: RunConfig, seed: int) -> ChannelTrace:
    """Deterministic capacity trace for the config's scenario and one seed."""
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
        seg_steps = max(1, int(round(seg_len / cfg.te)))
        n_seg = (n + seg_steps - 1) // seg_steps
        lv = rng.uniform(lo, hi, n_seg)
        if sid == 3 and lv.min() >= S3_FORCE_BELOW:
            lv[rng.integers(n_seg)] = rng.uniform(lo, S3_FORCE_BELOW * 0.97)
        true = np.repeat(lv, seg_steps)[:n]
        meas = true * (1.0 + rng.uniform(-noise, noise, n))
    else:
        raise ValueError(f"unknown scenario id {sid}")
    return ChannelTrace(true, meas, seed, sid)


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
    scenario_id: int
    seed: int
    replan_enabled: bool

    @property
    def n_chunks(self) -> int:
        return len(self.t_k)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "x", "x_meas", "R", "c_true", "c_est", "u", "ref",
                        "regime", "stalled"])
            for k in range(len(self.t)):
                w.writerow([FMT % self.t[k], FMT % self.x[k], FMT % self.x_meas[k],
                            FMT % self.R[k], FMT % self.c_true[k], FMT % self.c_est[k],
                            FMT % self.u[k], FMT % self.ref[k],
                            "playing" if self.regime[k] else "filling",
                            int(self.stalled[k])])


def run_episode(trace: ChannelTrace, cfg: RunConfig) -> EpisodeLog:
    """Run one full Te-stepped episode of the config through the fused kernel."""
    n = cfg.n_steps
    if len(trace.true_capacity) < n:
        raise ValueError("trace shorter than episode duration")
    n_seg = int(round(cfg.tau / cfg.te))
    if n_seg < 2:
        raise ValueError("tau must span at least two sampling periods")
    w_lin = estimation.linear_kernel_weights(cfg.tau, n_seg)
    w_bump = estimation.bump_kernel_weights(cfg.tau, n_seg)
    if cfg.x_noise > 0.0:
        rng = np.random.default_rng([X_NOISE_STREAM, trace.scenario_id, trace.seed])
        x_noise = rng.uniform(-cfg.x_noise, cfg.x_noise, n)
    else:
        x_noise = np.zeros(n)
    out = kernels.episode_loop(
        trace.true_capacity[:n].astype(np.float64),
        trace.measured_capacity[:n].astype(np.float64),
        x_noise, np.array(cfg.ladder, dtype=np.float64), w_lin, w_bump,
        cfg.te, cfg.delta_startup, cfg.chunk_duration,
        cfg.t0, cfg.tf, cfg.x0, cfg.xf,
        cfg.alpha, cfg.kp, cfg.tau, cfg.decision_interval,
        cfg.replan, cfg.replan_lower, cfg.replan_upper)
    return EpisodeLog(np.arange(n) * cfg.te, c_true=trace.true_capacity[:n], **out._asdict(),
                      scenario_id=trace.scenario_id, seed=trace.seed,
                      replan_enabled=cfg.replan)
