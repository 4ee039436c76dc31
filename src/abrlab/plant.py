"""Channel scenarios, episode execution and the per-step episode log."""
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from . import estimation, kernels
from .config import S3_DIP_MAX, S3_FORCE_BELOW, RunConfig

FMT = "%.10g"  # stable float formatting for byte-identical reruns
# indexed by the int8 regime flag
REGIME_LABELS = np.array(("filling", "playing"), dtype=object)
WRITE_ROWS = 1000  # CSV rows joined per write
LOG_COLUMNS = ("t", "x", "x_meas", "R", "c_true", "c_est", "u", "ref", "regime", "stalled")
# The plot-data files' columns, by file-name prefix; the stall threshold is
# the chunk duration at every step.
PLOT_FILES = {"capacity": ("t", "c_true", "c_est"), "buffer": ("t", "x", "ref", "stall_threshold")}

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


def build_scenario(cfg: RunConfig, seed: int) -> ChannelTrace:
    """Deterministic capacity trace and buffer-measurement noise for the
    config's scenario and one seed.  Every scenario is piecewise-constant
    capacity measured with relative noise; scenario 1 is one segment at c0,
    measured exactly.  A zero noise width (0.0 or -0.0) draws nothing and
    gives +0.0, as uniform(-0.0, 0.0) would; each noise draw is its
    generator's last, so skipping one moves no other draw.  The config needs
    no check here: a ``RunConfig`` is valid by construction."""
    n = cfg.n_steps
    sid = cfg.scenario
    if sid == 1:
        seg_steps, lo, hi, noise = n, cfg.c0, cfg.c0, 0.0
    else:
        seg_len, lo, hi, noise = (getattr(cfg, f"s{sid}_{name}")
                                  for name in ("segment", "level_lo", "level_hi", "noise"))
        seg_steps = min(cfg.steps(seg_len), n)  # one segment covers the episode
    rng = np.random.default_rng([sid, seed])
    n_seg = (n + seg_steps - 1) // seg_steps
    lv = rng.uniform(lo, hi, n_seg)
    if sid == 3 and lv.min() >= S3_FORCE_BELOW:
        lv[rng.integers(n_seg)] = rng.uniform(lo, S3_DIP_MAX)
    true = np.repeat(lv, seg_steps)[:n]
    meas = true * (1.0 + rng.uniform(-noise, noise, n)) if noise else true.copy()
    if not cfg.x_noise:
        return ChannelTrace(true, meas, np.zeros(n))
    rng = np.random.default_rng([X_NOISE_STREAM, sid, seed])
    return ChannelTrace(true, meas, rng.uniform(-cfg.x_noise, cfg.x_noise, n))


@dataclass
class EpisodeLog:
    """Per-step and per-chunk records of one simulated episode.

    The log holds what the episode kernel records and the kernel's inputs
    that the other columns are derived from.  Each array column
    (``LOG_COLUMNS`` and the per-decision ``t_k``, ``R_k``, ``u_k`` and
    ``x_k``) that is not one of these is a ``cached_property``, derived on
    its first read and kept.  The QoE reads the kernel's per-decision records
    and the decision clock ``t_k``, so a batch that writes only the QoE
    derives no per-step column."""
    lists: dict             # the kernel's "x" and "ref" lists, each until converted
    valid: np.ndarray       # bool per step: the estimate's window conditions hold
    R_k: np.ndarray
    u_k: np.ndarray
    x_k: np.ndarray         # the buffer at each decision step
    c_true: np.ndarray
    x_noise: np.ndarray
    w_lin: tuple            # the bandwidth estimate's window weights
    cfg: RunConfig

    # text of the formatted columns, shared by every file written from the log
    _text: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # The derived columns.  A list is dropped once its array exists; an
    # exactly measured buffer (every noise 0.0 or -0.0) is its own x_meas;
    # regime holds from the startup on, and stalled is the rest of that time
    # (in playback and not playing); each estimate used the bitrate held
    # before its step's decision.
    x = cached_property(lambda log: np.array(log.lists.pop("x"), dtype=float))
    ref = cached_property(lambda log: np.array(log.lists.pop("ref"), dtype=float))
    t = cached_property(lambda log: np.arange(len(log.c_true)) * log.cfg.te)
    x_meas = cached_property(lambda log: log.x * (1.0 + log.x_noise) if log.x_noise.any()
                             else log.x)
    R = cached_property(lambda log: np.repeat(log.R_k, log.cfg.decision_steps)[:len(log.c_true)])
    u = cached_property(lambda log: np.repeat(log.u_k, log.cfg.decision_steps)[:len(log.c_true)])
    c_est = cached_property(lambda log: kernels.held_estimates(
        log.x_meas, log.valid, np.concatenate(([log.cfg.ladder[0]], log.R[:-1])), log.w_lin,
        log.cfg.tau))
    regime = cached_property(lambda log: ((log.t >= log.cfg.delta_startup)
                                          & (log.x >= log.cfg.chunk_duration)).astype(np.int8))
    stalled = cached_property(lambda log: (log.t >= log.cfg.delta_startup) - log.regime)
    t_k = cached_property(lambda log: np.arange(0, len(log.c_true), log.cfg.decision_steps)
                          * log.cfg.te)

    def text(self, name: str) -> list:
        """The column ``name`` of ``LOG_COLUMNS`` or ``PLOT_FILES`` as text,
        formatted on first use only, one ``str`` per distinct value
        (``column_text``); the constant stall threshold is formatted once."""
        text = self._text.get(name)
        if text is None:
            if name == "t":
                text = clock_text(len(self.c_true), self.cfg.te)
            elif name == "x_meas" and self.x_meas is self.x:
                text = self.text("x")
            elif name == "regime":
                text = REGIME_LABELS[self.regime].tolist()
            elif name == "stall_threshold":
                text = [FMT % self.cfg.chunk_duration] * len(self.c_true)
            else:
                text = column_text(getattr(self, name))
            self._text[name] = text
        return text

    def to_csv(self, path) -> None:
        write_columns(path, LOG_COLUMNS, [self.text(name) for name in LOG_COLUMNS])


def column_text(column) -> list:
    """The values of a 1-D array as text, each value formatted by ``FMT``
    (an int8 or bool column as its integers).  Bitwise, ``-0.0`` and ``0.0``
    stay apart and NaNs of one payload are equal.

    Equal values share one ``str`` wherever they recur (``c_est`` returns to
    earlier estimates out of order): the runs of equal neighbours are found,
    then their distinct values (``np.unique``) unless a sort shows that every
    value differs, as in a buffer column.  The values are formatted by one
    ``%`` over the template repeated once per value."""
    if len(column) == 0:
        return []
    bits = column.view(f"u{column.itemsize}")
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if len(starts) == len(column) and (np.diff(np.sort(bits)) != 0).all():
        index = None  # every value differs
    else:
        bits, index = np.unique(bits[starts], return_inverse=True)
        index = np.repeat(index, np.diff(starts, append=len(column)))
    values = bits.view(column.dtype).tolist()
    texts = ((FMT + "\n") * len(values) % tuple(values)).split("\n")[:-1]
    return texts if index is None else np.array(texts, dtype=object)[index].tolist()


@lru_cache(maxsize=1)
def clock_text(n: int, te: float) -> list:
    """Text of the clock column ``arange(n) * te``.  Every episode of a run has
    the same clock, so it is formatted once and its text shared."""
    return column_text(np.arange(n) * te)


def write_columns(path, header, columns) -> None:
    """Write equal-length text columns as CSV, with the csv module's \\r\\n
    line endings.  Every CSV file of a run is written here.

    An episode's columns are turned into text once per log (``EpisodeLog.text``
    through ``column_text``: one ``str`` per distinct value of a column)
    and shared by its three files; the QoE and table writers format their few
    values directly.  Rows are joined WRITE_ROWS at a time to bound the memory
    held."""
    rows = map(",".join, zip(*columns))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while block := list(islice(rows, WRITE_ROWS)):
            fh.write("\r\n".join(block) + "\r\n")


def run_episode(trace: ChannelTrace, cfg: RunConfig) -> EpisodeLog:
    """Run one full Te-stepped episode of the config on the trace's random
    inputs (``build_scenario`` draws all of them for a seed) through the fused
    kernel.  The log it returns holds the kernel's records and derives every
    other column on its first read.

    The config needs no check (a ``RunConfig`` is valid by construction);
    the trace does, as no config rule covers it: a trace array shorter than
    the episode, a capacity that is not finite and positive at some step, or
    a buffer-measurement noise that is not finite with magnitude below 1 at
    some step (the bound the config's ``x_noise`` rule promises) is a
    ``ValueError`` that names it.  So is a buffer ``x``, reference ``ref`` or
    correction ``u`` that comes out of the kernel not finite at some step (a
    config whose magnitudes overflow); ``c_est`` is NaN before the first
    estimate by design."""
    n = cfg.n_steps
    for name, column in vars(trace).items():
        if len(column) < n:
            raise ValueError(f"trace {name} has {len(column)} steps, fewer than the episode's {n}")
    n_seg = cfg.steps(cfg.tau)
    c_true = trace.true_capacity[:n]
    c_meas = trace.measured_capacity[:n]
    x_noise = trace.x_noise[:n]
    for name, c in (("true", c_true), ("measured", c_meas)):
        if not ((0.0 < c) & (c < np.inf)).all():  # NaN fails both
            raise ValueError(f"{name} capacity must be finite and positive at every step")
    if not (np.abs(x_noise) < 1.0).all():  # NaN fails it
        raise ValueError("x_noise must be finite with magnitude below 1 at every step")
    w_lin = estimation.linear_kernel_weights(cfg.tau, n_seg)
    w_bump = estimation.bump_kernel_weights(cfg.tau, n_seg)
    x, ref, valid, R_k, u_k, x_k = kernels.episode_loop(
        c_true, c_meas, x_noise, w_lin, w_bump, cfg)
    for name, column, steps_per_value in (("x", x, 1), ("ref", ref, 1),
                                          ("u", u_k.tolist(), cfg.decision_steps)):
        # one pass in C: an inf or a NaN makes the sum non-finite, and so may
        # finite values whose sum overflows, which the search then clears
        if not math.isfinite(sum(column)):
            bad = np.flatnonzero(~np.isfinite(column))
            if len(bad):
                raise ValueError(f"{name} is not finite, first at step {bad[0] * steps_per_value}")
    return EpisodeLog({"x": x, "ref": ref}, valid, R_k, u_k, x_k, c_true, x_noise, w_lin, cfg)
