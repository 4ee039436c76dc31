"""Buffer plant, scenario generators, episode execution and the CSV writer."""
import csv
import io
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from abrlab.cli import _write_plotdata, run_single
from abrlab.config import S3_DIP_MAX, ConfigError, RunConfig
from abrlab.kernels import clock_step
from abrlab.metrics import qoe_report
from abrlab.plant import (FMT, LOG_COLUMNS, S3_FORCE_BELOW, ChannelTrace, build_scenario,
                          column_text, run_episode)

from config_strategies import run_configs

CFG = RunConfig()
# a quiet NaN with another payload than np.nan's: bitwise a different value
OTHER_NAN = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0].item()
DELTA, CHUNK = CFG.delta_startup, CFG.chunk_duration


def scenario(sid, **overrides):
    return RunConfig(scenario=sid, **overrides)


def one_rate(R, C, **overrides):
    """A 20 s episode at the one bitrate R (a one-rung ladder) on the constant
    capacity C (scenario 1): the controller has no choice, so the buffer is
    the plant's alone."""
    return run_single(scenario(1, ladder=[R], c0=C, duration=20.0, **overrides), 0)


class TestParams:
    def test_n_steps(self):
        assert CFG.n_steps == 6000
        assert RunConfig(duration=10.0, te=0.1).n_steps == 100


class TestStep:
    # the plant is the episode loop's explicit-Euler step of the buffer

    def test_startup_fills(self):
        log = one_rate(2.0, 2.0)
        assert log.x[1] == pytest.approx(0.1)
        # filling at C / R until the startup, whatever the buffer
        np.testing.assert_allclose(np.diff(log.x[:51]), 0.1)

    def test_playback_drains(self):
        log = one_rate(2.0, 1.0)
        assert log.x[50] == pytest.approx(2.5)  # the startup step, playing
        assert log.x[51] == pytest.approx(2.45)

    def test_playback_balanced(self):
        log = one_rate(0.7, 0.7)
        assert log.x[50] == pytest.approx(5.0)
        assert np.all(log.x[50:] == log.x[50])

    def test_low_buffer_always_fills(self):
        # below the chunk duration the playout is frozen even after startup
        log = one_rate(2.0, 1.0)
        low = (log.t[:-1] >= DELTA) & (log.x[:-1] < CHUNK)
        assert low.sum() > 10
        np.testing.assert_allclose(np.diff(log.x)[low], 0.05)

    def test_clamped_at_zero(self, monkeypatch):
        # a chunk shorter than te: playback would drain the buffer below empty.
        # a RunConfig refuses a chunk off the te grid, and no valid one-rate
        # episode was found that reaches the clamp, so its check is patched out
        monkeypatch.setattr(RunConfig, "__post_init__", lambda self: None)
        log = one_rate(4.0, 0.1, chunk_duration=0.05, delta_startup=0.0)
        drained = np.flatnonzero(log.regime[:-1] == 1)
        assert len(drained) > 0
        assert np.all(log.x[drained + 1] == 0.0)

    def test_regime_rule_property(self):
        # every step: x + te * (C / R - drain), clamped at empty, draining from
        # the startup on (the clock k * te) while x >= the chunk duration, a
        # whole number of te steps
        rng = np.random.default_rng(3)
        for _ in range(20):
            R, C, delta = (float(rng.uniform(lo, hi)) for lo, hi in
                           ((0.35, 5.0), (0.1, 3.0), (0.0, 10.0)))
            chunk = 0.1 * int(rng.integers(1, 51))
            x = one_rate(R, C, delta_startup=delta, chunk_duration=chunk).x.tolist()
            for k in range(len(x) - 1):
                drain = 1.0 if (k * 0.1 >= delta and x[k] >= chunk) else 0.0
                assert x[k + 1] == max(0.0, x[k] + 0.1 * (C / R - drain)), k


class TestClock:
    def test_first_passing_step(self):
        # the clock test itself, not ceil(x / te): 0.07 / 0.01 rounds up to 8
        assert clock_step(100, lambda k: k * 0.01 >= 0.07) == 7
        assert clock_step(100, lambda k: not k * 0.01 < 0.28) == 28
        assert clock_step(10, lambda k: k * 0.1 >= 5.0) == 10  # never within the episode
        assert clock_step(10, lambda k: k * 0.1 >= np.nan) == 10
        assert clock_step(0, lambda k: True) == 0

    @settings(max_examples=200, deadline=None)
    @given(te=st.floats(1e-3, 1.0), at=st.floats(-1.0, 100.0), n=st.integers(0, 600))
    def test_the_tests_hold_from_one_step_on(self, te, at, n):
        for passes in (lambda k: k * te >= at, lambda k: k * te > at,
                       lambda k: not k * te < at):
            first = clock_step(n, passes)
            assert not any(map(passes, range(first)))
            assert all(map(passes, range(first, n)))


class TestScenarios:
    def test_scenario1_constant(self):
        tr = build_scenario(scenario(1), 0)
        assert np.all(tr.true_capacity == 0.7)
        assert np.array_equal(tr.true_capacity, tr.measured_capacity)
        assert len(tr.true_capacity) == CFG.n_steps

    def test_scenario2_piecewise_constant(self):
        tr = build_scenario(scenario(2), 1)
        seg = int(round(60.0 / CFG.te))
        for i in range(0, CFG.n_steps, seg):
            assert np.all(tr.true_capacity[i:i + seg] == tr.true_capacity[i])
        assert tr.true_capacity.min() >= 0.5 and tr.true_capacity.max() <= 2.5
        rel = tr.measured_capacity / tr.true_capacity - 1.0
        assert np.abs(rel).max() <= 0.2

    def test_scenario3_dips_below_ladder_min(self):
        for seed in range(5):
            tr = build_scenario(scenario(3), seed)
            assert tr.true_capacity.min() < S3_FORCE_BELOW

    def test_determinism(self):
        a = build_scenario(scenario(3), 42)
        b = build_scenario(scenario(3), 42)
        assert np.array_equal(a.true_capacity, b.true_capacity)
        assert np.array_equal(a.measured_capacity, b.measured_capacity)

    def test_seeds_differ(self):
        a = build_scenario(scenario(2), 0)
        b = build_scenario(scenario(2), 1)
        assert not np.array_equal(a.true_capacity, b.true_capacity)

    @pytest.mark.parametrize("sid", (2, 3))
    def test_segment_longer_than_the_episode(self, sid):
        # a segment of the episode's length or longer is one segment; the
        # samples past the episode's end are not built
        def trace(segment):
            return build_scenario(scenario(sid, duration=60.0, **{f"s{sid}_segment": segment}), 0)

        whole = trace(60.0)
        assert trace(1e300).bitwise_equal(whole)
        tracemalloc.start()
        try:
            long = trace(1e5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert long.bitwise_equal(whole) and peak < 2**20

    def test_bitwise_equal(self):
        cfg = scenario(1, duration=20.0)
        a, b = build_scenario(cfg, 0), build_scenario(cfg, 1)
        assert a.bitwise_equal(b) and b.bitwise_equal(a)
        assert not a.bitwise_equal(build_scenario(replace(cfg, x_noise=0.1), 0))
        assert not a.bitwise_equal(build_scenario(replace(cfg, c0=0.8), 0))
        # -0.0 == 0.0 as numbers, but is another input; NaN bits equal themselves
        signed = ChannelTrace(a.true_capacity, a.measured_capacity, -a.x_noise)
        assert np.array_equal(signed.x_noise, a.x_noise) and not a.bitwise_equal(signed)
        nan = np.full(3, np.nan)
        assert ChannelTrace(nan, nan, nan).bitwise_equal(ChannelTrace(nan, nan.copy(), nan))

    @settings(max_examples=150, deadline=None)
    @given(cfg=run_configs(), seed=st.integers(0, 2**32), exact_buffer=st.booleans())
    @example(cfg=scenario(3), seed=0, exact_buffer=True)
    def test_channel_model(self, cfg, seed, exact_buffer):
        # every scenario is piecewise-constant capacity with bounded relative
        # measurement noise; scenario 1 is one segment at c0, measured exactly
        if exact_buffer:
            cfg = replace(cfg, x_noise=0.0)
        tr = build_scenario(cfg, seed)
        true, n = tr.true_capacity, cfg.n_steps
        assert len(true) == len(tr.measured_capacity) == len(tr.x_noise) == n
        if cfg.scenario == 1:
            assert np.all(true.view(np.int64) == np.float64(cfg.c0).view(np.int64))
            np.testing.assert_array_equal(tr.measured_capacity.view(np.int64),
                                          true.view(np.int64))
        else:
            seg, lo, hi, noise = (getattr(cfg, f"s{cfg.scenario}_{name}")
                                  for name in ("segment", "level_lo", "level_hi", "noise"))
            seg = cfg.steps(seg)
            levels = true[::seg]
            np.testing.assert_array_equal(true, np.repeat(levels, seg)[:n])
            assert np.all((lo <= levels) & (levels <= hi))
            rel = tr.measured_capacity / true - 1.0
            assert np.abs(rel).max() <= noise + 1e-12
        if cfg.scenario == 3:
            assert true.min() < S3_FORCE_BELOW
            # the levels as first drawn; at most one is redrawn as the dip
            drawn = np.random.default_rng([3, seed]).uniform(lo, hi, len(levels))
            dip = levels != drawn
            if drawn.min() >= S3_FORCE_BELOW:
                assert dip.sum() == 1 and lo <= levels[dip][0] <= S3_DIP_MAX
            else:
                assert not dip.any()
        assert np.abs(tr.x_noise).max() <= cfg.x_noise
        if cfg.x_noise == 0.0:
            assert np.all(tr.x_noise.view(np.int64) == 0)  # +0.0, bitwise

    @pytest.mark.parametrize("sid", (1, 2, 3))
    def test_signed_zero_noise(self, sid):
        # a noise width of -0.0 is valid and, like 0.0, measures exactly
        zero = build_scenario(scenario(sid, x_noise=0.0, s2_noise=0.0, s3_noise=0.0), 7)
        signed = build_scenario(scenario(sid, x_noise=-0.0, s2_noise=-0.0, s3_noise=-0.0), 7)
        assert signed.bitwise_equal(zero)
        np.testing.assert_array_equal(zero.measured_capacity.view(np.int64),
                                      zero.true_capacity.view(np.int64))
        assert np.all(zero.x_noise.view(np.int64) == 0)  # +0.0, bitwise


class TestEpisode:
    def test_shapes_and_grids(self):
        log = run_episode(build_scenario(CFG, 0), CFG)
        n = CFG.n_steps
        assert len(log.t) == len(log.x) == len(log.R) == n
        np.testing.assert_allclose(np.diff(log.t), CFG.te)
        assert len(log.R_k) == 300
        np.testing.assert_allclose(np.diff(log.t_k), 2.0)
        # bitrate only changes on the chunk grid
        ch = np.nonzero(np.diff(log.R))[0] + 1
        assert np.all(ch % 20 == 0)

    def test_chunk_rates_on_ladder(self):
        cfg = scenario(2, replan=True)
        log = run_episode(build_scenario(cfg, 3), cfg)
        assert set(np.unique(log.R_k)) <= {0.35, 0.6, 1.0, 2.0, 3.0, 5.0}

    def test_determinism(self):
        cfg = scenario(3, replan=True, x_noise=0.05)
        a = run_episode(build_scenario(cfg, 5), cfg)
        b = run_episode(build_scenario(cfg, 5), cfg)
        for name in ("x", "x_meas", "R", "c_est", "u", "ref", "R_k", "x_k"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_startup_regime(self):
        log = run_episode(build_scenario(CFG, 0), CFG)
        assert np.all(log.regime[:50] == 0)   # filling until delta_startup
        assert np.all(log.stalled[:50] == 0)

    def test_regime_and_stall_rule(self):
        # after startup: playing at or above the chunk duration, stalled below
        cfg = scenario(3)
        log = run_episode(build_scenario(cfg, 0), cfg)
        live = log.t >= cfg.delta_startup
        np.testing.assert_array_equal(log.regime == 1, live & (log.x >= CHUNK))
        np.testing.assert_array_equal(log.stalled == 1, live & (log.x < CHUNK))
        assert log.stalled.sum() > 0

    @settings(max_examples=40, deadline=None)
    @given(cfg=run_configs(), seed=st.integers(0, 1000))
    # the kernel's capacity runs: one run per step, and a run that ends
    # inside a decision interval
    @example(cfg=RunConfig(scenario=2, s2_segment=0.1, duration=60.0), seed=0)
    @example(cfg=RunConfig(scenario=2, replan=True, s2_segment=0.1, duration=60.0), seed=0)
    @example(cfg=RunConfig(scenario=3, s3_segment=0.1, duration=60.0), seed=0)
    @example(cfg=RunConfig(scenario=3, replan=True, s3_segment=0.1, duration=60.0), seed=0)
    @example(cfg=RunConfig(scenario=3, replan=True, s3_segment=2.7, duration=60.0), seed=0)
    def test_buffer_steps_by_the_logged_regime(self, cfg, seed):
        # each step drains at the playback rate exactly where the log says
        # playing, and the buffer is clamped at empty
        log = run_single(cfg, seed)
        xn = log.x[:-1] + cfg.te * (log.c_true[:-1] / log.R[:-1] - log.regime[:-1])
        np.testing.assert_array_equal(log.x[1:], np.where(xn < 0, 0.0, xn))

    def test_short_trace_rejected(self):
        tr = build_scenario(RunConfig(duration=10.0), 0)
        with pytest.raises(ValueError):
            run_episode(tr, CFG)

    @pytest.mark.parametrize("field", ("true_capacity", "measured_capacity", "x_noise"))
    def test_short_trace_array_rejected(self, field):
        cfg = scenario(2, duration=60.0)
        tr = build_scenario(cfg, 0)
        tr = replace(tr, **{field: getattr(tr, field)[:-5]})
        with pytest.raises(ValueError, match=f"^trace {field} has 595 steps, fewer than the"
                                             " episode's 600$"):
            run_episode(tr, cfg)

    @pytest.mark.parametrize("bad", (1.0, -1.0, np.nan, np.inf, "all nan"))
    def test_buffer_noise_not_below_one_rejected(self, bad):
        # the config rule x_noise < 1 bounds every step's noise below 1 in
        # magnitude, so a measured buffer is never zero or below
        cfg = scenario(2, duration=60.0, x_noise=0.2)
        tr = build_scenario(cfg, 0)
        if bad == "all nan":
            tr.x_noise[:] = np.nan
        else:
            tr.x_noise[57] = bad
        with pytest.raises(ValueError, match="^x_noise must be finite with magnitude below 1"):
            run_episode(tr, cfg)

    @pytest.mark.parametrize("field", ("true_capacity", "measured_capacity"))
    @pytest.mark.parametrize("bad", (0.0, -0.5, np.nan, np.inf))
    def test_capacity_not_finite_and_positive_rejected(self, field, bad):
        cfg = scenario(2, duration=20.0)
        tr = build_scenario(cfg, 0)
        getattr(tr, field)[57] = bad
        name = field.split("_")[0]
        with pytest.raises(ValueError, match=f"{name} capacity must be finite and positive"):
            run_episode(tr, cfg)

    @pytest.mark.parametrize("sid", (1, 2, 3))
    @pytest.mark.parametrize("te", (0.0, -0.1, np.nan, np.inf, -np.inf))
    def test_te_not_finite_and_positive_rejected(self, sid, te):
        # the config is refused when it is made, so no entry point sees it
        with pytest.raises(ConfigError, match="^te: must be (finite|positive)"):
            scenario(sid, duration=20.0, te=te)

    def test_qoe_report_derives_only_the_decision_clock_and_buffer(self):
        # all that a qoe,table batch reads: it converts neither kernel list
        # and derives no per-step column
        cfg = scenario(2, replan=True, duration=60.0)
        log = run_single(cfg, 0)
        qoe_report(log, 0)
        derived = {*LOG_COLUMNS, "t_k", "x_k"} - {"c_true"}
        assert derived & set(vars(log)) == {"t_k", "x_k"}
        assert set(log.lists) == {"x", "ref"}

    def test_noise_free_x_meas_shares_the_text_of_x(self):
        # zero noise (0.0 or -0.0 per step) leaves x_meas bitwise x, so it is
        # x, and its text is x's; with noise both are x_meas's own
        cfg = scenario(2, duration=60.0)
        for signed in (slice(None, None, 2), slice(None)):  # every other step, every step
            trace = build_scenario(cfg, 0)
            trace.x_noise[signed] = -0.0
            log = run_episode(trace, cfg)
            assert log.x_meas is log.x
            assert log.text("x_meas") is log.text("x")
            assert log.text("x_meas") == [FMT % v for v in log.x_meas.tolist()]
        noisy = run_single(replace(cfg, x_noise=0.05), 0)
        assert noisy.x_meas is not noisy.x
        assert noisy.text("x_meas") == [FMT % v for v in noisy.x_meas.tolist()]
        assert noisy.text("x_meas") != noisy.text("x")

    @settings(max_examples=40, deadline=None)
    @given(cfg=run_configs(), seed=st.integers(0, 1000))
    @example(cfg=scenario(1), seed=0)
    @example(cfg=scenario(1, replan=True), seed=0)
    @example(cfg=scenario(2), seed=0)
    @example(cfg=scenario(2, replan=True), seed=0)
    @example(cfg=scenario(3), seed=0)
    @example(cfg=scenario(3, replan=True), seed=0)
    # the buffer lands exactly on the chunk duration at an interval's end,
    # where the steady-interval path must hand over to the step loop
    @example(cfg=scenario(1, ladder=[1.0], c0=0.5, te=0.125, delta_startup=6.0,
                          duration=60.0), seed=0)
    @example(cfg=scenario(1, ladder=[1.0], c0=0.5, te=0.125, delta_startup=6.0,
                          duration=60.0, replan=True), seed=0)
    def test_exact_and_noisy_buffer_paths_agree(self, cfg, seed):
        # the kernel stores an exactly measured buffer once and a noisy one
        # beside its measurement, and advances a steady interval of an exact
        # buffer as one running sum; a noisy one runs the step loop.  Noise
        # of 1e-300 takes the noisy path, yet every gain 1 + noise rounds to
        # 1.0, and the noise has its own random stream: every array and every
        # text is the exact run's, bitwise
        exact = run_single(replace(cfg, x_noise=0.0), seed)
        noisy = run_single(replace(cfg, x_noise=1e-300), seed)
        assert noisy.x_noise.any() and not exact.x_noise.any()
        for name in LOG_COLUMNS + ("t_k", "R_k", "x_k", "u_k", "valid"):
            a, b = getattr(exact, name), getattr(noisy, name)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
        for name in LOG_COLUMNS:
            assert exact.text(name) == noisy.text(name), name

    def test_clock_text_shared(self):
        cfg = RunConfig(duration=20.0, te=0.05)
        a, b = (run_episode(build_scenario(cfg, seed), cfg) for seed in (0, 1))
        assert a.text("t") is b.text("t")
        assert a.text("t") == column_text(a.t)

    def test_episode_csv(self, tmp_path):
        cfg = RunConfig(duration=20.0)
        log = run_episode(build_scenario(cfg, 0), cfg)
        path = tmp_path / "episode.csv"
        log.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,x_meas,R,c_true,c_est,u,ref,regime,stalled"
        assert len(lines) == 201


class TestCsv:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.sampled_from([0.0, -0.0, 1.5, np.nan, np.inf, -np.inf])
                           | st.floats(), max_size=40))
    @example(values=[0.0, -0.0, -0.0, 0.0])
    @example(values=[np.nan, np.nan, np.nan, 0.25, 0.25])  # c_est before its first estimate
    @example(values=[np.inf, -np.inf, -np.inf, np.inf])
    @example(values=[2.5])
    def test_column_text_formats_every_value(self, values):
        column = np.array(values, dtype=np.float64)
        assert column_text(column) == [FMT % v for v in values]

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.sampled_from([0.0, -0.0, 0.1, 1.5, np.nan, OTHER_NAN, np.inf,
                                            -np.inf, 5e-324, -5e-324, 2.2250738585072e-308])
                           | st.floats(), max_size=60))
    @example(values=[1.5, 0.0, 1.5, -0.0, 1.5, 0.0])  # recurring, never neighbours
    @example(values=[np.nan, 0.25, 0.25, np.nan, OTHER_NAN, 0.25])
    @example(values=[5e-324, -5e-324, 5e-324, np.inf, -np.inf, np.inf])
    def test_column_text_shares_one_text_per_distinct_value(self, values):
        # c_est returns to earlier estimates out of order: equal bits anywhere
        # in the column share one str, and each text is the value's own
        column = np.array(values, dtype=np.float64)
        held = column_text(column)
        assert held == [FMT % v for v in column.tolist()]
        first = {}
        for b, text in zip(column.view(np.uint64).tolist(), held):
            assert first.setdefault(b, text) is text

    def test_column_text_int_bool_and_object_columns(self):
        # int8 and bool columns (the stalled column) are their integers' text
        assert (column_text(np.array([0, 0, 1, 1, 0], dtype=np.int8))
                == ["0", "0", "1", "1", "0"])
        assert column_text(np.array([True, True, False])) == ["1", "1", "0"]
        assert column_text(np.array([], dtype=np.float64)) == []

    @settings(max_examples=40, deadline=None)
    @given(cfg=run_configs(), seed=st.integers(0, 1000))
    @example(cfg=RunConfig(scenario=3, replan=True, duration=40.0), seed=0)
    @example(cfg=RunConfig(scenario=2, replan=True, x_noise=0.1, duration=40.0), seed=0)
    # c_est returns to earlier values out of order: 4,968 runs, 1,220 distinct
    @example(cfg=RunConfig(scenario=3, replan=True, duration=600.0), seed=0)
    def test_per_step_files_match_the_csv_module(self, cfg, seed):
        """episode_*.csv, capacity_*.csv and buffer_*.csv are byte for byte
        what the csv module writes for the log's values, each float as FMT
        text."""
        log = run_single(cfg, seed)

        def oracle(header, *columns):
            buf = io.StringIO()
            w = csv.writer(buf)
            w.writerow(header)
            w.writerows(zip(*columns))
            return buf.getvalue().encode()

        def text(a):
            return [FMT % v for v in a.tolist()]

        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            log.to_csv(out / "episode.csv")
            _write_plotdata(log, out / "capacity_k.csv", out / "buffer_k.csv")
            assert (out / "episode.csv").read_bytes() == oracle(
                ["t", "x", "x_meas", "R", "c_true", "c_est", "u", "ref", "regime", "stalled"],
                text(log.t), text(log.x), text(log.x_meas), text(log.R), text(log.c_true),
                text(log.c_est), text(log.u), text(log.ref),
                ["playing" if r else "filling" for r in log.regime.tolist()],
                log.stalled.tolist())
            assert (out / "capacity_k.csv").read_bytes() == oracle(
                ["t", "c_true", "c_est"], text(log.t), text(log.c_true), text(log.c_est))
            assert (out / "buffer_k.csv").read_bytes() == oracle(
                ["t", "x", "ref", "stall_threshold"], text(log.t), text(log.x), text(log.ref),
                [FMT % cfg.chunk_duration] * len(log.t))
