"""Windowed bandwidth and drift estimators."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abrlab.cli import run_single
from abrlab.config import RunConfig
from abrlab.estimation import bump_kernel_weights, linear_kernel_weights
from abrlab.kernels import bandwidth_from_window, f_from_window, ring_dot

from config_strategies import run_configs

TAU = 1.0
TE = 0.1
N_SEG = 10
W_LIN = linear_kernel_weights(TAU, N_SEG)
W_BUMP = bump_kernel_weights(TAU, N_SEG)


def affine(a, b):
    """Window samples a + b s, oldest first."""
    return a + b * np.arange(N_SEG + 1) * TE


def bandwidth(ys, R):
    return bandwidth_from_window(R, ring_dot(W_LIN, ys, 0), TAU)


def drift(ys, us, alpha):
    return f_from_window(W_LIN, W_BUMP, ys, us, 0, alpha, TAU)


class TestWeights:
    def test_linear_weights_integrate_exactly(self):
        # weights against piecewise-linear samples reproduce the analytic
        # integrals of (tau - 2s) * (a + b s)
        w = linear_kernel_weights(TAU, 10)
        s = np.arange(11) * TE
        for a, b in ((1.0, 0.0), (0.0, 1.0), (2.5, -0.7)):
            got = w @ (a + b * s)
            exact = a * 0.0 + b * (TAU**3 / 2 - 2 * TAU**3 / 3)
            assert got == pytest.approx(exact, abs=1e-14)

    def test_bump_weights_integrate_exactly(self):
        w = bump_kernel_weights(TAU, 10)
        s = np.arange(11) * TE
        for a, b in ((1.0, 0.0), (3.0, 2.0)):
            got = w @ (a + b * s)
            exact = a * TAU**3 / 6 + b * TAU**4 / 12
            assert got == pytest.approx(exact, rel=1e-13)

    def test_weight_sums(self):
        # integral of the kernels themselves (constant signal of ones)
        assert linear_kernel_weights(TAU, 10).sum() == pytest.approx(0.0, abs=1e-14)
        assert bump_kernel_weights(TAU, 10).sum() == pytest.approx(TAU**3 / 6, rel=1e-13)


class TestRingWindow:
    def test_capacity_and_rollover(self):
        # the episode loop writes sample k at k + win - 1 of a history padded
        # with win - 1 zeros, so the window ending at step k starts at index k
        win = N_SEG + 1
        xs = np.concatenate((np.zeros(win - 1), np.arange(15.0)))
        first, last = np.eye(win)[0], np.eye(win)[-1]
        ramp = np.arange(win, dtype=float)
        # mid-episode: the window ending at step 14 holds steps 4..14
        assert ring_dot(first, xs, 14) == 4.0
        assert ring_dot(last, xs, 14) == 14.0
        assert ring_dot(ramp, xs, 14) == pytest.approx(np.arange(win) @ np.arange(4.0, 15.0))
        # warm-up: the window ending at step 5 straddles five pad zeros
        assert ring_dot(first, xs, 5) == 0.0
        assert ring_dot(last, xs, 5) == 5.0
        assert ring_dot(ramp, xs, 5) == pytest.approx(np.arange(5, win) @ np.arange(6.0))

    def test_invalid_params(self):
        for tau, te in ((0.0, TE), (TAU, 0.0), (0.15, 0.1)):
            with pytest.raises(ValueError):
                RunConfig(tau=tau, te=te).validate()
        with pytest.raises(ValueError):
            RunConfig(tau=0.1, te=0.1).validate()  # window shorter than two periods


class TestBandwidth:
    def test_constant_buffer_returns_rate(self):
        assert bandwidth(affine(3.0, 0.0), R=2.0) == pytest.approx(2.0, rel=1e-12)

    def test_affine_buffer_exact(self):
        assert bandwidth(affine(2.0, 0.5), R=2.0) == pytest.approx(3.0, rel=1e-12)

    def test_offset_invariance(self):
        # the kernel annihilates constants: shifting the window does nothing
        a = bandwidth(affine(0.0, 0.3), 1.5)
        b = bandwidth(affine(7.0, 0.3), 1.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_invalid_until_full(self):
        # scenario 1: playback starts at 5 s, so the window conditions first
        # hold at step 61 (t = 6.1 s); the estimate is NaN until then
        log = run_single(RunConfig(), 0)
        assert np.all(np.isnan(log.c_est[:61]))
        assert np.all(np.isfinite(log.c_est[61:]))

    def test_regime_violation_invalidates(self):
        # without a startup delay the time condition holds after one window,
        # but the first estimate still waits for a full window of playback
        # with the measured buffer above the chunk duration
        cfg = RunConfig(delta_startup=0.0, duration=60.0)
        log = run_single(cfg, 0)
        win = N_SEG + 1
        first = int(np.argmax(np.isfinite(log.c_est)))
        ok = (log.regime == 1) & (log.x_meas > cfg.chunk_duration)
        assert first > win
        assert np.all(np.isnan(log.c_est[:first]))
        assert np.all(ok[first - win + 1:first + 1])
        assert not ok[first - win]

    @pytest.mark.parametrize("replan", (False, True), ids=("noreplan", "replan"))
    @pytest.mark.parametrize("scenario", (1, 2, 3))
    def test_noisy_buffer_never_acts_on_non_positive_estimate(self, scenario, replan):
        # 50% buffer-measurement noise drives the window estimate far below
        # zero; the kernel keeps the last positive estimate instead
        cfg = RunConfig(scenario=scenario, replan=replan, x_noise=0.5)
        for seed in range(5):
            log = run_single(cfg, seed)
            assert np.all(np.isnan(log.c_est) | (log.c_est > 0.0)), seed
            for name in ("ref", "u", "x"):
                assert np.all(np.isfinite(getattr(log, name))), (seed, name)

    @settings(max_examples=40, deadline=None)
    @given(cfg=run_configs(), seed=st.integers(0, 1000))
    def test_logged_estimate_is_the_scalar_estimate(self, cfg, seed):
        # c_est is derived after the loop with vector window dots; wherever
        # it takes a new value, that value is positive and bitwise the scalar
        # estimate over the zero-padded measured buffer, with the bitrate
        # held before that step's decision
        log = run_single(cfg, seed)
        n_seg = int(round(cfg.tau / cfg.te))
        w = linear_kernel_weights(cfg.tau, n_seg)
        xs = np.concatenate((np.zeros(n_seg), log.x_meas))
        R_before = np.concatenate(([cfg.ladder[0]], log.R[:-1]))
        prev = np.concatenate(([np.nan], log.c_est[:-1]))
        same = (log.c_est == prev) | (np.isnan(log.c_est) & np.isnan(prev))
        for k in np.nonzero(~same)[0]:
            assert log.c_est[k] > 0.0, k
            dot = ring_dot(w, xs, k)
            assert log.c_est[k] == bandwidth_from_window(R_before[k], dot, cfg.tau), k

    def test_dither_is_attenuated(self):
        # alternating-sign noise of amplitude a shifts the estimate by at
        # most 6 R a / tau (integral filter, not differentiation)
        amp = 0.05
        ys = 3.0 + amp * (-1.0) ** np.arange(N_SEG + 1)
        assert abs(bandwidth(ys, R=2.0) - 2.0) <= 6.0 * 2.0 * amp / TAU + 1e-12


class TestDrift:
    ALPHA = -10.0

    def test_none_until_full(self):
        # with 0.5 s decisions the steps 0 and 5 come before the first full
        # drift window: their correction is zero, the one at step 10 is not
        log = run_single(RunConfig(decision_interval=0.5, duration=20.0), 0)
        assert np.all(log.u[:10] == 0.0)
        assert log.u[10] != 0.0

    def test_zero_signal(self):
        zeros = affine(0.0, 0.0)
        assert drift(zeros, zeros, self.ALPHA) == pytest.approx(0.0, abs=1e-12)

    def test_pure_control_response(self):
        # y driven only by the control: slope alpha*u0, so F comes out zero
        u0 = 0.2
        ys, us = affine(1.0, self.ALPHA * u0), np.full(N_SEG + 1, u0)
        assert drift(ys, us, self.ALPHA) == pytest.approx(0.0, abs=1e-9)

    def test_constant_drift_recovered(self):
        F0, u0 = 1.7, 0.1
        ys, us = affine(0.5, F0 + self.ALPHA * u0), np.full(N_SEG + 1, u0)
        assert drift(ys, us, self.ALPHA) == pytest.approx(F0, rel=1e-9)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            RunConfig(alpha=0.0).validate()
