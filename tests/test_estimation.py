"""Windowed bandwidth and drift estimators."""
import numpy as np
import pytest

from abrlab.cli import run_single
from abrlab.config import RunConfig
from abrlab.estimation import bump_kernel_weights, linear_kernel_weights
from abrlab.kernels import bandwidth_from_window, f_from_window, ring_dot

TAU = 1.0
TE = 0.1
N_SEG = 10
W_LIN = linear_kernel_weights(TAU, N_SEG)
W_BUMP = bump_kernel_weights(TAU, N_SEG)


def affine(a, b):
    """Window samples a + b s, oldest first."""
    return a + b * np.arange(N_SEG + 1) * TE


def bandwidth(ys, R):
    return bandwidth_from_window(R, W_LIN, ys, 0, TAU)


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
        # the episode loop writes sample k at k % win and reads oldest-first
        # from (k + 1) % win
        win = N_SEG + 1
        ring = np.zeros(win)
        for k in range(15):
            ring[k % win] = float(k)
        start = (14 + 1) % win
        first, last = np.eye(win)[0], np.eye(win)[-1]
        assert ring_dot(first, ring, start) == 4.0
        assert ring_dot(last, ring, start) == 14.0
        assert ring_dot(np.arange(win, dtype=float), ring, start) == \
            pytest.approx(np.arange(win) @ np.arange(4.0, 15.0))

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
