"""Feedforward, iP feedback, quantization and the decision pipeline."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from abrlab import kernels
from abrlab.cli import run_single
from abrlab.config import RunConfig
from abrlab.kernels import feedforward, ip_control, quantize

CFG = RunConfig()
LADDER = np.array(CFG.ladder)
ALPHA, KP = CFG.alpha, CFG.kp


class TestLadder:
    def test_defaults(self):
        assert CFG.ladder == [0.35, 0.6, 1.0, 2.0, 3.0, 5.0]
        assert np.diff(LADDER).max() == 2.0

    def test_single_rate(self):
        cfg = RunConfig(ladder=[1.0], duration=20.0)
        assert np.all(run_single(cfg, 0).R == 1.0)


class TestConfig:
    def test_defaults(self):
        assert CFG.alpha == -10.0 and CFG.kp == 0.25
        assert CFG.decision_interval == 2.0 and CFG.tau == 1.0


class TestFeedforward:
    def test_plateau(self):
        assert feedforward(0.7, 0.0) == pytest.approx(0.7, abs=1e-15)

    def test_climbing_reference_needs_margin(self):
        assert feedforward(2.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_draining_reference(self):
        assert feedforward(1.0, -0.5) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("scenario,seed", ((2, 4), (3, 1), (3, 2)))
    def test_reference_draining_as_fast_as_playback(self, scenario, seed, monkeypatch):
        # the ramp falls slower than playback drains, as RunConfig requires,
        # but the replanning term drains further: at some decisions the
        # combined slope is <= -1, where the inversion's limit is the top rung
        cfg = RunConfig(scenario=scenario, replan=True, x0=30.0, xf=0.0, tf=75.0,
                        delta_startup=0.0)
        slopes, inverted = [], []

        def spy_ip(f_est, ref_rate, e, alpha, kp):
            slopes.append(ref_rate)
            return ip_control(f_est, ref_rate, e, alpha, kp)

        def spy_ff(c_nominal, ref_slope):
            inverted.append(ref_slope)
            return feedforward(c_nominal, ref_slope)

        monkeypatch.setattr(kernels, "ip_control", spy_ip)
        monkeypatch.setattr(kernels, "feedforward", spy_ff)
        log = run_single(cfg, seed)
        # ip_control runs at every decision after the drift window's warm-up
        win = int(round(cfg.tau / cfg.te)) + 1
        ratio = int(round(cfg.decision_interval / cfg.te))
        warm_up = -(-(win - 1) // ratio)
        steep = warm_up + np.nonzero(np.array(slopes) <= -1.0)[0]
        assert len(steep) > 0
        assert min(inverted) > -1.0
        assert np.all(log.R_k[steep] == cfg.ladder[-1])
        assert len(inverted) == len(log.R_k) - len(steep)


class TestIpControl:
    def test_zero_everything(self):
        assert ip_control(0.0, 0.0, 0.0, ALPHA, KP) == 0.0

    def test_proportional_term(self):
        assert ip_control(0.0, 0.0, 1.0, ALPHA, KP) == pytest.approx(0.025, abs=1e-15)

    def test_drift_cancellation(self):
        # u absorbs F_est / alpha so the closed loop sees only -kp * e
        assert ip_control(2.0, 0.5, 0.0, ALPHA, KP) == pytest.approx(-(2.0 - 0.5) / -10.0)

    def test_error_sign_convention(self):
        # positive error (buffer above reference) pushes the correction up,
        # requesting a higher bitrate, draining the buffer faster
        assert ip_control(0.0, 0.0, 1.0, ALPHA, KP) > 0.0
        assert ip_control(0.0, 0.0, -1.0, ALPHA, KP) < 0.0


class TestQuantize:
    def test_nearest(self):
        assert quantize(0.7, LADDER) == 0.6
        assert quantize(0.7, LADDER) - 0.7 == pytest.approx(-0.1)
        assert quantize(2.6, LADDER) == 3.0
        assert quantize(2.6, LADDER) - 2.6 == pytest.approx(0.4)

    def test_tie_breaks_low(self):
        assert quantize(0.8, LADDER) == 0.6
        assert quantize(2.5, LADDER) == 2.0

    def test_exact_hit(self):
        R = quantize(2.0, LADDER)
        assert R == 2.0 and R - 2.0 == 0.0

    def test_idempotent(self):
        for r in LADDER:
            assert quantize(r, LADDER) == r

    def test_clamps_out_of_range(self):
        assert quantize(0.01, LADDER) == 0.35
        assert quantize(99.0, LADDER) == 5.0
        # from about 5e12 on the relative tie tolerance exceeds the ladder's span
        for r in (5e12, 1e300, math.inf):
            assert quantize(r, LADDER) == 5.0
        assert quantize(math.nan, LADDER) == quantize(-math.inf, LADDER) == 0.35

    def test_residual_bounded_in_range(self):
        rng = np.random.default_rng(7)
        for r in rng.uniform(0.35, 5.0, 200):
            eps = quantize(float(r), LADDER) - float(r)
            assert abs(eps) <= np.diff(LADDER).max() / 2 + 1e-12

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_equals_linear_scan(self, data):
        ladder = sorted(data.draw(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=8,
                                           unique=True)))
        top = ladder[-1]
        mids = [(a + b) / 2 for a, b in zip(ladder, ladder[1:])]
        near = st.sampled_from(ladder + mids)
        ulps = st.integers(-4, 4)
        r = data.draw(st.builds(_ulps_away, near, ulps) | st.floats(-1.0, 2.0 * top))
        assume(all(b - a > _tie_tol(r) for a, b in zip(ladder, ladder[1:])))
        assert quantize(r, ladder) == _scan_quantize(r, ladder)


def _tie_tol(r):
    return 1e-12 * (1.0 + abs(r))


def _ulps_away(x, k):
    """The float k ulps above x (below for negative k)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _scan_quantize(r, ladder):
    """The nearest rung by a linear scan, ties toward the lower rate: the
    reference for ``quantize`` on ladders whose rungs lie more than the tie
    tolerance apart, below twice the top rung."""
    best = 0
    best_d = abs(ladder[0] - r)
    tol = _tie_tol(r)
    for i in range(1, len(ladder)):
        d = abs(ladder[i] - r)
        if d < best_d - tol:
            best_d = d
            best = i
    return ladder[best]


def _decide(x_meas, ref, f_est=0.0, c_nominal=0.7):
    """One chunk decision as the episode loop composes it: (R, u)."""
    u = ip_control(f_est, 0.0, x_meas - ref, ALPHA, KP)
    return quantize(feedforward(c_nominal, 0.0) + u, LADDER), u


class TestDecide:
    def test_cadence_hold(self):
        # with a 1 s decision interval the bitrate only moves every 10 steps
        cfg = RunConfig(scenario=2, decision_interval=1.0, duration=120.0)
        log = run_single(cfg, 0)
        changes = np.nonzero(np.diff(log.R))[0] + 1
        assert changes.size > 0 and np.all(changes % 10 == 0)
        assert len(log.R_k) == 120

    def test_huge_gain_reaches_top_rung(self):
        # at kp 1e6, the largest valid gain, almost every request after the
        # warm-up lies far outside the ladder, below or above it: each gets
        # the bottom or the top rung
        log = run_single(RunConfig(kp=1e6, duration=120.0), 0)
        assert 5.0 in log.R_k and 0.35 in log.R_k

    def test_warm_up_is_pure_feedforward(self):
        log = run_single(RunConfig(), 0)
        assert log.u[0] == 0.0
        assert log.R_k[0] == 0.6  # quantized feedforward 0.7

    def test_tracking_at_plateau(self):
        assert _decide(4.0, 4.0) == (0.6, 0.0)

    def test_error_raises_continuous_rate(self):
        R_hi, u_hi = _decide(5.0, 4.0)
        R_lo, u_lo = _decide(3.0, 4.0)
        assert u_hi == pytest.approx(0.025)
        assert u_lo == pytest.approx(-0.025)
        assert R_hi == R_lo == 0.6
