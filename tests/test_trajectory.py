"""Reference trajectory: ramp profile and replanned correction."""
from dataclasses import replace
from math import inf, ulp

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from abrlab.cli import run_single
from abrlab.config import RAMP_PEAK_SLOPE, RunConfig
from abrlab.kernels import bezier_derivative, bezier_eval, feedforward, replan_rung

from config_strategies import run_configs

PROFILE = (0.0, 10.0, 0.0, 4.0)   # t0, tf, x0, xf
LADDER = np.array(RunConfig().ladder)
TE = 0.1
RISE, FALL = 0.7 / 0.6 - 1.0, 0.7 / 1.0 - 1.0   # replan rates at c = 0.7
# largest |p''| of the unit ramp p, |280 T^2 (1 - T)^3 (3 - 7 T)|, 9.40326 at
# T = 0.2265, rounded up
P2 = 9.4033


def ev(t, profile=PROFILE):
    return bezier_eval(t, *profile)


def der(t, profile=PROFILE):
    return bezier_derivative(t, *profile)


def replan_episode(seed=0):
    """Scenario 1 with replanning: the log and its per-step correction change."""
    log = run_single(RunConfig(replan=True), seed)
    base = np.array([ev(t) for t in log.t])
    return log, np.diff(log.ref - base)


@st.composite
def playing_ramps(draw):
    """A config ``RunConfig`` accepts with playback from t = 0 and a ramp that
    stays at least one second above the chunk duration, run past its end."""
    te = draw(st.sampled_from((0.1, 0.05, 0.01)))
    t0 = draw(st.floats(0.0, 20.0))
    tf = t0 + draw(st.floats(0.5, 40.0))
    floor = RunConfig().chunk_duration + 1.0
    xf = draw(st.floats(floor, 60.0))
    # a falling ramp falls less than its span over RAMP_PEAK_SLOPE
    x0 = draw(st.floats(floor, min(60.0, xf + 0.99 * (tf - t0) / RAMP_PEAK_SLOPE)))
    return RunConfig(te=te, t0=t0, tf=tf, x0=x0, xf=xf, delta_startup=0.0,
                     duration=tf + draw(st.floats(2.5, 10.0)))


class TestProfile:
    def test_endpoints_exact(self):
        assert ev(0.0) == 0.0
        assert ev(10.0) == 4.0

    def test_clamped_outside(self):
        assert ev(-3.0) == 0.0
        assert ev(25.0) == 4.0

    def test_midpoint_value(self):
        assert ev(5.0) == pytest.approx(2.546875, abs=1e-12)

    def test_midpoint_derivatives(self):
        assert der(5.0) == pytest.approx(0.875, abs=1e-12)

    def test_derivatives_vanish_at_ends(self):
        assert der(0.0) == 0.0
        assert der(10.0) == 0.0
        # continuous approach from inside (the slope vanishes like T^3)
        assert abs(der(1e-6)) < 1e-5
        assert abs(der(10.0 - 1e-6)) < 1e-5
        # the first three derivatives vanish at both ends, so the profile
        # leaves each end at fourth order or higher: halving the distance
        # divides the deviation by about 2^4 or more
        t0, tf, x0, xf = PROFILE
        for h in (0.02 * (tf - t0), 0.01 * (tf - t0)):
            assert abs(ev(t0 + h) - x0) >= 15.0 * abs(ev(t0 + h / 2) - x0) > 0.0
            assert abs(ev(tf - h) - xf) >= 15.0 * abs(ev(tf - h / 2) - xf) > 0.0

    def test_monotone_ramp(self):
        ts = np.linspace(0.0, 10.0, 501)
        xs = np.array([ev(t) for t in ts])
        assert np.all(np.diff(xs) >= 0.0)
        assert np.all(xs >= 0.0) and np.all(xs <= 4.0)

    def test_scaling_and_offset(self):
        # same shape as the unit ramp, scaled and shifted
        base = ev(5.0) / 4.0
        assert ev(4.0, (2.0, 6.0, 1.0, 9.0)) == pytest.approx(1.0 + 8.0 * base, rel=1e-12)

    def test_finite_difference_cross_check(self):
        for t in (2.3, 5.0, 7.9):
            exact = der(t)
            for h in (1e-3, 1e-4):
                fd = (ev(t + h) - ev(t - h)) / (2 * h)
                assert fd == pytest.approx(exact, abs=5.0 * h * h)

    # 100 examples of at most 7,000 steps each, about 0.3 s in all
    @settings(max_examples=100, deadline=None)
    @given(cfg=playing_ramps(), c=st.floats(0.1, 10.0))
    def test_flat_open_loop_follows_the_ramp(self, cfg, c):
        # the paper's flat open loop: at the unquantized rate the inversion
        # asks for, the Euler plant at capacity c plays throughout and tracks
        # the ramp p to first order in te.  The plant steps x' = p'(t), so its
        # error is at most te * max|p''| * (tf - t0) / 2, plus one rounding of
        # x per step
        te, ramp = cfg.te, (cfg.t0, cfg.tf, cfg.x0, cfg.xf)
        bound = te * abs(cfg.xf - cfg.x0) / (cfg.tf - cfg.t0) * P2 / 2
        rounding = ulp(2.0 * max(cfg.x0, cfg.xf))
        x = cfg.x0
        for k in range(cfg.n_steps):
            t = k * te
            assert abs(x - bezier_eval(t, *ramp)) <= bound + k * rounding
            assert t >= cfg.delta_startup and x >= cfg.chunk_duration  # playing
            x += te * (c / feedforward(c, bezier_derivative(t, *ramp)) - 1.0)


def rung(c, dirn, ladder=LADDER):
    return replan_rung(c, dirn, ladder)[0]


class TestReplan:
    def test_increment_above_coef(self):
        assert rung(0.7, 1) == 0.6

    def test_increment_zero_at_ladder_floor(self):
        # estimate at the smallest rate: coef clamps there, no accumulation
        assert rung(0.35, 1) == 0.35

    def test_direction_flips(self):
        assert rung(0.7, -1) == 1.0  # smallest element above the estimate
        # the episode runs both directions: rising below the band's top,
        # falling after it was crossed
        _, d = replan_episode()
        assert np.any(np.abs(d - TE * RISE) < 1e-9)
        assert np.any(np.abs(d - TE * FALL) < 1e-9)

    def test_no_flip_inside_band(self):
        # the direction turns down only above replan_upper and up only below
        # replan_lower
        log, d = replan_episode()
        rising = np.abs(d - TE * RISE) < 1e-9
        falling = np.abs(d - TE * FALL) < 1e-9
        cfg = RunConfig()
        down = np.nonzero(rising[:-1] & falling[1:])[0] + 2
        up = np.nonzero(falling[:-1] & rising[1:])[0] + 2
        assert down.size > 0 and up.size > 0
        assert np.all(log.x_meas[down] > cfg.replan_upper)
        assert np.all(log.x_meas[up] < cfg.replan_lower)

    def test_coef_clamps_at_extremes(self):
        assert rung(0.2, 1) == 0.35
        assert rung(9.0, -1) == 5.0

    @given(ladder=st.lists(st.floats(0.1, 6.0), min_size=1, max_size=6, unique=True),
           dirn=st.sampled_from((1, -1)), data=st.data())
    def test_rung_interval(self, ladder, dirn, data):
        ladder = sorted(ladder)
        c = data.draw(st.floats(0.0, 8.0) | st.sampled_from(ladder))
        coef, lo, hi = replan_rung(c, dirn, ladder)
        # going up the largest rung strictly below c, else the bottom one;
        # going down the smallest strictly above, else the top one
        if dirn == 1:
            assert coef == max((r for r in ladder if r < c), default=ladder[0])
        else:
            assert coef == min((r for r in ladder if r > c), default=ladder[-1])
        # the adjacent rungs around c, unbounded past either end; on a rung, c is hi
        assert lo < c <= hi
        assert {lo, hi} <= {*ladder, -inf, inf}
        assert not any(lo < r < hi for r in ladder)
        # the episode loop keeps its rung while the read stays strictly inside
        inside = [float(p) for p in (c, np.nextafter(lo, hi), np.nextafter(hi, lo), (lo + hi) / 2)
                  if lo < p < hi]
        assert len({replan_rung(p, dirn, ladder)[0] for p in inside}) <= 1

    def test_accumulation_telescopes(self):
        # after the ramp, each step moves the correction by Te (c/coef - 1)
        # for the coef of the current direction; the only other moves are
        # the restarts at the buffer
        for seed in (0, 1):
            log, d = replan_episode(seed)
            d = d[log.t[1:] > 12.0]
            rising = np.abs(d - TE * RISE) < 1e-9
            falling = np.abs(d - TE * FALL) < 1e-9
            restarts = np.abs(d) > 1.9
            assert (rising.sum(), falling.sum(), restarts.sum()) == (3970, 1905, 4)
            assert np.all(rising | falling | restarts)


class TestReferenceAt:
    def test_replan_off_matches_profile(self):
        log = run_single(RunConfig(duration=30.0), 0)
        assert log.ref[50] == pytest.approx(2.546875, abs=1e-12)
        np.testing.assert_array_equal(log.ref, [ev(t) for t in log.t])

    # 41 examples of at most 1,200 steps each, about 0.4 s in all
    @settings(max_examples=40, deadline=None)
    @given(cfg=run_configs(), seed=st.integers(0, 1000))
    @example(cfg=RunConfig(scenario=2, x0=-0.0, xf=-0.0, t0=3.0, tf=7.3, duration=20.0), seed=0)
    def test_replan_off_is_the_ramp(self, cfg, seed):
        # without replanning the reference at step k is the ramp at k * te
        # plus 0.0, bitwise, so a -0.0 level is recorded as +0.0: the episode
        # loop writes it before it runs
        cfg = replace(cfg, replan=False)
        ramp = [bezier_eval(k * cfg.te, cfg.t0, cfg.tf, cfg.x0, cfg.xf) + 0.0
                for k in range(cfg.n_steps)]
        np.testing.assert_array_equal(run_single(cfg, seed).ref.view(np.uint64),
                                      np.array(ramp).view(np.uint64))

    def test_replan_on_adds_correction(self):
        log, d = replan_episode()
        assert log.ref[-1] != ev(log.t[-1])
        assert np.abs(d).max() > 0.0

    def test_start_of_episode(self):
        assert run_single(RunConfig(replan=True, duration=10.0), 0).ref[0] == 0.0
