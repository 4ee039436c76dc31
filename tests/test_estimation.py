"""Windowed bandwidth and drift estimators."""
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from abrlab import estimation
from abrlab.cli import run_single
from abrlab.config import RunConfig, parse_config
from abrlab.estimation import _pl_weights, bump_kernel_weights, linear_kernel_weights
from abrlab.kernels import BLOCK_TERMS, bandwidth_from_window, f_from_window, window_dot

from config_strategies import run_configs

TAU = 1.0
TE = 0.1
N_SEG = 10
LIN_DOT = window_dot(linear_kernel_weights(TAU, N_SEG), 1)
BUMP_DOT = window_dot(bump_kernel_weights(TAU, N_SEG), 1)


def affine(a, b):
    """Window samples a + b s, oldest first."""
    return a + b * np.arange(N_SEG + 1) * TE


def bandwidth(ys, R):
    return bandwidth_from_window(R, LIN_DOT(ys, 0)[0], TAU)


def drift(ys, us, alpha):
    return f_from_window(LIN_DOT(ys, 0)[0], BUMP_DOT(us, 0)[0], alpha, TAU)


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
        assert math.fsum(linear_kernel_weights(TAU, 10)) == pytest.approx(0.0, abs=1e-14)
        assert math.fsum(bump_kernel_weights(TAU, 10)) == pytest.approx(TAU**3 / 6, rel=1e-13)


    @pytest.mark.parametrize("tau, n_seg", [(TAU, N_SEG), (2.0, 200), (40.0, 4000)])
    def test_weights_are_memoized_and_read_only(self, tau, n_seg):
        # every episode of a config shares one weight vector, an immutable
        # tuple of floats, and it is the weights computed afresh, bitwise
        for weights, kfun in ((linear_kernel_weights, lambda s: tau - 2.0 * s),
                              (bump_kernel_weights, lambda s: s * (tau - s))):
            w = weights(tau, n_seg)
            assert weights(tau, n_seg) is w
            assert type(w) is tuple and len(w) == n_seg + 1
            assert all(type(wi) is float for wi in w)
            assert (np.array(w).tobytes()
                    == np.array(_pl_weights(tau, n_seg, kfun)).tobytes())

    def test_run_episode_asks_for_each_weight_vector_once(self):
        cfg = RunConfig(scenario=2, replan=True, duration=20.0)
        with mock.patch.object(estimation, "linear_kernel_weights",
                               wraps=estimation.linear_kernel_weights) as lin, \
                mock.patch.object(estimation, "bump_kernel_weights",
                                  wraps=estimation.bump_kernel_weights) as bump:
            for seed in (0, 1, 2):
                run_single(cfg, seed)
        assert lin.call_count == bump.call_count == 3


class TestPaddedHistory:
    def test_window_ending_at_each_step(self):
        # the episode loop writes sample k at k + win - 1 of a history padded
        # with win - 1 zeros, so the window ending at step k starts at index k
        win = N_SEG + 1
        xs = np.concatenate((np.zeros(win - 1), np.arange(15.0)))
        first, last, ramp = (window_dot(tuple(w.tolist()), 1) for w in
                             (np.eye(win)[0], np.eye(win)[-1], np.arange(win, dtype=float)))
        # mid-episode: the window ending at step 14 holds steps 4..14
        assert first(xs, 14) == [4.0]
        assert last(xs, 14) == [14.0]
        assert ramp(xs, 14)[0] == pytest.approx(np.arange(win) @ np.arange(4.0, 15.0))
        # warm-up: the window ending at step 5 straddles five pad zeros
        assert first(xs, 5) == [0.0]
        assert last(xs, 5) == [5.0]
        assert ramp(xs, 5)[0] == pytest.approx(np.arange(5, win) @ np.arange(6.0))
        # a block of three: the windows ending at steps 5, 6 and 7
        assert window_dot(tuple(np.eye(win)[-1].tolist()), 3)(xs, 5) == [5.0, 6.0, 7.0]


def reference_dot(w, xs, start):
    """The window dot as a plain loop: from 0.0, oldest sample first."""
    acc = 0.0
    for i, wi in enumerate(w):
        acc += wi * xs[start + i]
    return acc


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# finite samples and weights, with zeros of both signs, negatives and
# subnormals among them
SAMPLES = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 5e-324, -2.5e-308])
WEIGHTS = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 5e-324])


class TestWindowDot:
    @settings(max_examples=200, deadline=None)
    @given(w=st.lists(WEIGHTS, min_size=2, max_size=200), data=st.data())
    def test_matches_the_loop_bitwise(self, w, data):
        # a block of m consecutive windows, m from 1 to the most that fit in
        # BLOCK_TERMS products: the i-th dot is the loop over the window
        # that starts at start + i
        m = data.draw(st.integers(1, max(1, BLOCK_TERMS // len(w))))
        span = len(w) + m - 1
        xs = data.draw(st.lists(SAMPLES, min_size=span, max_size=span + 20))
        start = data.draw(st.integers(0, len(xs) - span))
        dots = window_dot(tuple(w), m)(xs, start)
        assert len(dots) == m
        for i, dot in enumerate(dots):
            assert same_bits(dot, reference_dot(w, xs, start + i)), i

    @settings(max_examples=50, deadline=None)
    @given(w=st.lists(WEIGHTS, min_size=2, max_size=50), data=st.data())
    def test_rows_are_the_loop_per_column(self, w, data):
        # on array rows the generated expression is the same left fold,
        # elementwise: each column is bitwise the loop over that column
        cols = data.draw(st.integers(1, 5))
        rows = data.draw(st.integers(len(w), len(w) + 5))
        xs = np.array(data.draw(st.lists(SAMPLES, min_size=rows * cols,
                                         max_size=rows * cols))).reshape(rows, cols)
        start = data.draw(st.integers(0, rows - len(w)))
        (got,) = window_dot(tuple(w), 1)(xs, start)
        for c in range(cols):
            assert same_bits(got[c], reference_dot(w, xs[:, c].tolist(), start)), c

    def test_long_window(self):
        # thousands of taps: summed in statements of a bounded number of
        # products, so the generated source compiles
        rng = np.random.default_rng(3)
        w = rng.normal(size=5001).tolist()
        xs = rng.normal(size=5100).tolist()
        dot = window_dot(tuple(w), 1)
        for start in (0, 57, 99):
            assert same_bits(dot(xs, start)[0], reference_dot(w, xs, start))
        rows = np.array(xs).reshape(-1, 1)
        assert same_bits(dot(rows, 7)[0][0], reference_dot(w, xs, 7))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_weight_is_the_loop(self, bad):
        xs = [0.0, 2.0, -1.5, 0.0, 3.0]
        for i in range(4):
            w = [0.5, -0.25, 1.0, 2.0]
            w[i] = bad
            for start in (0, 1):
                got, ref = window_dot(tuple(w), 1)(xs, start)[0], reference_dot(w, xs, start)
                assert got == ref or (math.isnan(got) and math.isnan(ref)), (i, start)

    def test_equal_weights_share_one_function(self):
        w = linear_kernel_weights(TAU, N_SEG)
        assert window_dot(w, 1) is window_dot(tuple(np.array(w).tolist()), 1)
        assert window_dot(w, 1) is not window_dot(tuple((2.0 * np.array(w)).tolist()), 1)
        assert window_dot(w, 1) is not window_dot(w, 2)

    def test_long_window_compiles_one_function_per_weight_vector(self):
        # at 4,001 taps a block of the replanning reads is one window, so the
        # reads, the drift estimate and c_est share one function per weight
        # vector: two compiled for the episode, the linear and the bump
        window_dot.cache_clear()
        run_single(parse_config(["--scenario", "2", "--replan", "--te", "0.01",
                                 "--tau", "40", "--duration", "10"]), 0)
        assert window_dot.cache_info().misses == 2


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
        lin_dot = window_dot(linear_kernel_weights(cfg.tau, n_seg), 1)
        xs = np.concatenate((np.zeros(n_seg), log.x_meas))
        R_before = np.concatenate(([cfg.ladder[0]], log.R[:-1]))
        prev = np.concatenate(([np.nan], log.c_est[:-1]))
        same = (log.c_est == prev) | (np.isnan(log.c_est) & np.isnan(prev))
        for k in np.nonzero(~same)[0]:
            assert log.c_est[k] > 0.0, k
            (dot,) = lin_dot(xs, k)
            assert log.c_est[k] == bandwidth_from_window(R_before[k], dot, cfg.tau), k

    @staticmethod
    def one_capacity(c_true, k, first):
        """Whether the capacities ``c_true[k - first:k]`` are one value, for
        each step of the array ``k``."""
        # steps j with c_true[j] != c_true[j - 1]: the capacities are one
        # value when none of them lies in k - first + 1..k - 1
        change = np.flatnonzero(c_true[1:] != c_true[:-1]) + 1
        return (np.searchsorted(change, k - 1, "right")
                == np.searchsorted(change, k - first, "right"))

    @staticmethod
    def constant_window_errors(cfg, seed):
        """The relative errors of an episode's fresh estimates whose window
        saw one constant true capacity.

        A fresh estimate is a step where ``c_est`` changes, the first estimate
        included.  The window of the estimate at step k holds the buffer
        samples of steps k - win + 1..k (``win`` = tau / te + 1 taps), and the
        plant's input lags by one step, so the window saw the capacities
        ``c_true[k - win + 1:k]``."""
        log = run_single(cfg, seed)
        win = round(cfg.tau / cfg.te) + 1
        c_est, c_true = log.c_est, log.c_true
        prev = np.concatenate(([np.nan], c_est[:-1]))
        fresh = np.flatnonzero(~((c_est == prev) | (np.isnan(c_est) & np.isnan(prev))))
        assert (fresh >= win - 1).all()
        k = fresh[TestBandwidth.one_capacity(c_true, fresh, win - 1)]
        capacity = c_true[k - win + 1]
        return np.abs(c_est[k] - capacity) / capacity

    def test_exact_on_constant_capacity_at_the_defaults(self):
        # claim 3 inside episodes: scenarios 2 and 3, both arms, seeds 0..4
        # hold 89,094 fresh estimates whose window saw one capacity, the
        # largest off by 5.1e-14 relative
        errors = np.concatenate([self.constant_window_errors(RunConfig(scenario=s, replan=r),
                                                             seed)
                                 for s in (2, 3) for r in (False, True) for seed in range(5)])
        assert len(errors) == 89094
        assert errors.max() < 1e-13

    @settings(max_examples=40, deadline=None)
    @given(cfg=run_configs(), seed=st.integers(0, 1000))
    def test_exact_on_constant_capacity(self, cfg, seed):
        # claim 3 over the config space, with the buffer measured exactly:
        # every fresh estimate whose window saw one constant capacity is that
        # capacity to 1e-9 relative, so the estimate is exact again once a
        # whole window has passed after a capacity jump (1,500 examples gave
        # at most 6.6e-13).  An example costs one episode of at most 1,200
        # steps (60 s at te 0.05 or more) and 31 taps, a few ms.
        errors = self.constant_window_errors(replace(cfg, x_noise=0.0), seed)
        assert (errors <= 1e-9).all(), errors.max()

    @settings(max_examples=40, deadline=None)
    @given(cfg=run_configs().filter(lambda cfg: cfg.x_noise > 0.0), seed=st.integers(0, 1000))
    def test_noisy_estimate_within_the_noise_bound(self, cfg, seed):
        """Claim 3 under buffer-measurement noise: each estimate whose
        window's samples were all reached with one capacity lies within the
        noise's deterministic bound of that capacity.

        The estimate at step k is ``R * (1 - 6 / tau^3 * sum_i w_i xm_i)``
        over the measured samples ``xm_i = x_i (1 + noise_i)`` of steps
        k - win + 1..k, where R is the bitrate held before the step's
        decision.  It applies at each valid step whose estimate is positive
        (the log keeps it as ``c_est[k]``).  Each sample was reached by an
        Euler step whose input at step j is ``c_true[j - 1]``, so the window
        saw one capacity when ``c_true[k - win:k]`` is one value; on the
        exact buffer the estimate is then that capacity.  The noise moves it
        by at most ``R * 6 / tau^3 * sum_i |w_i x_i| * x_noise``, plus the
        1e-9 relative slack of the exact case for rounding.  Scenarios 2 and
        3, both arms, x_noise 0.01, 0.05 and 0.2 and seeds 0..4 hold 226,078
        such estimates, the worst at 0.77 of the bound.  An example costs one
        episode of at most 1,200 steps and 31 taps, a few ms."""
        log = run_single(cfg, seed)
        n, win = cfg.n_steps, round(cfg.tau / cfg.te) + 1
        w = linear_kernel_weights(cfg.tau, win - 1)
        R_before = np.concatenate(([cfg.ladder[0]], log.R[:-1]))
        # each step's own estimate, computed as the log's c_est is
        xp = np.concatenate((np.zeros(win - 1), log.x_meas))
        (dot,) = window_dot(w, 1)([xp[i:i + n] for i in range(win)], 0)
        est = bandwidth_from_window(R_before, dot, cfg.tau)
        k = np.flatnonzero(log.valid & (est > 0.0))
        np.testing.assert_array_equal(log.c_est[k], est[k])
        k = k[self.one_capacity(log.c_true, k, win)]
        x = sliding_window_view(np.concatenate((np.zeros(win - 1), log.x)), win)[k]
        capacity = log.c_true[k - 1]
        bound = (R_before[k] * 6.0 / cfg.tau**3 * np.abs(np.array(w) * x).sum(axis=1) * cfg.x_noise
                 + 1e-9 * capacity)
        assert (np.abs(log.c_est[k] - capacity) <= bound).all()

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
