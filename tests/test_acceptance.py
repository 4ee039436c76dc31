"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s).  The
timing bounds hold for the plain Python/numpy kernels.
"""
import filecmp
import time

import numpy as np
import pytest

from abrlab.cli import main, run_single
from abrlab.config import RunConfig
from abrlab.estimation import bump_kernel_weights, linear_kernel_weights
from abrlab.kernels import (bandwidth_from_window, bezier_derivative, bezier_eval,
                            f_from_window, ip_control, window_dot)
from abrlab.metrics import qoe_report
from abrlab.plant import build_scenario, run_episode

TE = 0.1
LIN_DOT = window_dot(linear_kernel_weights(1.0, 10), 1)
BUMP_DOT = window_dot(bump_kernel_weights(1.0, 10), 1)


def _verdict(num, desc, ok):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # pay first-call costs outside the timed sections
    run_single(RunConfig(duration=20.0), 0)


def _batch(scenario, replan, seeds):
    reports = []
    for seed in seeds:
        cfg = RunConfig(scenario=scenario, replan=replan)
        reports.append(qoe_report(run_single(cfg, seed), seed))
    return reports


def test_criterion_1_scenario1_baseline():
    cfg = RunConfig()
    start = time.perf_counter()
    log = run_single(cfg, 0)
    elapsed = time.perf_counter() - start
    r = qoe_report(log, 0)
    ok = (r.rebuffer_count == 0
          and 0.65 <= r.avg_quality <= 0.85
          and elapsed < 1.0)
    _verdict(1, f"scenario 1 no-replan: rebuffering={r.rebuffer_count}, "
                f"avg_quality={r.avg_quality:.4f}, {elapsed * 1e3:.1f} ms/episode", ok)


def test_criterion_2_scenario1_switch_reduction():
    seeds = range(100)
    start = time.perf_counter()
    off = _batch(1, False, seeds)
    on = _batch(1, True, seeds)
    elapsed = time.perf_counter() - start
    sw_off = np.mean([r.switch_count for r in off])
    sw_on = np.mean([r.switch_count for r in on])
    q_off = np.mean([r.avg_quality for r in off])
    q_on = np.mean([r.avg_quality for r in on])
    qdiff = abs(q_on - q_off) / q_off
    ok = sw_on <= sw_off / 3.0 and qdiff < 0.10 and elapsed < 120.0
    _verdict(2, f"scenario 1, 100 seeds: switches {sw_off:.1f} -> {sw_on:.1f} "
                f"(ratio {sw_off / sw_on:.2f}), quality diff {qdiff * 100:.2f}%, "
                f"{elapsed:.1f} s for 200 episodes", ok)


def test_criterion_2_scenarios_2_3_relaxed():
    msgs, ok = [], True
    for scenario in (2, 3):
        seeds = range(50)
        off = _batch(scenario, False, seeds)
        on = _batch(scenario, True, seeds)
        sw_off = np.mean([r.switch_count for r in off])
        sw_on = np.mean([r.switch_count for r in on])
        q_off = np.mean([r.avg_quality for r in off])
        q_on = np.mean([r.avg_quality for r in on])
        qdiff = abs(q_on - q_off) / q_off
        ok = ok and sw_off / sw_on >= 1.5 and qdiff < 0.10
        msgs.append(f"s{scenario} ratio {sw_off / sw_on:.2f} qdiff {qdiff * 100:.1f}%")
    _verdict(2, "scenarios 2-3, relaxed switch ratio >= 1.5: " + ", ".join(msgs), ok)


def _mean_switches(cfg, seeds):
    """Mean switch count of the config over the seeds; a seed that draws the
    previous seed's inputs bitwise (every seed of scenario 1) reuses its
    episode, as a command-line batch does."""
    switches, last = [], None
    for seed in seeds:
        trace = build_scenario(cfg, seed)
        if last is None or not trace.bitwise_equal(last):
            count = qoe_report(run_episode(trace, cfg), seed).switch_count
        last = trace
        switches.append(count)
    return np.mean(switches)


@pytest.mark.parametrize("scenario", (1, 2, 3))
def test_criterion_2_holds_at_every_te(scenario):
    # the switch figures move with te (s1 with replanning reads 22-33), but
    # at each te replanning cuts the mean switch count
    msgs, ok = [], True
    for te in (0.1, 0.05, 0.025, 0.02):
        off, on = (_mean_switches(RunConfig(scenario=scenario, replan=replan, te=te), range(5))
                   for replan in (False, True))
        ok = ok and on < off
        msgs.append(f"te {te}: {off:.1f} -> {on:.1f}")
    _verdict(2, f"scenario {scenario}, seeds 0..4, switches " + ", ".join(msgs), ok)


def test_criterion_3_bandwidth_estimator_exact_on_affine():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        a = float(rng.uniform(0.0, 10.0))
        b = float(rng.uniform(-0.9, 2.0))
        R = float(rng.uniform(0.35, 5.0))
        xs = a + b * np.arange(11) * TE  # oldest first
        est = bandwidth_from_window(R, LIN_DOT(xs, 0)[0], 1.0)
        worst = max(worst, abs(est - R * (1 + b)) / abs(R * (1 + b)))
    ok = worst <= 1e-9
    _verdict(3, f"affine windows: worst relative error {worst:.2e}", ok)


def test_criterion_4_drift_estimator_oracle():
    cfg = RunConfig()
    worst = 0.0
    for F0, u0 in ((1.7, 0.1), (-0.8, 0.3), (2.4, -0.2), (0.05, 0.0)):
        ys = 0.5 + np.arange(11) * TE * (F0 + cfg.alpha * u0)  # oldest first
        us = np.full(11, u0)
        f = f_from_window(LIN_DOT(ys, 0)[0], BUMP_DOT(us, 0)[0], cfg.alpha, cfg.tau)
        worst = max(worst, abs(f - F0) - 0.01 * abs(F0))
    ok = worst <= 1e-9
    _verdict(4, f"constant (F0, u): worst excess error {worst:.2e}", ok)


def test_criterion_5_closed_loop_decay():
    cfg = RunConfig()
    Te = TE
    win = int(round(cfg.tau / Te)) + 1
    F0, ref = 1.7, 0.0
    y, u = 3.0, 0.0
    errors = []
    for k in range(600):
        # exact drift knowledge: u cancels F0 and imposes -kp * e
        u = ip_control(F0, 0.0, y - ref, cfg.alpha, cfg.kp)
        y += Te * (F0 + cfg.alpha * u)
        errors.append(abs(y - ref))
    errors = np.array(errors)
    e0 = errors[win - 1]
    t_rel = (np.arange(win, 600) - (win - 1)) * Te
    bound = e0 * np.exp(-cfg.kp * t_rel) * 1.05 + 1e-12
    ok = bool(np.all(errors[win:] <= bound))
    _verdict(5, f"|e| under the exp(-kp t) envelope after one window "
                f"(e0={e0:.3f}, e_end={errors[-1]:.2e})", ok)


def test_criterion_6_quantized_bibo():
    cfg0 = RunConfig()
    max_gap = float(np.diff(cfg0.ladder).max())
    bound = abs(cfg0.alpha) * (max_gap / 2) / cfg0.kp + 2 * cfg0.xf
    worst = 0.0
    for scenario in (1, 2, 3):
        for replan in (False, True):
            for seed in range(10):
                log = run_single(RunConfig(scenario=scenario, replan=replan), seed)
                worst = max(worst, float(np.max(np.abs(log.x_meas - log.ref))))
    ok = worst < bound
    _verdict(6, f"60 episodes: max tracking error {worst:.2f} < bound {bound:.1f}", ok)


def test_criterion_7_trajectory_suite():
    p = (0.0, 10.0, 0.0, 4.0)  # t0, tf, x0, xf
    ok = bezier_eval(0.0, *p) == 0.0 and bezier_eval(10.0, *p) == 4.0
    for t in (0.0, 10.0):
        ok = ok and abs(bezier_derivative(t, *p)) < 1e-8
    # the first three derivatives vanish at both ends: halving the distance
    # h = 0.2 from an end divides the profile's deviation by about 2^4 or more
    h = 0.02 * (p[1] - p[0])
    ok = ok and abs(bezier_eval(h, *p)) >= 15.0 * abs(bezier_eval(h / 2, *p)) > 0.0
    ok = ok and (abs(bezier_eval(10.0 - h, *p) - 4.0)
                 >= 15.0 * abs(bezier_eval(10.0 - h / 2, *p) - 4.0) > 0.0)
    # central differences of the profile converge at second order
    t = 3.7
    exact = bezier_derivative(t, *p)
    errs = []
    for h in (1e-2, 5e-3):
        fd = (bezier_eval(t + h, *p) - bezier_eval(t - h, *p)) / (2 * h)
        errs.append(abs(fd - exact))
    ok = ok and errs[0] < 1e-4 and errs[1] <= errs[0] / 3.0 + 1e-12
    _verdict(7, f"endpoints exact, end derivatives zero, FD errors "
                f"{errs[0]:.2e} -> {errs[1]:.2e} (order 2)", ok)


def test_criterion_8_plant_euler_convergence():
    finals = {}
    for te in (0.1, 0.05):
        finals[te] = run_single(RunConfig(te=te), 0).x[-1]
    diff = abs(finals[0.1] - finals[0.05])
    # one coarse step at the steepest admissible slope, doubled
    slope = RunConfig().c0 / min(RunConfig().ladder)
    threshold = 2.0 * 0.1 * slope
    ok = diff < threshold
    _verdict(8, f"scenario 1 final buffer: Te 0.1 vs 0.05 differ by {diff:.2e} "
                f"< {threshold:.2f}", ok)

    # the open-loop plant alone converges as well (sliding at the stall edge):
    # explicit Euler at R 2.0 on C 0.7, draining while playing, clamped at empty
    def run_plant(te):
        cfg = RunConfig(te=te)
        x = 0.0
        for k in range(cfg.n_steps):
            playing = k * te >= cfg.delta_startup and x >= cfg.chunk_duration
            x = max(0.0, x + te * (0.7 / 2.0 - (1.0 if playing else 0.0)))
        return x

    assert abs(run_plant(0.1) - run_plant(0.05)) < threshold


def test_criterion_9_determinism(tmp_path):
    args = ["--scenario", "3", "--replan", "--seeds", "4", "--x-noise", "0.02",
            "--emit", "qoe,table,log"]
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        dirs.append(out)
    files = ["qoe.csv", "qoe.json", "table.csv", "episode_s3_replan_4.csv"]
    same = all(filecmp.cmp(dirs[0] / f, dirs[1] / f, shallow=False) for f in files)
    _verdict(9, "identical config+seed gives byte-identical episode and QoE files",
             same)
