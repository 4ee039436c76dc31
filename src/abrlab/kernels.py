"""The control law and the plant, as numeric kernels in plain Python.

The callees take arrays or lists alike: the episode loop hands them Python
floats, which are much cheaper to compute with than NumPy scalars and give
the same IEEE results.  The fused ``episode_loop`` is the one implementation
of the controller and of the plant; its docstring states what it computes
and returns, and how its per-step body keeps to arithmetic: clock tests on
step indices, the read and the Euler step written in line.
"""
from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from math import inf

import numpy as np

# Distance between the measured buffer and the replanned reference beyond
# which the reference correction restarts at the buffer.
RESTART_GAP = 2.0


def bezier_eval(t, t0, tf, x0, xf):
    """Ramp profile x0 -> xf over [t0, tf], C^3-smooth, clamped outside."""
    if t <= t0:
        return x0
    if t >= tf:
        return xf
    T = (t - t0) / (tf - t0)
    p = T**4 * (70.0 + T * (-224.0 + T * (280.0 + T * (-160.0 + T * 35.0))))
    return x0 + (xf - x0) * p


def bezier_derivative(t, t0, tf, x0, xf):
    """Analytic slope of bezier_eval; zero outside (t0, tf)."""
    if t <= t0 or t >= tf:
        return 0.0
    T = (t - t0) / (tf - t0)
    return (xf - x0) * (280.0 * T**3 * (1.0 - T) ** 4) / (tf - t0)


def quantize(r, ladder):
    """The ladder element nearest the rate r, ties broken toward the lower
    rate; a rate past either end gets that end's rung, and NaN the lowest.

    The candidates are the two rungs around r (``bisect_left``, as in
    ``rung_interval``).  Ties are resolved with a small relative tolerance so
    that midpoints which are not exactly representable (e.g. 0.8 between 0.6
    and 1.0) still round down.
    """
    i = bisect_left(ladder, r)
    if i == 0:
        return ladder[0]
    if i == len(ladder):
        return ladder[-1]
    lo, hi = ladder[i - 1], ladder[i]
    return hi if hi - r < r - lo - 1e-12 * (1.0 + abs(r)) else lo


def ladder_below(c, ladder):
    """Largest element of the increasing ladder strictly below c (clamped to
    the smallest)."""
    return ladder[max(bisect_left(ladder, c) - 1, 0)]


def ladder_above(c, ladder):
    """Smallest element of the increasing ladder strictly above c (clamped to
    the largest)."""
    return ladder[min(bisect_right(ladder, c), len(ladder) - 1)]


def rung_interval(c, ladder):
    """The rungs around c: the open interval (lo, hi) between adjacent ladder
    elements with lo < c <= hi, unbounded past either end.

    ``ladder_below`` and ``ladder_above`` are constant for every c strictly
    inside it; a c on a rung is its interval's hi, so outside it.
    """
    i = bisect_left(ladder, c)
    return (ladder[i - 1] if i > 0 else -inf), (ladder[i] if i < len(ladder) else inf)


def ring_dot(w, xs, start):
    """Dot of weights with the window xs[start:start + len(w)], oldest first.

    The episode loop's sample histories start with len(w) - 1 zeros, so the
    window ending at step k starts at index k.  Given array rows for samples
    (``held_estimates``), it returns every window's dot as one array.
    """
    acc = 0.0
    i = start
    for wi in w:  # cheaper than indexing both by range(len(w))
        acc += wi * xs[i]
        i += 1
    return acc


def bandwidth_from_window(R, dot, tau):
    """Closed-form bandwidth estimate from the linear-kernel dot of a window
    of buffer samples (a scalar, or an array of them)."""
    return R * (1.0 - 6.0 / tau**3 * dot)


def held_estimates(x_meas, valid, R_before, w_lin, tau):
    """Per-step bandwidth estimate column: the last positive estimate at a
    valid step, NaN before the first.

    Each window dot is ``ring_dot``'s over the zero-padded measured buffer and
    each estimate uses the bitrate held before its step's decision, so every
    value is bitwise the loop's scalar estimate.
    """
    n = len(x_meas)
    xp = np.concatenate((np.zeros(len(w_lin) - 1), x_meas))
    # row i of the view is xp[i:i + n]: the i-th sample of every window
    dot = ring_dot(w_lin, np.lib.stride_tricks.sliding_window_view(xp, n), 0)
    est = bandwidth_from_window(R_before, dot, tau)
    keep = valid & (est > 0.0)
    # the running count of kept steps indexes the m-th kept estimate after a
    # leading NaN, which forward-fills them
    return np.concatenate(([np.nan], est[keep]))[np.cumsum(keep)]


def f_from_window(w_lin, w_bump, ys, us, start, alpha, tau):
    """Windowed estimate of the lumped drift F of the ultra-local model."""
    return -6.0 / tau**3 * (ring_dot(w_lin, ys, start) + alpha * ring_dot(w_bump, us, start))


def ip_control(f_est, ref_rate, e, alpha, kp):
    """Intelligent-proportional feedback correction."""
    return -(f_est - ref_rate + kp * e) / alpha


def feedforward(c_nominal, ref_slope):
    """Flat inversion of the playback dynamics along the reference."""
    return c_nominal / (ref_slope + 1.0)


def clock_step(n, passes):
    """The first step k of 0..n-1 whose clock test ``passes(k)`` holds, or n.

    The episode loop's clock tests compare ``k * te`` with a fixed time, so
    each is False up to one step and True from it on; that step is found by
    evaluating the loop's own comparison.  ``ceil(x / te)`` is not it: at te
    0.01, 0.07 / te rounds up to 8 while ``7 * te >= 0.07`` already holds.
    """
    return bisect_left(range(n), True, key=passes)


def held_list(column, fn=None) -> list:
    """The values of a 1-D array as a list of Python values, or ``fn`` of
    each.  Each run of bitwise-equal neighbours shares one value (one ``fn``
    call): a held column costs one object per run.  Bitwise, ``-0.0`` and
    ``0.0`` stay apart and a run of NaNs is one run."""
    if len(column) == 0:
        return []
    bits = column.view(f"u{column.itemsize}")
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    values = column[starts].tolist()
    if fn is not None:
        values = list(map(fn, values))
    if len(values) == len(column):
        return values
    runs = np.diff(starts, append=len(column)).tolist()
    return list(chain.from_iterable(map(repeat, values, runs)))


def _episode_loop(c_true, c_meas, x_noise, w_lin, w_bump, cfg):
    """Fused inner loop for one episode of the config ``cfg``, and the one
    implementation of the controller and of the plant.

    Per te step: measure, test the bandwidth estimate's window conditions,
    replan the reference, at the chunk cadence pick the bitrate, then
    Euler-step the true plant.  Returns, as arrays, what the loop alone
    records: the buffer ``x``, the reference ``ref`` and the estimate's
    validity flag ``valid`` per step, and the held bitrate ``R_k`` and iP
    correction ``u_k`` per decision.  ``plant.run_episode`` derives the other
    log columns from those: the bitrate and correction are held between
    decisions, the regime and stall flag are functions of the clock and the
    buffer, and ``c_est`` is the last positive estimate at a valid step
    (``held_estimates``).

    The clock is step indices.  Each test of the clock ``t = k * te`` against
    a time (playback may start, a whole window into playback, the ramp ends)
    holds from one step on, found once per episode (``clock_step``), and the
    next decision is a running step; ``k * te`` is computed only where the
    ramp and its slope are evaluated.

    A step is valid once a whole window has passed since the last step that
    was out of playback, had the measured buffer at or below the chunk
    duration, or changed the bitrate.  The estimate itself is evaluated only
    where the controller reads it: every step with replanning on, decision
    steps only with it off.  A read takes the newest valid step with a
    positive estimate, going back to the previous read; an estimate more than
    one window old is stale, and the capacity measurement is read instead.
    The read's window dot and estimate are ``ring_dot`` and
    ``bandwidth_from_window`` written in line, the same operations in the
    same order, so bitwise the same value.

    The replanning slope divides the read by the rung below it on the way up,
    above it on the way down.  That rung is looked up (``ladder_below``/
    ``ladder_above``) only when the read leaves the open interval between the
    rungs around the last lookup's read (``rung_interval``), lands on a rung,
    or the direction flips; in between it is the same rung.

    The flat inversion needs a reference slope above -1.  A decision whose
    combined (ramp plus replanning) slope is at most -1 makes an unbounded
    request, the inversion's limit as the slope falls to -1, and so gets the
    top rung.

    The plant is one explicit-Euler step of the client buffer per te step,
    draining at the playback rate only while playing (from the startup on,
    with the buffer at or above the chunk duration), clamped at empty.
    """
    te, delta_startup, chunk_duration = cfg.te, cfg.delta_startup, cfg.chunk_duration
    t0, tf, x0, xf = cfg.t0, cfg.tf, cfg.x0, cfg.xf
    alpha, kp, tau = cfg.alpha, cfg.kp, cfg.tau
    valid_after = delta_startup + tau  # a whole window into playback
    replan, replan_lower, replan_upper = cfg.replan, cfg.replan_lower, cfg.replan_upper
    n = len(c_true)
    win = len(w_lin)
    ratio = cfg.steps(cfg.decision_interval)
    gain = 6.0 / tau**3  # bandwidth_from_window's kernel gain

    # the first step of each clock test: t >= delta_startup, t > valid_after
    # and t >= tf (the ramp profile is constant from tf on)
    k_startup = clock_step(n, lambda k: k * te >= delta_startup)
    k_valid = clock_step(n, lambda k: k * te > valid_after)
    k_flat = clock_step(n, lambda k: not k * te < tf)

    # the window-averaged capacity measurement, the fallback for a stale
    # estimate: one sequential running sum of sample in minus sample out;
    # read at a few percent of the steps, so not converted to a list
    c_out = np.concatenate((np.zeros(win), c_meas))[:n]
    cm_bar = np.cumsum(c_meas - c_out) / np.minimum(np.arange(1, n + 1), win)

    # convert once: the loop computes on Python floats and stores into lists,
    # converted back to arrays after it; a held capacity and zero buffer
    # noise are one float object per run
    c_true = held_list(c_true)
    noise = held_list(x_noise)
    ladder = [float(r) for r in cfg.ladder]
    w_lin = w_lin.tolist()
    w_bump = w_bump.tolist()
    # measured buffer and held correction, zero-padded by win - 1 samples
    # so the window ending at step k starts at index k
    x_hist = [0.0] * (n + win - 1)
    u_hist = [0.0] * (n + win - 1)
    valid = [False] * n
    x_a, ref_a, Rk, uk = [], [], [], []

    x = 0.0
    cur_R = ladder[0]
    u_held = 0.0  # zero-order-held continuous correction, the estimator's input
    cest = 0.0
    last_bad = 0            # last step that spoiled the estimate's window (x = 0 at step 0)
    last_valid = -win - 1   # step of the held estimate; stale from the start
    last_read = -1
    next_decision = 0
    replan_active = False
    dirn = 1  # replanning starts on the way up
    y_ad = 0.0
    c_known = 0.0
    # the replanning rung coef, looked up for direction coef_dirn, holds for
    # c_known in (coef_lo, coef_hi); none yet
    coef_dirn = 0
    coef_lo = coef_hi = 0.0

    for k, C, nz in zip(range(n), c_true, noise):
        xm = x * (1.0 + nz)
        if k < k_flat:
            base = bezier_eval(k * te, t0, tf, x0, xf)
        else:
            base = xf
        h = k + win - 1
        x_hist[h] = xm
        u_hist[h] = u_held

        # Bandwidth estimate: valid only late enough, in playback regime with
        # x above the chunk duration and an unchanged bitrate over the window.
        playing = k >= k_startup and x >= chunk_duration
        if not (playing and xm > chunk_duration):
            last_bad = k
        elif k >= k_valid and k - last_bad >= win:
            valid[k] = True

        decide = k == next_decision
        if replan or decide:
            # A non-positive value (measurement noise) is never acted on: the
            # last positive estimate and its validity clock are kept instead.
            # Every decision is a read, so every step back to the last read
            # held cur_R before its decision.
            j = k
            while j > last_read:
                if valid[j]:
                    # ring_dot(w_lin, x_hist, j): from 0.0, oldest sample first
                    dot = 0.0
                    i = j
                    for wi in w_lin:
                        dot += wi * x_hist[i]
                        i += 1
                    c_new = cur_R * (1.0 - gain * dot)
                    if c_new > 0.0:
                        cest = c_new
                        last_valid = j
                        break
                j -= 1
            last_read = k
            # the held estimate goes stale one window after validity is lost;
            # fall back to the window-averaged capacity measurement until it recovers
            if k - last_valid <= win:
                c_known = cest
            else:
                c_known = cm_bar[k].item()

        if replan and last_valid >= 0:
            if not replan_active:
                replan_active = True
                # start the correction aligned with the measured buffer so the
                # combined reference takes over without an error jump
                y_ad = xm - base
            if xm > replan_upper and dirn == 1:
                dirn = -1
            if xm < replan_lower and dirn == -1:
                dirn = 1
            if not (coef_lo < c_known < coef_hi and dirn == coef_dirn):
                if dirn == 1:
                    coef = ladder_below(c_known, ladder)
                else:
                    coef = ladder_above(c_known, ladder)
                coef_dirn = dirn
                coef_lo, coef_hi = rung_interval(c_known, ladder)
            ad_rate = c_known / coef - 1.0
            y_ad += ad_rate * te
            # a capacity jump leaves the reference far from the buffer; restart
            # the correction there instead of burning switches on the transient
            if abs(xm - (base + y_ad)) > RESTART_GAP:
                y_ad = xm - base

        ref = base + y_ad

        if decide:
            next_decision += ratio
            ref_rate = bezier_derivative(k * te, t0, tf, x0, xf)
            if replan_active:
                ref_rate += ad_rate
            if k >= win - 1:
                f_est = f_from_window(w_lin, w_bump, x_hist, u_hist, k, alpha, tau)
                u_cont = ip_control(f_est, ref_rate, xm - ref, alpha, kp)
            else:
                u_cont = 0.0  # estimator warm-up: pure feedforward
            # flat inversion along the full (replanned) reference; a reference
            # draining at least as fast as playback requests an unbounded rate,
            # the inversion's limit as the slope falls to -1: the top rung
            new_R = quantize(feedforward(c_known, ref_rate) + u_cont if ref_rate > -1.0
                             else inf, ladder)
            if new_R != cur_R:
                last_bad = k  # a bitrate change spoils the window too
                cur_R = new_R
            u_held = u_cont
            u_hist[h] = u_held
            Rk.append(cur_R)
            uk.append(u_held)

        x_a.append(x)
        ref_a.append(ref)

        # explicit Euler step of the true plant, clamped at empty
        if playing:
            x += te * (C / cur_R - 1.0)
        else:
            x += te * (C / cur_R)
        if x < 0.0:
            x = 0.0

    # the histories and converted inputs must not outlive the loop
    del x_hist, u_hist, cm_bar, c_true, noise
    return np.asarray(x_a), np.asarray(ref_a), np.asarray(valid), np.asarray(Rk), np.asarray(uk)


# perfbench traces ``episode_loop`` and profiles ``_episode_loop`` by its code name
episode_loop = _episode_loop
