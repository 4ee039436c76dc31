"""The control law and the plant, as numeric kernels in plain Python.

The callees take arrays or lists alike: the episode loop hands them Python
floats, which are much cheaper to compute with than NumPy scalars and give
the same IEEE results.  The fused ``episode_loop`` is the one implementation
of the controller: flat feedforward, the iP correction on the ultra-local
model and windowed replanning of the reference, stepped together with the
client buffer.  It reads every parameter from the ``RunConfig`` it is given.
The loop computes only what the controller reads: the bandwidth estimate
where it feeds the replanned reference (every step, with replanning on) or
the flat feedforward (every decision), the feedforward and the reference
slope once per decision.  It returns only what it alone knows: the buffer,
the reference and the estimate's validity flag per step, the held bitrate
and iP correction per decision.  ``plant.run_episode`` derives the other log
columns (clock, measured buffer, per-step bitrate and correction, the
bandwidth estimate through ``held_estimates``, regime, stall flag,
per-decision samples) from those.
"""
from bisect import bisect_left, bisect_right

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


def bezier_derivative(t, t0, tf, x0, xf, order):
    """Analytic derivative of bezier_eval; zero outside (t0, tf)."""
    if t <= t0 or t >= tf:
        return 0.0
    T = (t - t0) / (tf - t0)
    if order == 1:
        p = 280.0 * T**3 * (1.0 - T) ** 4
    elif order == 2:
        p = T**2 * (840.0 + T * (-4480.0 + T * (8400.0 + T * (-6720.0 + T * 1960.0))))
    else:
        p = T * (1680.0 + T * (-13440.0 + T * (33600.0 + T * (-33600.0 + T * 11760.0))))
    return (xf - x0) * p / (tf - t0) ** order


def quantize(r, ladder):
    """Nearest ladder element, ties broken toward the lower rate.

    Ties are resolved with a small relative tolerance so that midpoints
    which are not exactly representable (e.g. 0.8 between 0.6 and 1.0)
    still round down.
    """
    best = 0
    best_d = abs(ladder[0] - r)
    tol = 1e-12 * (1.0 + abs(r))
    for i in range(1, len(ladder)):
        d = abs(ladder[i] - r)
        if d < best_d - tol:
            best_d = d
            best = i
    return ladder[best], ladder[best] - r


def ladder_below(c, ladder):
    """Largest element of the increasing ladder strictly below c (clamped to
    the smallest)."""
    return ladder[max(bisect_left(ladder, c) - 1, 0)]


def ladder_above(c, ladder):
    """Smallest element of the increasing ladder strictly above c (clamped to
    the largest)."""
    return ladder[min(bisect_right(ladder, c), len(ladder) - 1)]


def ring_dot(w, xs, start):
    """Dot of weights with the window xs[start:start + len(w)], oldest first.

    The episode loop's sample histories start with len(w) - 1 zeros, so the
    window ending at step k starts at index k.
    """
    acc = 0.0
    for i in range(len(w)):
        acc += w[i] * xs[start + i]
    return acc


def bandwidth_from_window(R, w_lin, xs, start, tau):
    """Closed-form bandwidth estimate from a window of buffer samples."""
    return R * (1.0 - 6.0 / tau**3 * ring_dot(w_lin, xs, start))


def held_estimates(x_meas, valid, R_before, w_lin, tau):
    """Per-step bandwidth estimate column: the last positive estimate at a
    valid step, NaN before the first.

    The window dots are summed in ``ring_dot``'s order, so every value is
    bitwise the scalar ``bandwidth_from_window`` over the zero-padded measured
    buffer with the bitrate held before that step's decision.
    """
    n = len(x_meas)
    win = len(w_lin)
    xp = np.concatenate((np.zeros(win - 1), x_meas))
    acc = np.zeros(n)
    for i in range(win):
        acc += w_lin[i] * xp[i:i + n]
    est = R_before * (1.0 - 6.0 / tau**3 * acc)
    keep = valid & (est > 0.0)
    kept = np.nonzero(keep)[0]
    # held[m] is the m-th kept estimate; the running count of kept steps
    # forward-fills them, and a count of zero reads the NaN
    held = np.empty(len(kept) + 1)
    held[0] = np.nan
    held[1:] = est[kept]
    return held[np.cumsum(keep.astype(np.int64))]


def f_from_window(w_lin, w_bump, ys, us, start, alpha, tau):
    """Windowed estimate of the lumped drift F of the ultra-local model."""
    return -6.0 / tau**3 * (ring_dot(w_lin, ys, start) + alpha * ring_dot(w_bump, us, start))


def ip_control(f_est, ref_rate, e, alpha, kp):
    """Intelligent-proportional feedback correction."""
    return -(f_est - ref_rate + kp * e) / alpha


def feedforward(c_nominal, ref_slope):
    """Flat inversion of the playback dynamics along the reference."""
    return c_nominal / (ref_slope + 1.0)


def plant_step(x, t, R, C, Te, delta, Delta):
    """One explicit-Euler step of the client buffer."""
    if t >= delta and x >= Delta:
        dx = C / R - 1.0
    else:
        dx = C / R
    xn = x + Te * dx
    if xn < 0.0:
        xn = 0.0
    return xn


def _episode_loop(c_true, c_meas, x_noise, w_lin, w_bump, cfg):
    """Fused inner loop for one episode of the config ``cfg``.

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

    The estimate itself is evaluated only where the controller reads it:
    every step with replanning on, decision steps only with it off.  A read
    takes the newest valid step with a positive estimate, going back at most
    one window and never to the previous read step or before it; an older
    estimate is stale there, and the capacity measurement is read instead.

    The flat inversion needs a reference slope above -1.  A decision whose
    combined (ramp plus replanning) slope is at most -1 requests the top
    rung, the inversion's limit as the slope falls to -1.
    """
    te, delta_startup, chunk_duration = cfg.te, cfg.delta_startup, cfg.chunk_duration
    t0, tf, x0, xf = cfg.t0, cfg.tf, cfg.x0, cfg.xf
    alpha, kp, tau = cfg.alpha, cfg.kp, cfg.tau
    replan, replan_lower, replan_upper = cfg.replan, cfg.replan_lower, cfg.replan_upper
    n = len(c_true)
    win = len(w_lin)
    ratio = cfg.steps(cfg.decision_interval)
    n_chunks = (n + ratio - 1) // ratio

    # the window-averaged capacity measurement, the fallback for a stale
    # estimate: one sequential running sum of sample in minus sample out
    c_out = np.concatenate((np.zeros(win), c_meas))[:n]
    cm_bar = (np.cumsum(c_meas - c_out) / np.minimum(np.arange(1, n + 1), win)).tolist()

    # convert once: the loop computes on Python floats and stores into lists,
    # converted back to arrays after it
    c_true = c_true.tolist()
    noise = x_noise.tolist()
    ladder = [float(r) for r in cfg.ladder]
    w_lin = w_lin.tolist()
    w_bump = w_bump.tolist()
    # measured buffer and held correction, zero-padded by win - 1 samples
    # so the window ending at step k starts at index k
    x_hist = [0.0] * (n + win - 1)
    u_hist = [0.0] * (n + win - 1)
    x_a = [0.0] * n
    ref_a = [0.0] * n
    valid = [False] * n
    Rk = [0.0] * n_chunks
    uk = [0.0] * n_chunks

    x = 0.0
    cur_R = ladder[0]
    top_R = ladder[-1]
    u_held = 0.0  # zero-order-held continuous correction, the estimator's input
    cest = 0.0
    have_cest = False
    last_bad = -1           # last step violating the estimate's window conditions
    last_valid = -1
    last_read = -1
    last_R_change = 0
    replan_active = False
    dirn = 1
    coef = ladder[0]
    y_ad = 0.0
    c_known = 0.0

    for k in range(n):
        t = k * te
        xm = x * (1.0 + noise[k])
        if t < tf:
            base = bezier_eval(t, t0, tf, x0, xf)
        else:
            base = xf  # the ramp profile is constant from tf on
        h = k + win - 1
        x_hist[h] = xm
        u_hist[h] = u_held

        # Bandwidth estimate: valid only late enough, in playback regime with
        # x above the chunk duration and an unchanged bitrate over the window.
        if not (t >= delta_startup and x >= chunk_duration and xm > chunk_duration):
            last_bad = k
        elif t > delta_startup + tau and k - last_bad >= win and k - last_R_change >= win:
            valid[k] = True

        decide = k % ratio == 0
        if replan or decide:
            # A non-positive value (measurement noise) is never acted on: the
            # last positive estimate and its validity clock are kept instead.
            # Every decision is a read, so every step back to the last read
            # held cur_R before its decision.
            j = k
            stop = k - win - 1
            if stop < last_read:
                stop = last_read
            while j > stop:
                if valid[j]:
                    c_new = bandwidth_from_window(cur_R, w_lin, x_hist, j, tau)
                    if c_new > 0.0:
                        cest = c_new
                        have_cest = True
                        last_valid = j
                        break
                j -= 1
            last_read = k
            # the held estimate goes stale one window after validity is lost;
            # fall back to the window-averaged capacity measurement until it recovers
            if have_cest and k - last_valid <= win:
                c_known = cest
            else:
                c_known = cm_bar[k]

        if replan and have_cest:
            if not replan_active:
                replan_active = True
                dirn = 1
                coef = ladder_below(c_known, ladder)
                # start the correction aligned with the measured buffer so the
                # combined reference takes over without an error jump
                y_ad = xm - base
            if xm > replan_upper and dirn == 1:
                dirn = -1
            if xm < replan_lower and dirn == -1:
                dirn = 1
            if dirn == 1:
                coef = ladder_below(c_known, ladder)
            else:
                coef = ladder_above(c_known, ladder)
            y_ad += (c_known / coef - 1.0) * te
            # a capacity jump leaves the reference far from the buffer; restart
            # the correction there instead of burning switches on the transient
            if abs(xm - (base + y_ad)) > RESTART_GAP:
                y_ad = xm - base

        ref = base + y_ad

        if decide:
            ref_rate = bezier_derivative(t, t0, tf, x0, xf, 1)
            if replan_active:
                ref_rate += c_known / coef - 1.0
            if k >= win - 1:
                f_est = f_from_window(w_lin, w_bump, x_hist, u_hist, k, alpha, tau)
                u_cont = ip_control(f_est, ref_rate, xm - ref, alpha, kp)
            else:
                u_cont = 0.0  # estimator warm-up: pure feedforward
            if ref_rate > -1.0:
                # flat inversion along the full (replanned) reference
                new_R, _eps = quantize(feedforward(c_known, ref_rate) + u_cont, ladder)
            else:
                # a reference draining at least as fast as playback: the
                # inversion's limit as the slope falls to -1 is unbounded
                new_R = top_R
            if new_R != cur_R:
                last_R_change = k
                cur_R = new_R
            u_held = u_cont
            u_hist[h] = u_held
            Rk[k // ratio] = cur_R
            uk[k // ratio] = u_held

        x_a[k] = x
        ref_a[k] = ref

        x = plant_step(x, t, cur_R, c_true[k], te, delta_startup, chunk_duration)

    return np.asarray(x_a), np.asarray(ref_a), np.asarray(valid), np.asarray(Rk), np.asarray(uk)


# perfbench traces ``episode_loop`` and profiles ``_episode_loop`` by its code name
episode_loop = _episode_loop
