"""The control law and the plant, as numeric kernels.

Everything here is written so it compiles under numba's nopython mode; with
ABRLAB_DISABLE_NUMBA=1 the same source runs as plain Python/numpy.  The
callees take arrays or lists alike: the interpreted episode loop hands them
Python floats, which are much cheaper to compute with than NumPy scalars.  The
fused ``episode_loop`` is the one implementation of the controller: flat
feedforward, the iP correction on the ultra-local model and windowed
replanning of the reference, stepped together with the client buffer.  The
loop records only what it alone knows: the buffer, the bandwidth estimate and
the reference per step, the held bitrate and iP correction per decision.  The
other log columns (clock, measured buffer, per-step bitrate and correction,
regime, stall flag, per-decision samples) are derived from those after it.
"""
from collections import namedtuple

import numpy as np

from ._accel import as_floats, maybe_njit

# Distance between the measured buffer and the replanned reference beyond
# which the reference correction restarts at the buffer.
RESTART_GAP = 2.0

# The episode kernel's result, named as the matching ``EpisodeLog`` fields.
EpisodeArrays = namedtuple("EpisodeArrays", ("t", "x", "x_meas", "R", "c_est", "u", "ref",
                                             "regime", "stalled", "t_k", "R_k", "x_k"))


@maybe_njit
def bezier_eval(t, t0, tf, x0, xf):
    """Ramp profile x0 -> xf over [t0, tf], C^3-smooth, clamped outside."""
    if t <= t0:
        return x0
    if t >= tf:
        return xf
    T = (t - t0) / (tf - t0)
    p = T**4 * (70.0 + T * (-224.0 + T * (280.0 + T * (-160.0 + T * 35.0))))
    return x0 + (xf - x0) * p


@maybe_njit
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


@maybe_njit
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


@maybe_njit
def ladder_below(c, ladder):
    """Largest ladder element strictly below c (clamped to the smallest)."""
    out = ladder[0]
    for i in range(len(ladder)):
        if ladder[i] < c:
            out = ladder[i]
        else:
            break
    return out


@maybe_njit
def ladder_above(c, ladder):
    """Smallest ladder element strictly above c (clamped to the largest)."""
    out = ladder[len(ladder) - 1]
    for i in range(len(ladder) - 1, -1, -1):
        if ladder[i] > c:
            out = ladder[i]
        else:
            break
    return out


@maybe_njit
def ring_dot(w, ring, start):
    """Dot of weights with a ring buffer read oldest-first from start."""
    n = len(w)
    acc = 0.0
    for i in range(n):
        acc += w[i] * ring[(start + i) % n]
    return acc


@maybe_njit
def bandwidth_from_window(R, w_lin, xs, start, tau):
    """Closed-form bandwidth estimate from a window of buffer samples."""
    return R * (1.0 - 6.0 / tau**3 * ring_dot(w_lin, xs, start))


@maybe_njit
def f_from_window(w_lin, w_bump, ys, us, start, alpha, tau):
    """Windowed estimate of the lumped drift F of the ultra-local model."""
    return -6.0 / tau**3 * (ring_dot(w_lin, ys, start) + alpha * ring_dot(w_bump, us, start))


@maybe_njit
def ip_control(f_est, ref_rate, e, alpha, kp):
    """Intelligent-proportional feedback correction."""
    return -(f_est - ref_rate + kp * e) / alpha


@maybe_njit
def feedforward(c_nominal, ref_slope):
    """Flat inversion of the playback dynamics along the reference."""
    return c_nominal / (ref_slope + 1.0)


@maybe_njit
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


def _episode_loop(c_true, c_meas, x_noise, ladder, w_lin, w_bump,
                  Te, delta, Delta,
                  t0, tf, x0, xf,
                  alpha, kp, tau, decision_interval,
                  replan_enabled, lower_bound, upper_bound):
    """Fused inner loop for one episode.

    Per Te step: measure, update estimator windows, replan the reference,
    at the chunk cadence pick the bitrate, then Euler-step the true plant.
    The loop stores the buffer ``x``, the estimate ``c_est`` and the
    reference ``ref`` per step, and the held bitrate ``R_k`` and iP
    correction ``u_k`` per decision.  Everything else in the returned
    ``EpisodeArrays`` is derived from those after the loop: the bitrate and
    correction are held between decisions, and the regime and stall flag are
    functions of the clock and the buffer.
    """
    n = len(c_true)
    win = len(w_lin)
    ratio = int(round(decision_interval / Te))
    n_chunks = (n + ratio - 1) // ratio

    x_a = np.empty(n)
    cest_a = np.empty(n)
    ref_a = np.empty(n)
    Rk = np.empty(n_chunks)
    uk = np.empty(n_chunks)

    # convert once: the interpreted loop then computes on Python floats
    # (x_noise stays an array for the measured buffer derived after the loop)
    c_true = as_floats(c_true)
    c_meas = as_floats(c_meas)
    noise = as_floats(x_noise)
    ladder = as_floats(ladder)
    w_lin = as_floats(w_lin)
    w_bump = as_floats(w_bump)
    x_ring = as_floats(np.zeros(win))
    u_ring = as_floats(np.zeros(win))
    cm_ring = as_floats(np.zeros(win))
    cm_sum = 0.0

    x = 0.0
    cur_R = ladder[0]
    u_held = 0.0  # zero-order-held continuous correction, the estimator's input
    cest = np.nan
    have_cest = False
    last_bad = -1           # last step violating the estimate's window conditions
    last_valid = -1
    last_R_change = 0
    replan_active = False
    dirn = 1
    coef = ladder[0]
    y_ad = 0.0

    for k in range(n):
        t = k * Te
        playing = t >= delta and x >= Delta
        xm = x * (1.0 + noise[k])
        cm = c_meas[k]

        base = bezier_eval(t, t0, tf, x0, xf)
        base_slope = bezier_derivative(t, t0, tf, x0, xf, 1)

        idx = k % win
        x_ring[idx] = xm
        u_ring[idx] = u_held
        cm_sum += cm - cm_ring[idx]
        cm_ring[idx] = cm
        cm_bar = cm_sum / min(k + 1, win)
        start = (k + 1) % win

        # Bandwidth estimate: valid only late enough, in playback regime with
        # x above the chunk duration and an unchanged bitrate over the window.
        # A non-positive value (measurement noise) is never acted on: the last
        # positive estimate and its validity clock are kept instead.
        if not (playing and xm > Delta):
            last_bad = k
        if t > delta + tau and k - last_bad >= win and k - last_R_change >= win:
            c_new = bandwidth_from_window(cur_R, w_lin, x_ring, start, tau)
            if c_new > 0.0:
                cest = c_new
                have_cest = True
                last_valid = k

        # the held estimate goes stale one window after validity is lost;
        # fall back to the window-averaged capacity measurement until it recovers
        if have_cest and k - last_valid <= win:
            c_known = cest
        else:
            c_known = cm_bar

        if replan_enabled and have_cest:
            if not replan_active:
                replan_active = True
                dirn = 1
                coef = ladder_below(c_known, ladder)
                # start the correction aligned with the measured buffer so the
                # combined reference takes over without an error jump
                y_ad = xm - base
            if xm > upper_bound and dirn == 1:
                dirn = -1
            if xm < lower_bound and dirn == -1:
                dirn = 1
            if dirn == 1:
                coef = ladder_below(c_known, ladder)
            else:
                coef = ladder_above(c_known, ladder)
            y_ad += (c_known / coef - 1.0) * Te
            # a capacity jump leaves the reference far from the buffer; restart
            # the correction there instead of burning switches on the transient
            if abs(xm - (base + y_ad)) > RESTART_GAP:
                y_ad = xm - base

        ref = base + y_ad
        ref_rate = base_slope
        if replan_active:
            ref_rate += c_known / coef - 1.0

        # flat inversion along the full (replanned) reference
        rstar = feedforward(c_known, ref_rate)

        if k % ratio == 0:
            if k >= win - 1:
                f_est = f_from_window(w_lin, w_bump, x_ring, u_ring, start, alpha, tau)
                e = xm - ref
                u_cont = ip_control(f_est, ref_rate, e, alpha, kp)
            else:
                u_cont = 0.0  # estimator warm-up: pure feedforward
            r_cont = rstar + u_cont
            new_R, _eps = quantize(r_cont, ladder)
            if new_R != cur_R:
                last_R_change = k
                cur_R = new_R
            u_held = u_cont
            u_ring[idx] = u_held
            Rk[k // ratio] = cur_R
            uk[k // ratio] = u_held

        x_a[k] = x
        cest_a[k] = cest
        ref_a[k] = ref

        x = plant_step(x, t, cur_R, c_true[k], Te, delta, Delta)

    t_a = np.arange(n) * Te
    started = t_a >= delta
    return EpisodeArrays(t_a, x_a, x_a * (1.0 + x_noise),
                         np.repeat(Rk, ratio)[:n], cest_a, np.repeat(uk, ratio)[:n], ref_a,
                         (started & (x_a >= Delta)).astype(np.int8),
                         (started & (x_a < Delta)).astype(np.int8),
                         t_a[::ratio], Rk, x_a[::ratio])


# Compiled entry point; _episode_loop itself stays callable as the
# uncompiled reference path (the callees dispatch through their wrappers).
episode_loop = maybe_njit(_episode_loop)
