"""The control law and the plant, as numeric kernels in plain Python.

The fused ``episode_loop`` is the one implementation of the controller and
of the plant; its docstring states what it computes and returns, and how.
The other functions are its pieces: the reference ramp, the quantizer, the
replanning rung, the control law and the generated window dots, and the
per-step estimate column that the episode log derives (``held_estimates``).
They take arrays or lists alike: the loop hands them Python floats, which
are much cheaper to compute with than NumPy scalars and give the same IEEE
results.
"""
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import inf, nan

import numpy as np

# Distance between the measured buffer and the replanned reference beyond
# which the reference correction restarts at the buffer.
RESTART_GAP = 2.0
# Products summed per statement of a generated window dot.
DOT_TERMS = 64
# Products in one generated block of window dots: a block holds as many whole
# windows as fit, and at least one, so its source and compile time stay
# bounded at any window length (at 4,001 taps a block is one window).
BLOCK_TERMS = 512


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
    ``replan_rung``).  Ties are resolved with a small relative tolerance so
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


def replan_rung(c, dirn, ladder):
    """The replanning slope's rung for the rate c and the direction dirn, and
    the open interval (lo, hi) of rates that share it.

    Going up (dirn 1) the rung is the largest strictly below c, going down
    the smallest strictly above it, clamped to the ladder's ends.  (lo, hi)
    are the adjacent rungs with lo < c <= hi, unbounded past either end:
    every rate strictly inside gets the same rung, and a c on a rung is its
    interval's hi, so outside it.
    """
    i = bisect_left(ladder, c)
    if dirn == 1:
        coef = ladder[max(i - 1, 0)]
    else:
        coef = ladder[min(bisect_right(ladder, c, i), len(ladder) - 1)]
    return coef, (ladder[i - 1] if i > 0 else -inf), (ladder[i] if i < len(ladder) else inf)


@lru_cache(maxsize=64)
def window_dot(w, m):
    """The dots of the weights ``w`` (a tuple of floats) with ``m`` consecutive
    windows of samples, as a generated function ``dot(xs, start)``, one per
    weight vector and block size ``m``.

    ``dot`` returns a list of ``m`` dots, the i-th of the window that starts
    at ``start + i``: ``0.0 + w[0] * xs[start + i] + w[1] * xs[start + i + 1]
    + ...``, oldest sample first, each weight written as its float's ``repr``:
    the products and additions of a loop over the taps, in the same order,
    without its per-tap bytecode.  It loads each of the block's ``len(w) + m -
    1`` samples into a local once, by unpacking one slice, so ``xs`` must hold
    all of them.  The episode loop's sample histories start with len(w) - 1
    zeros, so the window ending at step k starts at index k.  Given array rows
    for samples (``held_estimates``), each dot is an array, elementwise the
    same.  A statement sums at most ``DOT_TERMS`` products, because one
    expression of thousands of terms overflows the compiler's recursion.  The
    dots are a list, not a tuple: CPython 3.11 keeps every freed 20-item tuple
    on a free list that it never takes them from again, up to 2,000 of them.
    """
    samples = len(w) + m - 1
    src = [f"def dot(xs, start):\n    {''.join(f's{i}, ' for i in range(samples))}"
           f"= xs[start:start + {samples}]\n"]
    for j in range(m):
        terms = [f"{float(wi)!r} * s{i + j}" for i, wi in enumerate(w)]
        src += (f"    d{j} = {f'd{j}' if i else '0.0'} + {' + '.join(terms[i:i + DOT_TERMS])}\n"
                for i in range(0, len(terms), DOT_TERMS))
    src.append(f"    return [{', '.join(f'd{j}' for j in range(m))}]\n")
    scope = {"inf": inf, "nan": nan}  # the repr of a non-finite weight
    exec(compile("".join(src), "<window_dot>", "exec"), scope)
    return scope["dot"]


def bandwidth_from_window(R, dot, tau):
    """Closed-form bandwidth estimate from the linear-kernel dot of a window
    of buffer samples (a scalar, or an array of them)."""
    return R * (1.0 - 6.0 / tau**3 * dot)


def held_estimates(x_meas, valid, R_before, w_lin, tau):
    """Per-step bandwidth estimate column: the last positive estimate at a
    valid step, NaN before the first.

    ``w_lin`` is the linear kernel's weights, a tuple of floats.  Each window
    dot is the read's ``window_dot`` over the zero-padded measured buffer, the
    same products added in the same order elementwise, and each
    estimate uses the bitrate held before its step's decision, so every value
    is bitwise the loop's scalar estimate.
    """
    n = len(x_meas)
    xp = np.concatenate((np.zeros(len(w_lin) - 1), x_meas))
    # row i is xp[i:i + n]: the i-th sample of every window
    (dot,) = window_dot(w_lin, 1)([xp[i:i + n] for i in range(len(w_lin))], 0)
    est = bandwidth_from_window(R_before, dot, tau)
    keep = valid & (est > 0.0)
    # the running count of kept steps indexes the m-th kept estimate after a
    # leading NaN, which forward-fills them
    return np.concatenate(([np.nan], est[keep]))[np.cumsum(keep)]


def f_from_window(lin, bump, alpha, tau):
    """Windowed estimate of the lumped drift F of the ultra-local model, from
    the window dots of the buffer with the linear kernel weights (``lin``) and
    of the held correction with the bump kernel weights (``bump``)."""
    return -6.0 / tau**3 * (lin + alpha * bump)


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


@lru_cache(maxsize=1)
def reference_ramp(n, te, t0, tf, x0, xf):
    """The reference ramp's first flat step ``k_flat`` and its values at
    steps 0..n-1 as a tuple: ``bezier_eval(k * te) + 0.0`` (so a ``-0.0``
    level is recorded as ``+0.0``), one float object from ``k_flat`` on.
    Every episode of a run has the same ramp, so it is computed once; the
    episode loop copies it, as replanning overwrites its reference in place.
    """
    k_flat = clock_step(n, lambda k: not k * te < tf)
    return k_flat, (*(bezier_eval(k * te, t0, tf, x0, xf) + 0.0 for k in range(k_flat)),
                    *repeat(xf + 0.0, n - k_flat))


def _episode_loop(c_true, c_meas, x_noise, w_lin, w_bump, cfg):
    """Fused inner loop for one episode of the config ``cfg``, and the one
    implementation of the controller and of the plant.

    Returns what the loop alone records: the buffer ``x`` and the reference
    ``ref`` per step as lists, the estimate's validity flag ``valid`` per step
    as an array, and the held bitrate ``R_k``, iP correction ``u_k`` and
    buffer ``x_k`` per decision as arrays.  ``ref`` is the reference ramp's
    list, each step overwritten with the replanned reference when replanning
    is on.  ``x`` is the steps' slice of the measured-buffer history when the
    buffer is measured exactly (every noise 0.0 or -0.0, as in the paper's
    runs: the measured buffer is then the buffer, bitwise), and otherwise the
    list the loop stored the buffer in beside its noisy measurement.  ``u_k``
    and ``x_k`` are read at the decision steps, from the held-correction
    history and from ``x``.  ``plant.EpisodeLog`` holds those and derives each
    other log column on its first read: ``x`` and ``ref`` as arrays, the
    bitrate and correction held between decisions, the regime and stall flag
    as functions of the clock and the buffer, and ``c_est`` as the last
    positive estimate at a valid step (``held_estimates``).

    The loop runs one decision interval at a time, up to and including the
    next decision step (or the episode's end), in three stages: the plant over
    the interval's steps, then the controller's stage at the steps its arm
    reads, then the decision.  The order is exact, the same float operations
    in the same order as step by step: with the bitrate held, the plant
    between decisions reads neither the estimator nor the reference, and the
    controller reads only the plant's samples up to its own step.

    The plant is one explicit-Euler step of the client buffer per te step,
    draining at the playback rate only while playing (from the startup on,
    with the buffer at or above the chunk duration), clamped at empty.  Step
    0 is reached from an empty buffer at zero capacity, which leaves it empty.
    The capacity is piecewise constant: the steps where each run of it starts
    are found once per episode, and the plant's two increments (playing,
    filling) are computed at each run start and at each interval's first
    step, where the bitrate may have changed.  Each step it records the
    measured buffer, the held correction and the estimate's validity.  An
    interval is steady when the buffer is measured exactly, the plant is
    playing as it starts (so past the startup), and its steps, at least
    one, lie in one capacity run.  There the buffer is ``accumulate`` of the
    one increment from the last step's buffer, the same additions in the
    same order, kept when the interval's first and last buffers are above
    the chunk duration: the partial sums are monotone, so every step then
    plays, no clamp fires, and the steps are valid from ``valid_from`` on.
    Any other interval, and every interval of a noisy buffer, runs the step
    loop, which is the reference: on a steady interval it gives the same
    floats.  A
    step is valid from one threshold step on, ``valid_from``: a whole window
    after the last step that spoiled the window (out of playback, the
    measured buffer at or below the chunk duration, or a bitrate change),
    and not before the clock is a whole window into playback.  The
    threshold is reset wherever the window is spoiled.

    With replanning on, the controller's stage runs at every step: every step
    is a read, so a read is that step's own estimate, taken if the step is
    valid and the estimate positive; otherwise the step reads the held
    estimate, or the fallback below once that is stale.  Its window dots
    come from ``window_dot``, one call per block of consecutive steps (up to
    ``BLOCK_TERMS`` products, blocks spread evenly over an interval, a block
    with no valid step and no decision skipped).  With replanning off, the
    stage is the decision step alone: its read scans back over the interval
    for the newest valid step with a positive estimate, one window dot per
    step it tries.  In both arms an estimate more than one window old is
    stale, and the window-averaged capacity measurement is read instead.  A
    read that is neither fresh nor stale leaves the last read's value,
    ``c_known``, unchanged, and that value is the held estimate: the read
    before it was the estimate's own or held it, and once a read is stale
    every later read is stale until the next estimate.  The
    estimate is ``bandwidth_from_window`` written in line, and the decision's
    drift estimate reuses the dot at its step.  The reference ramp,
    ``bezier_eval(k * te) + 0.0`` per step (so a ``-0.0`` level is recorded
    as ``+0.0``), is written once, before the loop, for both arms: without
    replanning it is the reference, and with replanning the controller's
    stage overwrites each step with the ramp plus the replanning correction.

    A steady interval is steady for the replanning controller too when it
    starts on the ramp's plateau (at or past ``k_flat``), every step of it is
    valid (``valid_from`` at or before its first step) and replanning has
    started: no step of it can then change the validity test, the start of
    replanning or the ramp value read.  There the steady controller takes
    each step's own estimate and runs the flip test, the rung test and
    lookup, the correction and the restart test against the plateau ``xf +
    0.0``: the step controller's float operations, in its order.  It stores
    the held estimate's step once, at its end.  At a non-positive
    estimate it hands the rest of the interval to the step controller, which
    runs every other interval and is the reference.

    Replanning starts at the first positive estimate at a valid step, with
    its correction aligned with the measured buffer.  The replanning slope
    divides the read by the rung below it on the way up, above it on the way
    down.  That rung and the open interval between the rungs around the read
    are looked up together (``replan_rung``), and again only when the read
    leaves that interval or lands on a rung; in between it is the same rung.
    A flip of the direction empties the interval, so the next read looks up
    the new direction's rung.

    The clock is step indices.  Each test of the clock ``t = k * te`` against
    a time (playback may start, a whole window into playback, the ramp ends)
    holds from one step on, found once per episode (``clock_step``); ``k *
    te`` is computed only where the ramp and its slope are evaluated.

    The flat inversion needs a reference slope above -1.  A decision whose
    combined (ramp plus replanning) slope is at most -1 makes an unbounded
    request, the inversion's limit as the slope falls to -1, and so gets the
    top rung.
    """
    te, delta_startup, chunk_duration = cfg.te, cfg.delta_startup, cfg.chunk_duration
    t0, tf, x0, xf = cfg.t0, cfg.tf, cfg.x0, cfg.xf
    alpha, kp, tau = cfg.alpha, cfg.kp, cfg.tau
    valid_after = delta_startup + tau  # a whole window into playback
    replan, replan_lower, replan_upper = cfg.replan, cfg.replan_lower, cfg.replan_upper
    n = len(c_true)
    win = len(w_lin)
    pad = win - 1
    ratio = cfg.decision_steps
    gain = 6.0 / tau**3  # bandwidth_from_window's kernel gain

    # the first step of each clock test: t >= delta_startup and t > valid_after
    k_startup = clock_step(n, lambda k: k * te >= delta_startup)
    k_valid = clock_step(n, lambda k: k * te > valid_after)

    # the window-averaged capacity measurement, the fallback for a stale
    # estimate: one sequential running sum of sample in minus sample out;
    # read at a few percent of the steps, so not converted to a list; a sum
    # that overflows gives a non-finite x, which run_episode reports
    c_out = np.concatenate((np.zeros(win), c_meas))[:n]
    with np.errstate(over="ignore"):
        cm_bar = np.cumsum(c_meas - c_out) / np.minimum(np.arange(1, n + 1), win)

    # convert once: the loop computes on Python floats and stores into lists,
    # returned as they are (the log converts them when read).  The plant's
    # input at step k is the capacity that Euler-steps the buffer from step
    # k - 1 into step k: zero at step 0, which leaves the empty buffer empty.
    # It is held in runs: run i starts at step run_start[i] at capacity
    # run_c[i], and the last run ends at the sentinel n
    c_in = np.concatenate(([0.0], c_true[:-1]))
    run_start = [0, *(np.flatnonzero(np.diff(c_in)) + 1).tolist(), n]
    run_c = c_in[run_start[:-1]].tolist()
    # the measured buffer per unit of buffer, and the buffer beside its
    # measurement, for a noisy buffer only: a noise of 0.0 or -0.0 gives a
    # gain of exactly 1.0, and x * 1.0 is x bitwise, so an exactly measured
    # buffer is stored once, in the measured history, whose steps are the
    # returned x
    noisy = bool(x_noise.any())
    x_gain = (1.0 + x_noise).tolist() if noisy else None
    x_a = [0.0] * n if noisy else None
    ladder = [float(r) for r in cfg.ladder]
    # the reference per step: a copy of the ramp, which reads nothing the
    # loop computes, flat from k_flat on (t >= tf); with replanning on, the
    # controller overwrites each step's slot with the ramp plus its correction
    k_flat, ramp = reference_ramp(n, te, t0, tf, x0, xf)
    ramp = list(ramp)
    plateau = xf + 0.0
    # with replanning on, the reads' window dots come in blocks of b windows:
    # the fewest blocks of at most BLOCK_TERMS products that cover an
    # interval, evenly sized; with it off, the decision's one window
    if replan:
        blocks = -(-ratio // max(1, BLOCK_TERMS // win))  # rounded up
        b = -(-ratio // blocks)
        dots = [0.0] * (ratio + b)  # an interval's window dots, by step from its first
    else:
        b = 1
    read_dot = window_dot(w_lin, b)
    bump_dot = window_dot(w_bump, 1)
    # measured buffer and held correction, zero-padded by win - 1 samples
    # so the window ending at step k starts at index k; the buffer has b - 1
    # more at the end, read by a block that runs past the last step
    x_hist = [0.0] * (n + pad + b - 1)
    u_hist = [0.0] * (n + pad)
    valid = bytearray(n)
    Rk = []

    x = 0.0
    playing = False
    cur_R = ladder[0]
    u_held = 0.0  # zero-order-held continuous correction, the estimator's input
    valid_from = max(win, k_valid)  # first step that may be valid (x = 0 at step 0)
    last_valid = -win - 1   # step of the held estimate; stale from the start
    dirn = 1  # replanning starts on the way up
    y_ad = 0.0
    # the replanning rung coef holds for c_known in (coef_lo, coef_hi),
    # emptied by a flip of dirn; none yet
    coef_lo = coef_hi = 0.0

    # e is the interval's decision step, n after the last decision
    lo = 0
    for e in chain(range(0, n, ratio), (n,)):
        hi = e + 1 if e < n else n

        # the plant, Euler-stepped into each step lo..hi-1 at the held bitrate
        # and correction.  Its increments are computed at the interval's
        # first step (the bitrate may have changed) and at each run start
        u_hist[lo + pad:hi + pad] = [u_held] * (hi - lo)
        run = bisect_right(run_start, lo) - 1  # the run that holds step lo
        next_inc = first = lo  # the step loop's first step
        if playing and not noisy and lo < hi <= run_start[run + 1]:
            # a steady interval: one running sum, kept only if its monotone
            # partial sums all play; else the step loop overwrites the slots
            x_hist[lo + pad - 1:hi + pad] = accumulate(
                repeat(te * (run_c[run] / cur_R - 1.0), hi - lo), initial=x)
            if x_hist[lo + pad] > chunk_duration and x_hist[hi + pad - 1] > chunk_duration:
                x = x_hist[hi + pad - 1]
                m = max(lo, valid_from)
                valid[m:hi] = b"\x01" * (hi - m)  # empty when m >= hi
                first = hi
        for k in range(first, hi):
            if k == next_inc:
                r = run_c[run] / cur_R
                inc_play, inc_fill = te * (r - 1.0), te * r
                run += 1
                next_inc = run_start[run]
            x += inc_play if playing else inc_fill
            if x < 0.0:
                x = 0.0
            if noisy:
                x_a[k] = x
                xm = x * x_gain[k]
            else:
                xm = x
            x_hist[k + pad] = xm
            # the estimate's window conditions: late enough, in playback
            # regime with x above the chunk duration and an unchanged bitrate
            playing = k >= k_startup and x >= chunk_duration
            if not (playing and xm > chunk_duration):
                valid_from = max(k + win, k_valid)
            elif k >= valid_from:
                valid[k] = 1

        if replan:
            # the window dots of the interval's steps, skipping a block with
            # no valid step (no read takes its dot) unless it holds the
            # decision step, whose dot the drift estimate takes
            for s in range(lo, hi, b):
                if s + b > e or valid.find(1, s, s + b) >= 0:
                    dots[s - lo:s - lo + b] = read_dot(x_hist, s)
            # the steady controller: on a steady interval (the plant kept its
            # running sum, so first > lo) of valid steps on the plateau, once
            # replanning has started, each read is its step's estimate until
            # one is not positive, from which step on the step loop below runs
            start = lo  # the step loop's first step
            if first > lo and lo >= k_flat and valid_from <= lo and last_valid >= 0:
                for start, d, xm in zip(range(lo, hi), dots, x_hist[lo + pad:hi + pad]):
                    if not (c_new := cur_R * (1.0 - gain * d)) > 0.0:
                        break
                    c_known = c_new
                    if (xm > replan_upper) if dirn == 1 else (xm < replan_lower):
                        dirn = -dirn
                        coef_lo = coef_hi
                    if not coef_lo < c_known < coef_hi:
                        coef, coef_lo, coef_hi = replan_rung(c_known, dirn, ladder)
                    ad_rate = c_known / coef - 1.0
                    y_ad += ad_rate * te
                    ref = plateau + y_ad
                    if abs(xm - ref) > RESTART_GAP:
                        y_ad = xm - plateau
                        ref = plateau + y_ad
                    ramp[start] = ref
                else:
                    start = hi
                if start > lo:
                    last_valid = start - 1
            # the controller over the same steps: every step is a read, so a
            # read is its own step's estimate.  A non-positive value
            # (measurement noise) is never acted on: the last positive
            # estimate and its validity clock are kept instead
            for k in range(start, hi):
                base = ramp[k]
                if valid[k] and (c_new := cur_R * (1.0 - gain * dots[k - lo])) > 0.0:
                    if last_valid < 0:
                        # replanning starts here, its correction aligned with
                        # the measured buffer so the combined reference takes
                        # over without an error jump
                        y_ad = x_hist[k + pad] - base
                    c_known = c_new
                    last_valid = k
                elif k - last_valid > win:
                    # the held estimate goes stale one window after validity
                    # is lost; fall back to the window-averaged capacity
                    # measurement until it recovers.  A read that is neither
                    # fresh nor stale keeps c_known, the held estimate
                    c_known = cm_bar[k].item()
                if last_valid >= 0:
                    xm = x_hist[k + pad]
                    # past the bound ahead, the direction flips and the
                    # emptied rung interval makes this read look up its rung
                    if (xm > replan_upper) if dirn == 1 else (xm < replan_lower):
                        dirn = -dirn
                        coef_lo = coef_hi
                    if not coef_lo < c_known < coef_hi:
                        coef, coef_lo, coef_hi = replan_rung(c_known, dirn, ladder)
                    ad_rate = c_known / coef - 1.0
                    y_ad += ad_rate * te
                    # a capacity jump leaves the reference far from the
                    # buffer; restart the correction there instead of burning
                    # switches on the transient
                    if abs(xm - (base + y_ad)) > RESTART_GAP:
                        y_ad = xm - base
                ramp[k] = base + y_ad
            dot = dots[e - lo]
        elif e < n:
            # the decision's read: the newest valid step of the interval with
            # a positive estimate; every step of the interval held cur_R
            dot = read_dot(x_hist, e)[0]
            j = valid.rfind(1, lo, hi)
            while j >= 0:
                c_new = cur_R * (1.0 - gain * (dot if j == e else read_dot(x_hist, j)[0]))
                if c_new > 0.0:
                    c_known = c_new
                    last_valid = j
                    break
                j = valid.rfind(1, lo, j)
            # the same staleness fallback as with replanning
            if e - last_valid > win:
                c_known = cm_bar[e].item()
        if e == n:
            break

        # the decision
        ref_rate = bezier_derivative(e * te, t0, tf, x0, xf) if e < k_flat else 0.0
        if replan and last_valid >= 0:
            ref_rate += ad_rate
        if e >= win - 1:
            f_est = f_from_window(dot, bump_dot(u_hist, e)[0], alpha, tau)
            u_held = ip_control(f_est, ref_rate, x_hist[e + pad] - ramp[e], alpha, kp)
        else:
            u_held = 0.0  # estimator warm-up: pure feedforward
        # flat inversion along the full (replanned) reference; a reference
        # draining at least as fast as playback requests an unbounded rate,
        # the inversion's limit as the slope falls to -1: the top rung
        new_R = quantize(feedforward(c_known, ref_rate) + u_held if ref_rate > -1.0
                         else inf, ladder)
        if new_R != cur_R:
            valid_from = max(e + win, k_valid)  # a bitrate change spoils the window too
            cur_R = new_R
        u_hist[e + pad] = u_held
        Rk.append(cur_R)
        lo = hi

    xs = x_a if noisy else x_hist[pad:pad + n]
    return (xs, ramp, np.frombuffer(valid, dtype=bool), np.array(Rk, dtype=float),
            np.array(u_hist[pad::ratio], dtype=float), np.array(xs[::ratio], dtype=float))


# perfbench traces ``episode_loop`` and profiles ``_episode_loop`` by its code name
episode_loop = _episode_loop
