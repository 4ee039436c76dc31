"""Hypothesis strategies over configurations that ``RunConfig.validate``
accepts, alone and with a batch of seeds."""
from dataclasses import replace
from itertools import accumulate

from hypothesis import strategies as st

from abrlab.config import EMIT_CHOICES, RAMP_PEAK_SLOPE, S3_DIP_MAX, RunConfig


def _levels(draw, lo_max):
    lo = draw(st.floats(0.05, lo_max))
    return lo, lo + draw(st.floats(0.0, 3.0))


# printable text without '#' or whitespace at either end, which a config file
# would read back otherwise
_outs = st.text(st.characters(exclude_categories=("C", "Zl", "Zp"),
                              exclude_characters="#")).map(str.strip)


@st.composite
def run_configs(draw):
    """Valid configs over the window, cadence, replanning, ladder, noise, the
    reference ramp, the duration, the controller gains, the plant, the
    capacity scenarios, the output directory and the emitted outputs."""
    # Hypothesis favours the first choice of an early draw: scenario 1 listed
    # first (or drawn last) took about 60% of the examples; this way round
    # scenarios 2 and 3, where the segment, dip and fallback paths run, each
    # get at least a quarter of a derandomized run
    scenario = draw(st.sampled_from((2, 1, 3)))
    te = draw(st.sampled_from((0.05, 0.1, 0.2)))
    decision_interval = te * draw(st.integers(1, 40))
    lower = draw(st.floats(0.0, 10.0, exclude_min=True))
    ladder = draw(st.lists(st.floats(0.1, 6.0), min_size=1, max_size=6, unique=True))
    t0 = draw(st.floats(0.0, 20.0))
    span = draw(st.floats(0.5, 40.0))
    xf = draw(st.floats(0.0, 15.0))
    # a falling ramp must stay slower than playback drains the buffer
    x0 = xf + draw(st.floats(-xf, 0.99 * span / RAMP_PEAK_SLOPE))
    duration = draw(st.floats(decision_interval + te, 60.0))
    # the startup delay comes at or before the last decision
    ratio = round(decision_interval / te)
    last_decision = (round(duration / te) - 1) // ratio * ratio * te
    s2_lo, s2_hi = _levels(draw, 3.0)
    s3_lo, s3_hi = _levels(draw, S3_DIP_MAX)
    cfg = RunConfig(
        scenario=scenario, replan=draw(st.booleans()), te=te,
        tau=te * draw(st.integers(2, 30)), decision_interval=decision_interval,
        replan_lower=lower, replan_upper=lower + draw(st.floats(0.1, 10.0)),
        ladder=sorted(ladder), x_noise=draw(st.floats(0.0, 0.99)),
        t0=t0, tf=t0 + span, x0=x0, xf=xf,
        duration=duration, out=draw(_outs),
        emit=draw(st.lists(st.sampled_from(EMIT_CHOICES), unique=True)),
        c0=draw(st.floats(0.05, 6.0)), kp=draw(st.floats(0.01, 2.0)),
        alpha=draw(st.floats(-50.0, -0.5)),
        delta_startup=draw(st.floats(0.0, min(20.0, last_decision))),
        chunk_duration=te * draw(st.integers(1, 60)),
        s2_segment=te * draw(st.integers(1, 600)), s2_level_lo=s2_lo, s2_level_hi=s2_hi,
        s2_noise=draw(st.floats(0.0, 0.99)),
        s3_segment=te * draw(st.integers(1, 600)), s3_level_lo=s3_lo, s3_level_hi=s3_hi,
        s3_noise=draw(st.floats(0.0, 0.99)))
    cfg.validate()
    return cfg


@st.composite
def seed_batches(draw):
    """A valid config and two or three distinct seeds.  Half the configs
    measure the buffer exactly, so a scenario-1 batch draws the same inputs
    for every seed and shares one episode; the others draw their own."""
    cfg = draw(run_configs())
    if draw(st.booleans()):
        cfg = replace(cfg, x_noise=0.0)
    gaps = draw(st.lists(st.integers(1, 100), min_size=1, max_size=2))
    return cfg, draw(st.permutations(list(accumulate([draw(st.integers(0, 1000)), *gaps]))))
