"""Hypothesis strategies over configurations that ``RunConfig.validate``
accepts, alone and with a batch of seeds.

A float field is drawn from its declared bounds (``_param`` metadata) cut to
a finite box, inside the declared magnitude ranges of the rates and gains.
The boxes bound the magnitudes, and with them an example's cost, for two
reasons: tier-1 time, and that ``validate`` does not yet bound products of
fields (such as duration x capacity / rung), so some configs it accepts far
out of the boxes do not run (ROADMAP item 1).  te takes three values and the
grid fields whole multiples of it."""
from dataclasses import fields, replace
from itertools import accumulate

from hypothesis import strategies as st

from abrlab.config import EMIT_CHOICES, RAMP_PEAK_SLOPE, RunConfig

_RULES = {f.name: f.metadata["rules"] for f in fields(RunConfig)}


def _floats(name, lo, hi):
    """Floats in the box [lo, hi] that the field ``name`` declares valid."""
    b = _RULES[name]
    return st.floats(max(lo, b.get("gt", b.get("ge", lo))), min(hi, b.get("lt", b.get("le", hi))),
                     exclude_min=b.get("gt", lo - 1) >= lo, exclude_max=b.get("lt", hi + 1) <= hi)


def _scenario(draw, sid, te):
    """Valid ``s{sid}_*`` fields: a segment on the te grid, ordered levels
    and the measurement noise."""
    lo = draw(_floats(f"s{sid}_level_lo", 0.05, 3.0))
    return {f"s{sid}_segment": te * draw(st.integers(1, 600)), f"s{sid}_level_lo": lo,
            f"s{sid}_level_hi": lo + draw(st.floats(0.0, 3.0)),
            f"s{sid}_noise": draw(_floats(f"s{sid}_noise", 0.0, 1.0))}


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
    lower = draw(_floats("replan_lower", 0.0, 10.0))
    ladder = draw(st.lists(_floats("ladder", 0.1, 6.0), min_size=1, max_size=6, unique=True))
    t0 = draw(_floats("t0", 0.0, 20.0))
    span = draw(st.floats(0.5, 40.0))
    xf = draw(_floats("xf", 0.0, 15.0))
    # a falling ramp must stay slower than playback drains the buffer
    x0 = xf + draw(st.floats(-xf, 0.99 * span / RAMP_PEAK_SLOPE))
    duration = draw(st.floats(decision_interval + te, 60.0))
    # the startup delay comes at or before the last decision
    ratio = round(decision_interval / te)
    last_decision = (round(duration / te) - 1) // ratio * ratio * te
    cfg = RunConfig(
        scenario=scenario, replan=draw(st.booleans()), te=te,
        tau=te * draw(st.integers(2, 30)), decision_interval=decision_interval,
        replan_lower=lower, replan_upper=lower + draw(st.floats(0.1, 10.0)),
        ladder=sorted(ladder), x_noise=draw(_floats("x_noise", 0.0, 1.0)),
        t0=t0, tf=t0 + span, x0=x0, xf=xf,
        duration=duration, out=draw(_outs),
        emit=draw(st.lists(st.sampled_from(EMIT_CHOICES), unique=True)),
        c0=draw(_floats("c0", 0.05, 6.0)), kp=draw(_floats("kp", 0.01, 2.0)),
        alpha=draw(_floats("alpha", -50.0, -0.5)),
        delta_startup=draw(_floats("delta_startup", 0.0, min(20.0, last_decision))),
        chunk_duration=te * draw(st.integers(1, 60)),
        **_scenario(draw, 2, te), **_scenario(draw, 3, te))
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
