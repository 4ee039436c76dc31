"""Hypothesis strategies over configurations (a ``RunConfig`` checks its
rules when it is made), and the table of configurations that are refused
(``REFUSED``).

``run_configs`` and ``seed_batches`` draw valid configs, alone and with a
batch of seeds.  A float field is drawn uniformly from its declared bounds
(``_param`` metadata) cut to a box of the magnitudes the paper's runs use;
te takes three values and the grid fields whole multiples of it.

``exponent_fields`` draws the field values of a config by binary exponent
over the whole declared magnitude range of each float field, so a draw may
still break a rule across fields and be refused.  Its box bounds only the
step and tap counts: an episode spans at most ``FUZZ_STEPS`` te steps and a
window at most ``FUZZ_TAPS``, so one example costs at most one short
episode."""
import math
from dataclasses import fields, replace
from itertools import accumulate

from hypothesis import strategies as st

from abrlab.config import (BUFFER_MAX, EMIT_CHOICES, RAMP_PEAK_SLOPE, RATE_MAX, TAU_MAX,
                           TAU_MIN, RunConfig)

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
    return RunConfig(
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


# The box of exponent_fields: the most te steps in an episode and in a window.
FUZZ_STEPS, FUZZ_TAPS = 300, 30
# A magnitude range that reaches 0 is drawn by exponent down to 2**EXP_FLOOR,
# with 0.0 as the binade below it where the field accepts 0.
EXP_FLOOR = -40


def _by_exponent(lo, hi):
    """Floats in the declared range [lo, hi], lo >= 0, by binary exponent: an
    exponent uniform over the binades from lo (or 2**EXP_FLOOR, and 0.0
    below it, when lo is 0) to hi, a mantissa in [1, 2), clamped to the
    range."""
    top = math.frexp(hi)[1] - 1
    floor = min(math.frexp(max(lo, 2.0**EXP_FLOOR))[1] - 1, top)
    return st.builds(lambda e, m: min(max(math.ldexp(m, e), lo), hi) if e >= floor else 0.0,
                     st.integers(floor - (lo == 0.0), top), st.floats(1.0, 2.0, exclude_max=True))


def _field(name, lo=None, hi=None):
    """Floats by binary exponent within the rules of the field ``name``, an
    exclusive bound moved to the nearest float inside; from ``lo`` where a
    rule across fields raises the lower bound, and up to ``hi`` where the
    field declares no upper bound.  alpha (negative) is drawn by magnitude."""
    b = _RULES[name]
    bottom = b["ge"] if "ge" in b else math.nextafter(b.get("gt", 0.0), math.inf)
    top = b["le"] if "le" in b else math.nextafter(b["lt"], -math.inf) if "lt" in b else hi
    if top < 0.0:
        return _by_exponent(-top, -bottom).map(float.__neg__)
    return _by_exponent(bottom if lo is None else lo, top)


@st.composite
def exponent_fields(draw):
    """The field values of a config, each positive float field drawn by
    binary exponent within its declared range (``_field``): the rates and
    gains within RATE_MIN..RATE_MAX, the buffer levels below BUFFER_MAX and
    the noises below 1.  te is drawn over the binades where a window of 2 to
    ``FUZZ_TAPS`` steps can lie within TAU_MIN..TAU_MAX, and the grid fields
    and the duration are whole multiples of it, up to ``FUZZ_STEPS`` steps.
    The times (t0, the ramp's span and the startup) are drawn up to the
    duration and the last decision.  Where a pair of fields must be ordered,
    the pair is drawn in order.  Half the draws measure the buffer exactly."""
    te = draw(_by_exponent(TAU_MIN / FUZZ_TAPS, TAU_MAX / 2))
    steps = draw(st.integers(1, FUZZ_STEPS))
    ratio = draw(st.integers(1, 40))
    duration = te * steps
    last_decision = (steps - 1) // ratio * ratio * te
    xf = draw(_field("xf"))
    t0, span = draw(_by_exponent(0.0, duration)), draw(_by_exponent(2.0**EXP_FLOOR, duration))
    if draw(st.booleans()):  # a rising ramp, or one falling slower than playback drains
        x0 = draw(_by_exponent(0.0, xf))
    else:
        x0 = xf + draw(_by_exponent(0.0, span / RAMP_PEAK_SLOPE))
    ladder = draw(st.lists(_field("ladder"), min_size=1, max_size=6, unique=True))
    lower = draw(_field("replan_lower", hi=BUFFER_MAX))
    upper = draw(_field("replan_upper", lo=math.nextafter(lower, math.inf)))
    levels = {}
    for sid in (2, 3):
        lo = draw(_field(f"s{sid}_level_lo", hi=RATE_MAX))
        levels.update({f"s{sid}_segment": te * draw(st.integers(1, FUZZ_STEPS)),
                       f"s{sid}_level_lo": lo,
                       f"s{sid}_level_hi": draw(_field(f"s{sid}_level_hi", lo=lo)),
                       f"s{sid}_noise": draw(_field(f"s{sid}_noise"))})
    return dict(
        scenario=draw(st.sampled_from((2, 1, 3))), replan=draw(st.booleans()), te=te,
        tau=te * draw(st.integers(2, FUZZ_TAPS)), decision_interval=te * ratio,
        replan_lower=lower, replan_upper=upper, ladder=sorted(ladder),
        x_noise=draw(st.just(0.0) | _field("x_noise")),
        t0=t0, tf=t0 + span, x0=x0, xf=xf, duration=duration,
        c0=draw(_field("c0")), kp=draw(_field("kp")), alpha=draw(_field("alpha")),
        delta_startup=draw(_by_exponent(0.0, last_decision)),
        chunk_duration=te * draw(st.integers(1, FUZZ_STEPS)), **levels)


# Every configuration the command line refuses, as (flags, field): run as
# ``abrlab --out never <flags>`` in an empty directory, each exits 2 with one
# stderr line, ``abrlab: invalid configuration: <field>: ...``, and writes
# nothing (``check_refused``).  A row whose flags parse gives field values
# that ``RunConfig`` itself refuses too, naming the same field, whether it is
# made from them directly or by ``dataclasses.replace``.
# A row's own ``--out`` comes later and wins.
# The flags are split at single spaces only, so "runs\nb" stays one value.
REFUSED = [(flags.split(" "), field) for flags, field in [
    # the command line itself
    ("--bogus", "unrecognized arguments"),
    ("--kp", "argument --kp"),
    ("--replan --no-replan", "argument --no-replan"),
    # seeds: a range or a list of distinct, non-negative integers, at most
    # MAX_SEEDS of them, measured before a list is built
    ("--seeds 3..1", "seeds"), ("--seeds a,b", "seeds"), ("--seeds=", "seeds"),
    ("--duration 60 --seeds=-1", "seeds"), ("--duration 60 --seeds=-3..-1", "seeds"),
    ("--duration 60 --seeds=2,-1", "seeds"),
    ("--duration 60 --seeds=1,1", "seeds"), ("--duration 60 --seeds=0,1,0", "seeds"),
    ("--seeds 0..100000000000", "seeds"),
    # an output directory a config file would read back otherwise
    ("--duration 60 --out runs#1", "out"), ("--duration 60 --out runs\nb", "out"),
    ("--duration 60 --out runs\rb", "out"),
    # text that is no value of its field, or outside its choices
    ("--kp abc", "kp"), ("--ladder 0.5,x", "ladder"), ("--scenario 1.5", "scenario"),
    ("--seeds 1..", "seeds"), ("--emit bogus", "emit"), ("--scenario 4", "scenario"),
    # the reference: t0 < tf, buffer targets never below empty, and a ramp
    # that falls slower than playback drains the buffer
    ("--tf 0", "tf"), ("--t0 5 --tf 5", "tf"), ("--t0 5 --tf 2", "tf"), ("--t0 -1", "t0"),
    ("--xf -3", "xf"), ("--x0 -2", "x0"),
    ("--x0 10 --xf 0 --tf 5", "x0"), ("--x0 4.26 --xf 0 --tf 10", "x0"),
    ("--replan-upper 1e6", "replan_upper"),
    # a lower bound the measured buffer never falls below: replanning that
    # turned downward never turns back up
    ("--replan-lower 9 --replan-upper 8", "replan_lower"),
    ("--replan-lower 8 --replan-upper 8", "replan_lower"),
    ("--replan-lower -5 --replan-upper -1", "replan_lower"),
    ("--replan-lower 0 --replan-upper 1", "replan_lower"),
    # the controller: positive kp, negative alpha, a non-empty, strictly
    # increasing ladder of positive rates
    ("--kp -1", "kp"), ("--kp 0", "kp"), ("--alpha 5", "alpha"), ("--alpha 0", "alpha"),
    ("--ladder=", "ladder"), ("--ladder 0.5,0.5", "ladder"), ("--ladder 1.0,0.5", "ladder"),
    ("--ladder=-1.0,0.5", "ladder"),
    # buffer or capacity noise that can read a value as zero or below, and
    # scenario levels that are not positive and ordered, or (scenario 3) do
    # not dip below 0.35
    ("--x-noise 1", "x_noise"), ("--x-noise 5", "x_noise"),
    ("--s2-noise 1.5", "s2_noise"), ("--s3-noise 1", "s3_noise"), ("--s3-noise -0.1", "s3_noise"),
    ("--s2-level-lo -1", "s2_level_lo"), ("--s3-level-lo 0", "s3_level_lo"),
    ("--s2-level-lo 3 --s2-level-hi 2", "s2_level_lo"),
    ("--s3-level-lo 0.3 --s3-level-hi 0.2", "s3_level_lo"),
    ("--s3-level-lo 0.34", "s3_level_lo"),
    # te positive, and decision instants, estimator windows, chunks and
    # capacity segments on its grid; a window of at least two te steps
    ("--te 0", "te"), ("--tau 0", "tau"), ("--tau 0.15", "tau"), ("--tau 0.1 --te 0.1", "tau"),
    ("--te 0.2 --tau 0.9", "tau"), ("--duration 20 --decision-interval 0.25", "decision_interval"),
    ("--decision-interval 0", "decision_interval"), ("--chunk-duration 2.05", "chunk_duration"),
    ("--chunk-duration 2 --te 0.3", "tau"),  # tau is the first field off the grid
    ("--duration 60 --decision-interval 0.04", "decision_interval"),
    ("--duration 60 --decision-interval 0.15", "decision_interval"),
    ("--duration 60 --tau 1.05", "tau"),
    ("--duration 60 --scenario 2 --s2-segment 0.05", "s2_segment"),
    ("--duration 60 --scenario 3 --s3-segment 20.05", "s3_segment"),
    # a startup after the last decision leaves no chunk to count rebuffering
    # over; an episode needs two decisions at least
    ("--delta-startup -1", "delta_startup"),
    ("--delta-startup 59 --duration 60", "delta_startup"),
    ("--delta-startup 58.1 --duration 60", "delta_startup"),
    ("--duration 0", "duration"), ("--scenario 3 --duration 0", "duration"),
    ("--scenario 3 --duration 1", "duration"), ("--scenario 3 --duration 2", "duration"),
    # non-finite numbers, which would crash a check or run a nonsense episode
    ("--te nan", "te"), ("--tau nan", "tau"), ("--duration nan", "duration"),
    ("--chunk-duration nan", "chunk_duration"), ("--c0 nan", "c0"), ("--kp nan", "kp"),
    ("--x-noise nan", "x_noise"), ("--xf nan", "xf"), ("--delta-startup nan", "delta_startup"),
    ("--duration inf", "duration"), ("--alpha=-inf", "alpha"), ("--ladder 0.35,nan", "ladder"),
    ("--tau inf", "tau"), ("--decision-interval nan", "decision_interval"),
    ("--ladder 0.35,inf", "ladder"), ("--duration 60 --te nan", "te"),
    ("--duration 60 --c0 nan", "c0"),
    # magnitudes whose products overflow: the buffer fills at 1e600 s per s,
    # the correction is inf, the capacity average overflows
    ("--duration 120 --ladder 1e-300 --c0 1e300", "ladder"),
    ("--duration 120 --kp 1e300 --alpha -1e-300", "alpha"),
    ("--duration 120 --scenario 3 --replan --s3-level-hi 1e308", "s3_level_hi"),
    # estimator windows whose gain 6 / tau^3 is not a finite, nonzero float:
    # tau^3 overflows in the first and underflows to 0 in the second, with
    # every other field on the te grid and within its own rule
    ("--te 1e295 --duration 1e297 --tau 2e295 --decision-interval 2e295"
     " --chunk-duration 2e295 --s2-segment 2e296 --s3-segment 2e296", "tau"),
    ("--te 1e-200 --tau 2e-200 --decision-interval 4e-200 --chunk-duration 2e-200"
     " --duration 1e-197 --delta-startup 0 --tf 1e-198 --s2-segment 1e-198"
     " --s3-segment 1e-198", "tau"),
    # more te steps than MAX_STEPS (duration / te is inf in the first) or a
    # window of more than MAX_TAPS, which no weight vector could hold
    ("--te 1e-300 --duration 1e300", "duration"), ("--duration 1e12", "duration"),
    ("--te 1e-200 --tau 1 --decision-interval 1e-200 --duration 1e-199"
     " --delta-startup 0", "tau"),
    # buffer levels whose tracking error makes the correction overflow (the
    # first) or reach about -3.6e299 (the second)
    ("--xf 1e300 --alpha -1e-6 --kp 1e6 --duration 120", "xf"), ("--xf 1e300", "xf"),
]]


def check_refused(flags, field, code, err, left):
    """Assert the refusal contract for a ``REFUSED`` row, given the exit code,
    the stderr text and what the run left in its working directory."""
    what = f"{' '.join(flags)!r}: exit {code}, stderr {err!r}, left {left}"
    assert code == 2 and err.count("\n") == 1 and err.endswith("\n"), what
    assert err.startswith(f"abrlab: invalid configuration: {field}: "), what
    assert "Traceback" not in err and not left, what
