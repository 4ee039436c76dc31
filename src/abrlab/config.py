"""Run configuration: the one declaration of every parameter.

Each ``RunConfig`` field carries its file section and its rules in its
metadata (``_param``).  The dotted file key (``section.name``), the
command-line flag (``--name`` with ``_`` as ``-``; booleans get a
``--no-name`` twin) and the text parse and format all derive from the
field's name and type.  The field's rules (its bounds, choices or te grid,
and finiteness for every float) are checked in one loop over the fields and
printed in the flag's ``--help`` text; ``_problems`` writes out only the
rules across fields.  A ``RunConfig`` is valid by construction: it is frozen,
its sequences are tuples (a caller's list is copied), and making one (directly
or by ``dataclasses.replace``) checks every rule and raises ``ConfigError``
naming the field of the first problem, so no entry point checks it again and
nothing can change it after the check.
"""
import argparse
import math
import operator
import re
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import get_args, get_origin

EMIT_CHOICES = ("log", "qoe", "table", "plotdata")

# The default bitrate ladder.  Scenario 3 always dips under its smallest
# rung: when no segment level is below it, one is redrawn at most S3_DIP_MAX.
DEFAULT_LADDER = (0.35, 0.6, 1.0, 2.0, 3.0, 5.0)
S3_FORCE_BELOW = DEFAULT_LADDER[0]
S3_DIP_MAX = 0.97 * S3_FORCE_BELOW

# Magnitude range of every rate (ladder rung, capacity level, c0) and of the
# gains kp and alpha.  Wider ones overflow: a rung of 1e-300 under a capacity
# of 1e300 fills the buffer at 1e600 s per s, and kp = 1e300 over alpha =
# -1e-300 makes the correction inf.
RATE_MIN, RATE_MAX = 1e-6, 1e6

# Magnitude range of the estimator window tau, which keeps the estimators'
# gain 6 / tau^3 a finite, nonzero float: tau = 2e295 overflows tau^3, and
# tau = 2e-200 underflows it to 0.  TAU_MAX is the longest window of MAX_TAPS
# steps at the default te of 0.1 s; a shorter te caps tau lower.
TAU_MIN, TAU_MAX = 1e-6, 1e4

# Every buffer level (x0, xf and the replanning bounds) lies below this many
# seconds.  It bounds the tracking error e, and with it the correction
# kp * e / |alpha| to about 1e18 per decision: xf = 1e300 with kp = 1e6 and
# alpha = -1e-6 makes the correction overflow within a few decisions.
BUFFER_MAX = 1e6

# Largest |slope| of the unit ramp 280 T^3 (1-T)^4, reached at T = 3/7.
RAMP_PEAK_SLOPE = 1935360 / 823543

# rule keyword -> (op with op(bound, value) true for a valid value, and for a
# bound: its word when at 0, its symbol when alone, its interval bracket)
RULES = {"gt": (operator.lt, "positive", ">", "("),
         "ge": (operator.le, "non-negative", ">=", "["),
         "lt": (operator.gt, "negative", "<", ")"),
         "le": (operator.ge, "non-positive", "<=", "]"),
         "choices": (operator.contains,)}
GRID_RULE = "must be a positive whole multiple of te"


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad command line is an invalid configuration
        raise ConfigError(message)


def _rule_text(grid, rules) -> str:
    """A field's declared rule in words, '' when it declares none: the te
    grid, then the choices or the bounds."""
    if "choices" in rules:
        bounds = "must be one of " + ", ".join(map(str, rules["choices"]))
    elif len(rules) == 2:
        (lo_op, lo), (hi_op, hi) = rules.items()
        bounds = f"must lie in {RULES[lo_op][3]}{lo:.4g}, {hi:.4g}{RULES[hi_op][3]}"
    else:
        bounds = "".join(f"must be {RULES[op][1] if b == 0 else f'{RULES[op][2]} {b:g}'}"
                         for op, b in rules.items())  # one bound or none
    return "; ".join(filter(None, (GRID_RULE if grid else "", bounds)))


def _param(section: str, default, help: str | None = None, *, grid=False, **rules):
    """A field with its file section, help text and rules.  The ``RULES``
    keywords (bounds ``gt``/``ge``/``lt``/``le``, a lower bound first when
    there are two, or ``choices``) apply to the value, or to each item of a
    tuple field; ``grid`` marks a positive whole multiple of te.  The flag's
    help ends with the rule in words."""
    rule = _rule_text(grid, rules)
    meta = {"section": section, "help": "; ".join(filter(None, (help, rule))), "rule": rule,
            "grid": grid, "rules": rules}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class RunConfig:
    scenario: int = _param("run", 1, choices=(1, 2, 3))
    replan: bool = _param("run", False)
    seeds: tuple[int, ...] = _param("run", (0,), "e.g. '0..99' or '1,2,5'", ge=0)
    out: str = _param("run", "out", "output directory")
    emit: tuple[str, ...] = _param("run", ("qoe", "table"), "comma list", choices=EMIT_CHOICES)
    # reference trajectory; the buffer levels are targets, never below empty
    # and below BUFFER_MAX (replan_lower through replan_lower < replan_upper)
    t0: float = _param("trajectory", 0.0, ge=0.0)
    tf: float = _param("trajectory", 10.0)
    x0: float = _param("trajectory", 0.0, ge=0.0, lt=BUFFER_MAX)
    xf: float = _param("trajectory", 4.0, ge=0.0, lt=BUFFER_MAX)
    # a lower bound the measured buffer never falls below would leave
    # replanning that turned downward never turning back up
    replan_lower: float = _param("trajectory", 4.5, gt=0.0)
    replan_upper: float = _param("trajectory", 12.0, lt=BUFFER_MAX)
    # controller: kp > 0 for closed-loop stability; alpha < 0, as the input
    # gain -C/R^2 is; rungs and |alpha| within RATE_MIN..RATE_MAX, kp at most
    # RATE_MAX; tau within TAU_MIN..TAU_MAX, bounded below by gt because
    # tau = TAU_MIN is less than 2 te at the default te
    ladder: tuple[float, ...] = _param(
        "controller", DEFAULT_LADDER, "comma list of admissible bitrates", ge=RATE_MIN, le=RATE_MAX)
    alpha: float = _param("controller", -10.0, ge=-RATE_MAX, le=-RATE_MIN)
    kp: float = _param("controller", 0.25, gt=0.0, le=RATE_MAX)
    tau: float = _param("controller", 1.0, grid=True, gt=TAU_MIN, le=TAU_MAX)
    decision_interval: float = _param("controller", 2.0, grid=True)
    # plant / scenarios: a relative measurement noise of 1 or more can read a
    # buffer or a capacity as zero or below; scenario 3 always dips below
    # S3_FORCE_BELOW, so its lowest level may not lie above S3_DIP_MAX; a
    # level pair lies within RATE_MIN..RATE_MAX, as level_lo <= level_hi
    c0: float = _param("plant", 0.7, ge=RATE_MIN, le=RATE_MAX)
    duration: float = _param("plant", 600.0)
    delta_startup: float = _param("plant", 5.0, ge=0.0)
    chunk_duration: float = _param("plant", 2.0, grid=True)
    te: float = _param("plant", 0.1, gt=0.0)
    x_noise: float = _param("plant", 0.0, ge=0.0, lt=1.0)
    s2_segment: float = _param("scenario", 60.0, grid=True)
    s2_level_lo: float = _param("scenario", 0.5, ge=RATE_MIN)
    s2_level_hi: float = _param("scenario", 2.5, le=RATE_MAX)
    s2_noise: float = _param("scenario", 0.2, ge=0.0, lt=1.0)
    s3_segment: float = _param("scenario", 20.0, grid=True)
    s3_level_lo: float = _param("scenario", 0.25, ge=RATE_MIN, le=S3_DIP_MAX)
    s3_level_hi: float = _param("scenario", 1.5, le=RATE_MAX)
    s3_noise: float = _param("scenario", 0.3, ge=0.0, lt=1.0)

    def steps(self, seconds: float) -> int:
        """Te steps in ``seconds``, rounded to the nearest whole step."""
        return int(round(seconds / self.te))

    @property
    def n_steps(self) -> int:
        return self.steps(self.duration)

    @property
    def decision_steps(self) -> int:
        return self.steps(self.decision_interval)

    def __post_init__(self) -> None:
        """Store each sequence a caller passed as a tuple, so that nothing
        can change the config after its check, then refuse an invalid config
        when it is made: raise ``ConfigError`` naming the field of the first
        problem."""
        for name, each, _, _, _ in FIELD_RULES:
            if each:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        for problem in self._problems():
            raise ConfigError(problem)

    def _problems(self):
        """Yield what is wrong, in order; later checks rely on earlier ones.
        The fields' own rules come first (``FIELD_RULES``, each field's
        declared ``(op, bound)`` pairs in declaration order, then the te
        grid), then the rules across fields.  Every sequence is a tuple by
        now (``__post_init__``)."""
        for name, each, floats, bounds, rule in FIELD_RULES:
            value = getattr(self, name)
            for v in value if each else (value,):
                if floats and not math.isfinite(v):
                    yield f"{name}: must be finite, got {v!r}"
                for op, bound in bounds:
                    if not RULES[op][0](bound, v):
                        yield f"{name}: {rule}, got {v!r}"
        # a positive whole number of te steps, to within 1e-9 of a step
        for name in GRID_FIELDS:
            ratio = getattr(self, name) / self.te
            if not math.isfinite(ratio) or round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
                yield f"{name}: {GRID_RULE}"
        if not self.seeds:
            yield "seeds: at least one seed required"
        if len(set(self.seeds)) < len(self.seeds):
            yield "seeds: must be distinct"
        if self.out != self.out.strip() or any(c in self.out for c in "#\r\n"):
            yield (f"out: a config file cannot hold {self.out!r}: no '#', no line break,"
                   " no whitespace at either end")
        if not self.replan_lower < self.replan_upper:
            yield "replan_lower: must be below replan_upper"
        if not self.t0 < self.tf:
            yield f"tf: must be above t0, got t0={self.t0}, tf={self.tf}"
        if RAMP_PEAK_SLOPE * (self.x0 - self.xf) >= self.tf - self.t0:
            yield ("x0: the reference must fall slower than playback drains the"
                   f" buffer: require x0 - xf < {1 / RAMP_PEAK_SLOPE:.4f} * (tf - t0)")
        if not self.ladder:
            yield "ladder: must be non-empty"
        if any(b <= a for a, b in zip(self.ladder, self.ladder[1:])):
            yield "ladder: rates must be strictly increasing"
        if self.tau < 2.0 * self.te:
            yield "tau: must be at least 2*te"
        # the step count as n_steps rounds it, not the quotient, which may
        # lie an ulp past a whole count; a quotient past the int range, which
        # round() cannot take, is clipped to one step past the cap first
        if round(min(self.duration / self.te, MAX_STEPS + 1)) > MAX_STEPS:
            yield (f"duration: must span at most {MAX_STEPS} te steps,"
                   f" got {self.duration / self.te:.4g}")
        # before any weight vector is built: one of 10^200 taps cannot be.
        # tau is a whole number of te steps by now (the grid rule)
        if round(self.tau / self.te) > MAX_TAPS:
            yield f"tau: must span at most {MAX_TAPS} te steps, got {self.tau / self.te:.4g}"
        ratio = self.decision_steps
        if self.n_steps <= ratio:
            yield "duration: must span more than one decision interval (two decisions)"
        # the QoE report counts rebuffering over the decisions from the startup
        # on; the last decision's time is computed as run_episode's clock is
        last_decision = (self.n_steps - 1) // ratio * ratio * self.te
        if last_decision < self.delta_startup:
            yield f"delta_startup: must be at most the last decision time, {last_decision:g} s"
        for sid in (2, 3):
            if not getattr(self, f"s{sid}_level_lo") <= getattr(self, f"s{sid}_level_hi"):
                yield f"s{sid}_level_lo: must be at most s{sid}_level_hi"


GRID_FIELDS = tuple(f.name for f in fields(RunConfig) if f.metadata["grid"])
# (name, a tuple, of floats, (op, bound) pairs, rule) of every field:
# __post_init__ stores each tuple field's value as a tuple, and _problems
# checks each float (or float item) finite, then each value (or item) against
# the RULES op of each pair, in declaration order
FIELD_RULES = [(f.name, get_origin(f.type) is tuple, f.type in (float, tuple[float, ...]),
                tuple(f.metadata["rules"].items()), f.metadata["rule"]) for f in fields(RunConfig)]

# The most seeds a run may name.  A batch keeps a QoE report of about
# 0.3 KB per seed until it ends and spends at least 0.2 ms on each (a trace
# draw and a report; scenario 1 at the defaults shares one episode), so a
# batch at the cap holds about 0.3 GB and runs for minutes.
MAX_SEEDS = 10**6

# The most te steps an episode may span.  An episode holds about 0.2 KB per
# step while it runs and 0.4 KB once its log is text (RSS growth from 60,000
# to 600,000 steps, scenario 2 with replanning at te 0.01; BENCH_13.json
# gives the loop's peak as 1.18 MB per 6,000 steps), so an episode at the
# cap holds about 0.4 GB and runs for 1-10 s.
MAX_STEPS = 10**6

# The most te steps the estimator window tau may span; its weight vectors
# have one tap more.  An episode costs about 63 us and 2.6 KB per tap, most of
# it to generate and compile the window dots (scenario 2 with replanning at
# te 0.01 for 600 s: 20,001 taps take 1.6 s and 85 MB peak RSS, 100,001 taps
# 6.3 s and 262 MB), so a window at the cap costs about 6 s and 0.26 GB.
MAX_TAPS = 10**5


def parse_seeds(text: str) -> list:
    """Seed list syntax: 'a..b' inclusive range or comma-separated integers,
    at most MAX_SEEDS of them; a range is measured before its list is built."""
    text = text.strip()
    lo, sep, hi = text.partition("..")
    try:
        seeds = (range(int(lo), int(hi) + 1) if sep
                 else [int(v) for v in text.split(",") if v.strip()])
    except ValueError as exc:
        raise ConfigError(f"seeds: cannot parse {text!r}") from exc
    if sep and not seeds:
        raise ConfigError(f"seeds: empty range {text!r}")
    if seeds[MAX_SEEDS:]:  # a slice, as len() of a range past sys.maxsize raises
        raise ConfigError(f"seeds: {text!r} names more than {MAX_SEEDS} seeds")
    return list(seeds)


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _parse_value(f, text: str):
    text = text.strip()
    if f.type == tuple[int, ...]:
        return parse_seeds(text)
    try:
        if f.type is bool:
            return _BOOLS[text.lower()]
        if get_origin(f.type) is tuple:
            item = get_args(f.type)[0]
            return [item(v.strip()) for v in text.split(",") if v.strip()]
        return f.type(text)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{f.name}: cannot parse {text!r}") from exc


def _format_value(f, value) -> str:
    if f.type is bool:
        return "true" if value else "false"
    if get_origin(f.type) is tuple:
        return ",".join(map(str, value))
    return str(value)  # a float's shortest text that parses back to it


def _file_key(f) -> str:
    return f"{f.metadata['section']}.{f.name}"


_FIELDS_BY_KEY = {_file_key(f): f for f in fields(RunConfig)}


def read_config_file(path) -> dict:
    """Flat 'section.key = value' file in UTF-8, whatever the locale, a
    leading byte-order mark allowed; '#' starts a comment.  A key may appear
    once."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, text = (s.strip() for s in line.split("=", 1))
        if key not in _FIELDS_BY_KEY:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        f = _FIELDS_BY_KEY[key]
        if f.name in values:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        values[f.name] = _parse_value(f, text)
    return values


def emit_config(cfg: RunConfig, path) -> None:
    """Write a config file, in UTF-8, that parses back to an equal RunConfig."""
    with open(path, "w", encoding="utf-8") as fh:
        for f in fields(RunConfig):
            fh.write(f"{_file_key(f)} = {_format_value(f, getattr(cfg, f.name))}\n")


@lru_cache(maxsize=1)
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` keeps
    no state between calls, so every ``parse_config`` shares it."""
    p = _Parser(
        prog="abrlab",
        description="Adaptive-bitrate buffer-control scenario runner",
        epilog="Every number must be finite.")
    # a negative value is a value, in exponent form too (--alpha -1e-3); the
    # default pattern takes only -12 and -1.5
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.add_argument("--config", metavar="PATH", help="config file (flags override it)")
    # every flag stores text, parsed by parse_config exactly like a file value
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool:
            pair = p.add_mutually_exclusive_group()
            pair.add_argument(flag, dest=f.name, action="store_const", const="true")
            pair.add_argument("--no-" + flag[2:], dest=f.name, action="store_const",
                              const="false")
        else:
            p.add_argument(flag, dest=f.name, help=f.metadata["help"])
    return p


def parse_config(argv) -> RunConfig:
    """CLI arguments, optionally over a config file, to a RunConfig: the
    flags override the file's values, and only the merged config is checked."""
    args = build_arg_parser().parse_args(argv)
    values = read_config_file(args.config) if args.config else {}
    for f in fields(RunConfig):
        if (text := getattr(args, f.name)) is not None:
            values[f.name] = _parse_value(f, text)
    return RunConfig(**values)
