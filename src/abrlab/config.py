"""Run configuration: the one declaration of every parameter.

Each ``RunConfig`` field carries its file section in its metadata.  The
dotted file key (``section.name``), the command-line flag (``--name`` with
``_`` as ``-``; booleans get a ``--no-name`` twin) and the text parse and
format all derive from the field's name and type.
"""
import argparse
import math
import re
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import get_args, get_origin

EMIT_CHOICES = ("log", "qoe", "table", "plotdata")

# Scenario 3 always dips under this capacity, the smallest default bitrate:
# when no segment level is below it, one is redrawn at most S3_DIP_MAX.
S3_FORCE_BELOW = 0.35
S3_DIP_MAX = 0.97 * S3_FORCE_BELOW

# Largest |slope| of the unit ramp 280 T^3 (1-T)^4, reached at T = 3/7.
RAMP_PEAK_SLOPE = 1935360 / 823543


class ConfigError(ValueError):
    pass


def _param(section: str, default, help: str | None = None):
    meta = {"section": section, "help": help}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    scenario: int = _param("run", 1, "1, 2 or 3")
    replan: bool = _param("run", False)
    seeds: list[int] = _param("run", [0], "e.g. '0..99' or '1,2,5'")
    out: str = _param("run", "out", "output directory")
    emit: list[str] = _param("run", ["qoe", "table"],
                             "comma list from: " + ",".join(EMIT_CHOICES))
    # reference trajectory
    t0: float = _param("trajectory", 0.0)
    tf: float = _param("trajectory", 10.0)
    x0: float = _param("trajectory", 0.0)
    xf: float = _param("trajectory", 4.0)
    replan_lower: float = _param("trajectory", 4.5)
    replan_upper: float = _param("trajectory", 12.0)
    # controller
    ladder: list[float] = _param("controller", [0.35, 0.6, 1.0, 2.0, 3.0, 5.0],
                                 "comma list of admissible bitrates")
    alpha: float = _param("controller", -10.0)
    kp: float = _param("controller", 0.25)
    tau: float = _param("controller", 1.0)
    decision_interval: float = _param("controller", 2.0)
    # plant / scenarios
    c0: float = _param("plant", 0.7)
    duration: float = _param("plant", 600.0)
    delta_startup: float = _param("plant", 5.0)
    chunk_duration: float = _param("plant", 2.0)
    te: float = _param("plant", 0.1)
    x_noise: float = _param("plant", 0.0)
    s2_segment: float = _param("scenario", 60.0)
    s2_level_lo: float = _param("scenario", 0.5)
    s2_level_hi: float = _param("scenario", 2.5)
    s2_noise: float = _param("scenario", 0.2)
    s3_segment: float = _param("scenario", 20.0)
    s3_level_lo: float = _param("scenario", 0.25)
    s3_level_hi: float = _param("scenario", 1.5)
    s3_noise: float = _param("scenario", 0.3)

    def steps(self, seconds: float) -> int:
        """Te steps in ``seconds``, rounded to the nearest whole step."""
        return int(round(seconds / self.te))

    @property
    def n_steps(self) -> int:
        return self.steps(self.duration)

    def off_grid(self, *names):
        """Yield a problem for each named duration that is not a positive whole
        number of te steps (to within 1e-9 of a step)."""
        for name in names:
            ratio = getattr(self, name) / self.te
            if not math.isfinite(ratio) or round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
                yield f"{name}: must be a positive whole multiple of te"

    def validate(self) -> None:
        for problem in self._problems():
            raise ConfigError(problem)

    def _problems(self):
        """Yield what is wrong, in order; later checks rely on earlier ones."""
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                yield f"{f.name}: must be finite, got {getattr(self, f.name)}"
        if not all(map(math.isfinite, self.ladder)):
            yield "ladder: rates must be finite"
        if self.scenario not in (1, 2, 3):
            yield f"scenario: must be 1, 2 or 3, got {self.scenario}"
        if not self.seeds:
            yield "seeds: at least one seed required"
        if any(s < 0 for s in self.seeds):
            yield "seeds: must be non-negative"
        if len(set(self.seeds)) < len(self.seeds):
            yield "seeds: must be distinct"
        for e in self.emit:
            if e not in EMIT_CHOICES:
                yield f"emit: unknown format {e!r} (choose from {EMIT_CHOICES})"
        if self.out != self.out.strip() or any(c in self.out for c in "#\r\n"):
            yield (f"out: a config file cannot hold {self.out!r}: no '#', no line break,"
                   " no whitespace at either end")
        if self.c0 <= 0.0:
            yield "c0: nominal capacity must be positive"
        if not 0.0 <= self.x_noise < 1.0:
            yield "x_noise: must lie in [0, 1), or the measured buffer can be <= 0"
        if self.replan_lower <= 0.0:
            yield "replan_lower: must be positive"
        if not self.replan_lower < self.replan_upper:
            yield "replan_lower must be below replan_upper"
        if not 0.0 <= self.t0 < self.tf:
            yield f"trajectory: require 0 <= t0 < tf, got t0={self.t0}, tf={self.tf}"
        if self.x0 < 0.0 or self.xf < 0.0:
            yield ("trajectory: buffer levels must be non-negative,"
                   f" got x0={self.x0}, xf={self.xf}")
        if RAMP_PEAK_SLOPE * (self.x0 - self.xf) >= self.tf - self.t0:
            yield ("trajectory: the reference must fall slower than playback drains the"
                   f" buffer: require x0 - xf < {1 / RAMP_PEAK_SLOPE:.4f} * (tf - t0)")
        if not self.ladder:
            yield "ladder: must be non-empty"
        if any(v <= 0.0 for v in self.ladder):
            yield "ladder: rates must be positive"
        if any(b <= a for a, b in zip(self.ladder, self.ladder[1:])):
            yield "ladder: rates must be strictly increasing"
        if self.kp <= 0.0:
            yield "kp: must be positive (closed-loop stability)"
        if self.alpha >= 0.0:
            yield "alpha: must be negative, as the input gain -C/R^2 is"
        if self.delta_startup < 0.0:
            yield "delta_startup: must be non-negative"
        if self.te <= 0.0:
            yield "te: must be positive"
        yield from self.off_grid("chunk_duration", "decision_interval", "tau",
                                 "s2_segment", "s3_segment")
        if self.tau < 2.0 * self.te:
            yield "tau: must be at least 2*te"
        ratio = self.steps(self.decision_interval)
        if self.n_steps <= ratio:
            yield "duration: must span more than one decision interval (two decisions)"
        # the QoE report counts rebuffering over the decisions from the startup
        # on; the last decision's time is computed as run_episode's clock is
        last_decision = (self.n_steps - 1) // ratio * ratio * self.te
        if last_decision < self.delta_startup:
            yield f"delta_startup: must be at most the last decision time, {last_decision:g} s"
        for sid in (2, 3):
            lo, hi, noise = (getattr(self, f"s{sid}_{name}")
                             for name in ("level_lo", "level_hi", "noise"))
            if not 0.0 < lo <= hi:
                yield f"s{sid}_level_lo/hi: require 0 < level_lo <= level_hi"
            if not 0.0 <= noise < 1.0:
                yield f"s{sid}_noise: must lie in [0, 1), or measured capacity can be <= 0"
        if self.s3_level_lo > S3_DIP_MAX:
            yield (f"s3_level_lo: must be at most {S3_DIP_MAX:.4g}, as scenario 3 always"
                   f" dips below {S3_FORCE_BELOW}")


def parse_seeds(text: str) -> list:
    """Seed list syntax: 'a..b' inclusive range or comma-separated integers."""
    text = text.strip()
    lo, sep, hi = text.partition("..")
    try:
        seeds = (list(range(int(lo), int(hi) + 1)) if sep
                 else [int(v) for v in text.split(",") if v.strip()])
    except ValueError as exc:
        raise ConfigError(f"seeds: cannot parse {text!r}") from exc
    if sep and not seeds:
        raise ConfigError(f"seeds: empty range {text!r}")
    return seeds


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _parse_value(f, text: str):
    text = text.strip()
    if f.type == list[int]:
        return parse_seeds(text)
    try:
        if f.type is bool:
            return _BOOLS[text.lower()]
        if get_origin(f.type) is list:
            item = get_args(f.type)[0]
            return [item(v.strip()) for v in text.split(",") if v.strip()]
        return f.type(text)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{f.name}: cannot parse {text!r}") from exc


def _format_value(f, value) -> str:
    if f.type is bool:
        return "true" if value else "false"
    if get_origin(f.type) is list:
        return ",".join(map(str, value))
    return str(value)  # a float's shortest text that parses back to it


def _file_key(f) -> str:
    return f"{f.metadata['section']}.{f.name}"


_FIELDS_BY_KEY = {_file_key(f): f for f in fields(RunConfig)}


def read_config_file(path) -> dict:
    """Flat 'section.key = value' file; '#' starts a comment."""
    try:
        with open(path) as fh:
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
        values[f.name] = _parse_value(f, text)
    return values


def emit_config(cfg: RunConfig, path) -> None:
    """Write a config file that parses back to an equal RunConfig."""
    with open(path, "w") as fh:
        for f in fields(RunConfig):
            fh.write(f"{_file_key(f)} = {_format_value(f, getattr(cfg, f.name))}\n")


@lru_cache(maxsize=1)
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` keeps
    no state between calls, so every ``parse_config`` shares it."""
    p = argparse.ArgumentParser(
        prog="abrlab",
        description="Adaptive-bitrate buffer-control scenario runner")
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
    """CLI arguments (optionally over a config file) to a validated RunConfig."""
    args = build_arg_parser().parse_args(argv)
    cfg = RunConfig()
    if args.config:
        for name, value in read_config_file(args.config).items():
            setattr(cfg, name, value)
    for f in fields(RunConfig):
        text = getattr(args, f.name)
        if text is not None:
            setattr(cfg, f.name, _parse_value(f, text))
    cfg.validate()
    return cfg
