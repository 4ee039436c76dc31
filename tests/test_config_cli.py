"""Configuration parsing, validation and the command-line runner."""
import contextlib
import io
import json
import math
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from typing import get_origin
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from abrlab import config, kernels
from abrlab.cli import main, run_single
from abrlab.config import (ConfigError, RunConfig, build_arg_parser, emit_config,
                           parse_config, parse_seeds, read_config_file)
from abrlab.plant import build_scenario

from config_strategies import run_configs, seed_batches

# A valid value different from the default for every RunConfig field.
NON_DEFAULT = {
    "scenario": 3, "replan": True, "seeds": [1, 2, 3], "out": "elsewhere",
    "emit": ["log", "plotdata"], "t0": 0.5, "tf": 8.0, "x0": 0.25, "xf": 5.0,
    "replan_lower": 3.5, "replan_upper": 10.0, "ladder": [0.5, 1.0, 4.0],
    "alpha": -7.5, "kp": 0.3, "tau": 0.8, "decision_interval": 1.0,
    "c0": 0.9, "duration": 300.0, "delta_startup": 4.0, "chunk_duration": 1.0,
    "te": 0.05, "x_noise": 0.01, "s2_segment": 30.0, "s2_level_lo": 0.4,
    "s2_level_hi": 2.0, "s2_noise": 0.1, "s3_segment": 10.0, "s3_level_lo": 0.3,
    "s3_level_hi": 1.2, "s3_noise": 0.25,
}


def run_quiet(argv) -> None:
    """Run the CLI with its output captured; it must exit 0."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code == 0, stderr.getvalue()


def kernel_calls(argv) -> int:
    """Run the CLI quietly and count its calls of the episode kernel."""
    with mock.patch.object(kernels, "episode_loop", wraps=kernels.episode_loop) as loop:
        run_quiet(argv)
    return loop.call_count


def assert_batch_matches_singles(args, seeds, tmp) -> int:
    """Run ``args`` on ``seeds`` as one batch and each seed on its own: every
    per-seed file, ``qoe.csv`` row and ``qoe.json`` entry of the batch is the
    seed's own.  Returns the batch's episode-kernel calls."""
    emit = ["--emit", "qoe,log,plotdata"]
    batch = Path(tmp) / "batch"
    calls = kernel_calls(args + emit + ["--seeds", ",".join(map(str, seeds)),
                                        "--out", str(batch)])
    rows = (batch / "qoe.csv").read_bytes().split(b"\r\n")
    entries = json.loads((batch / "qoe.json").read_text())
    assert len(list(batch.glob("*_*.csv"))) == 3 * len(seeds)
    for i, seed in enumerate(seeds):
        single = Path(tmp) / f"seed{seed}"
        run_quiet(args + emit + ["--seeds", str(seed), "--out", str(single)])
        per_seed = list(single.glob("*_*.csv"))  # episode_, capacity_, buffer_
        assert len(per_seed) == 3
        for path in per_seed:
            assert path.read_bytes() == (batch / path.name).read_bytes(), path.name
        assert (single / "qoe.csv").read_bytes().split(b"\r\n")[:2] == [rows[0], rows[1 + i]]
        assert json.loads((single / "qoe.json").read_text()) == [entries[i]]
    return calls


class TestSeeds:
    def test_range(self):
        assert parse_seeds("0..3") == [0, 1, 2, 3]
        assert parse_seeds("5..5") == [5]

    def test_list(self):
        assert parse_seeds("1,2,5") == [1, 2, 5]
        assert parse_seeds("7") == [7]

    def test_invalid(self):
        with pytest.raises(ConfigError):
            parse_seeds("3..1")
        with pytest.raises(ConfigError):
            parse_seeds("a,b")

    def test_more_than_max_seeds_rejected_before_a_list_is_built(self):
        # the range's list would take 800 GB; building any list here fails
        with mock.patch.object(config, "list", create=True,
                               side_effect=AssertionError("a list was built")):
            for text in ("0..100000000000", f"0..{10**30}"):
                with pytest.raises(ConfigError, match="^seeds: .* more than 1000000 seeds"):
                    parse_seeds(text)
        with mock.patch.object(config, "MAX_SEEDS", 3):
            assert parse_seeds("5..7") == [5, 6, 7] and parse_seeds("1,2,3") == [1, 2, 3]
            for text in ("5..8", "1,2,3,4"):
                with pytest.raises(ConfigError, match="^seeds: .* more than 3 seeds"):
                    parse_seeds(text)


class TestParsing:
    def test_defaults(self):
        cfg = parse_config([])
        assert cfg == RunConfig()

    def test_flags(self):
        cfg = parse_config(["--scenario", "2", "--replan", "--seeds", "0..9",
                            "--kp", "0.5", "--ladder", "0.5,1,2"])
        assert cfg.scenario == 2 and cfg.replan is True
        assert cfg.seeds == list(range(10))
        assert cfg.kp == 0.5
        assert cfg.ladder == [0.5, 1.0, 2.0]

    def test_no_replan_flag(self):
        assert parse_config(["--no-replan"]).replan is False

    def test_one_parser_independent_configs(self):
        # the parser is built once per process and parse_args keeps no state
        assert build_arg_parser() is build_arg_parser()
        a = parse_config(["--scenario", "2", "--replan", "--seeds", "3..4"])
        b = parse_config(["--kp", "0.5"])
        assert (a.scenario, a.replan, a.seeds, a.kp) == (2, True, [3, 4], RunConfig().kp)
        assert b == RunConfig(kp=0.5)
        assert a.seeds is not b.seeds and a.ladder is not b.ladder

    def test_validation_failures(self):
        with pytest.raises(ConfigError):
            parse_config(["--kp", "-1"])
        with pytest.raises(ConfigError):
            parse_config(["--tf", "0"])
        with pytest.raises(ConfigError):
            parse_config(["--emit", "bogus"])
        with pytest.raises(ConfigError):
            parse_config(["--tau", "0.1", "--te", "0.1"])
        with pytest.raises(ConfigError):
            parse_config(["--replan-lower", "9", "--replan-upper", "8"])
        # a lower bound the measured buffer never falls below: replanning that
        # turned downward never turns back up
        for flags in (["--replan-lower", "-5", "--replan-upper", "-1"],
                      ["--replan-lower", "0", "--replan-upper", "1"]):
            with pytest.raises(ConfigError, match="replan_lower: must be positive"):
                parse_config(flags)
        # buffer noise that can read the buffer as zero or negative
        for flags in (["--x-noise", "1"], ["--x-noise", "5"]):
            with pytest.raises(ConfigError, match="x_noise: must lie in"):
                parse_config(flags)
        with pytest.raises(ConfigError):
            parse_config(["--alpha", "5"])
        # a reference falling as fast as playback drains the buffer somewhere
        with pytest.raises(ConfigError):
            parse_config(["--x0", "10", "--xf", "0", "--tf", "5"])
        # a buffer target below empty
        for flags in (["--xf", "-3"], ["--x0", "-2"]):
            with pytest.raises(ConfigError, match=flags[0][2:] + ":"):
                parse_config(flags)
        # a startup delay after the last decision, which leaves no chunk to
        # count rebuffering over
        with pytest.raises(ConfigError, match="delta_startup:"):
            parse_config(["--delta-startup", "59", "--duration", "60"])
        # fewer than two decisions
        for duration in ("0", "1", "2"):
            with pytest.raises(ConfigError):
                parse_config(["--scenario", "3", "--duration", duration])
        # scenario generators: positive ordered levels, noise below 100%
        for flags in (["--s2-level-lo", "-1"], ["--s3-level-lo", "0"],
                      ["--s2-level-lo", "3", "--s2-level-hi", "2"],
                      ["--s2-noise", "1.5"], ["--s3-noise", "1"], ["--s3-noise", "-0.1"],
                      ["--s3-level-lo", "0.34"]):  # scenario 3 dips below 0.35
            with pytest.raises(ConfigError):
                parse_config(flags)
        # non-finite numbers, which would crash a check or run a nonsense episode
        for flags in (["--te", "nan"], ["--tau", "nan"], ["--duration", "nan"],
                      ["--chunk-duration", "nan"], ["--c0", "nan"], ["--kp", "nan"],
                      ["--x-noise", "nan"], ["--xf", "nan"], ["--delta-startup", "nan"],
                      ["--duration", "inf"], ["--alpha=-inf"], ["--ladder", "0.35,nan"],
                      ["--ladder", "0.35,inf"]):
            with pytest.raises(ConfigError):
                parse_config(flags)
        # an output directory a config file would read back otherwise (flag
        # text is stripped, so edge whitespace reaches validate only directly)
        for out in ("runs#1", "runs\n", "a\rb", " runs", "runs\t"):
            with pytest.raises(ConfigError, match="out:"):
                RunConfig(out=out).validate()
        # just inside the bounds
        parse_config(["--x0", "4", "--xf", "0", "--tf", "10"])
        parse_config(["--scenario", "3", "--duration", "2.1", "--delta-startup", "2"])
        parse_config(["--x0", "0", "--xf", "0"])
        parse_config(["--x-noise", "0.99", "--replan-lower", "0.01"])

    def test_config_file_round_trip(self, tmp_path):
        assert set(NON_DEFAULT) == {f.name for f in fields(RunConfig)}
        cfg = RunConfig(**NON_DEFAULT)
        for name, value in NON_DEFAULT.items():
            assert value != getattr(RunConfig(), name), name
        cfg.validate()
        path = tmp_path / "run.cfg"
        emit_config(cfg, path)
        assert parse_config(["--config", str(path)]) == cfg

    def test_one_flag_and_one_file_key_per_field(self, tmp_path):
        names = [f.name for f in fields(RunConfig)]
        flags = {}
        for action in build_arg_parser()._actions:
            for flag in action.option_strings:
                flags.setdefault(action.dest, []).append(flag)
        for name in names:
            dashed = "--" + name.replace("_", "-")
            expected = [dashed, "--no-" + dashed[2:]] if name == "replan" else [dashed]
            assert flags[name] == expected
        assert set(flags) == set(names) | {"help", "config"}
        path = tmp_path / "run.cfg"
        emit_config(RunConfig(), path)
        keys = [line.split(" = ")[0] for line in path.read_text().splitlines()]
        assert [key.split(".")[1] for key in keys] == names
        assert len(set(keys)) == len(names)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        emit_config(RunConfig(), path)
        cfg = parse_config(["--config", str(path), "--scenario", "2"])
        assert cfg.scenario == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("controller.gain = 3\n")
        with pytest.raises(ConfigError):
            read_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("controller.kp 3\n")
        with pytest.raises(ConfigError):
            read_config_file(path)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\ncontroller.kp = 0.4  # inline\n")
        assert read_config_file(path) == {"kp": 0.4}

    @pytest.mark.parametrize("value", ["-1e-3", "-2.5E+1"])
    def test_negative_exponent_value_after_flag(self, value):
        # a flag's value, not an unknown option
        assert parse_config(["--alpha", value]).alpha == float(value)


class TestMain:
    ARGS = ["--scenario", "1", "--seeds", "0", "--duration", "60"]

    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(self.ARGS + ["--out", str(out), "--emit", "qoe,table,log"])
        assert code == 0
        assert (out / "qoe.csv").exists()
        assert (out / "qoe.json").exists()
        assert (out / "table.csv").exists()
        assert (out / "episode_s1_noreplan_0.csv").exists()
        assert "scenario" in capsys.readouterr().out

    def test_plotdata(self, tmp_path):
        out = tmp_path / "run"
        main(self.ARGS + ["--out", str(out), "--emit", "plotdata"])
        assert (out / "capacity_s1_noreplan_0.csv").exists()
        assert (out / "buffer_s1_noreplan_0.csv").exists()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = main(["--kp", "-1", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("make", [lambda d: d / "missing.cfg",
                                      lambda d: d,
                                      lambda d: d / "latin1.cfg"],
                             ids=["missing", "directory", "not-utf8"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, make):
        # not UTF-8; were it read as Latin-1, the value would not parse
        (tmp_path / "latin1.cfg").write_bytes(b"controller.kp = 0.4\xe9\n")
        path = make(tmp_path)
        code = main(["--config", str(path), "--out", str(tmp_path / "never")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("abrlab: invalid configuration:") and str(path) in err
        assert "Traceback" not in err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("flags", [["--decision-interval", "0.04"],
                                       ["--decision-interval", "0.15"],
                                       ["--tau", "1.05"],
                                       ["--scenario", "2", "--s2-segment", "0.05"],
                                       ["--scenario", "3", "--s3-segment", "20.05"],
                                       ["--te", "nan"],
                                       ["--c0", "nan"]])
    def test_off_grid_interval_exits_2(self, tmp_path, capsys, flags):
        # decision instants, estimator windows and capacity segments must lie
        # on the te grid, which a non-finite number is on nowhere
        code = main(self.ARGS + flags + ["--out", str(tmp_path / "never")])
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["runs#1", "runs\nb", "runs\rb"])
    def test_out_a_config_file_cannot_hold_exits_2(self, tmp_path, capsys, name):
        # emit_config would write it as a comment or a broken line
        code = main(self.ARGS + ["--out", str(tmp_path / name)])
        assert code == 2
        assert "invalid configuration: out:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seeds", ["--seeds=-1", "--seeds=-3..-1", "--seeds=2,-1"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, seeds):
        code = main(self.ARGS + [seeds, "--out", str(tmp_path / "never")])
        assert code == 2
        assert "seeds: must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("flags, column", [
        (["--ladder", "1e-300", "--c0", "1e300"], "x"),
        (["--kp", "1e300", "--alpha", "-1e-300"], "u"),
        (["--scenario", "3", "--replan", "--s3-level-hi", "1e308"], "x")],
        ids=["tiny-rung", "huge-kp", "huge-s3-level"])
    def test_non_finite_episode_exits_1(self, tmp_path, capsys, flags, column):
        # validate accepts these magnitudes, but the buffer or the correction
        # overflows; the run stops with the column and the step
        code = main(["--duration", "120", "--out", str(tmp_path)] + flags)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"abrlab: {column} is not finite, first at step ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--te", "1e-300", "--duration", "1e300"],
                                       ["--duration", "1e12"]],
                             ids=["steps-overflow-int", "steps-past-cap"])
    def test_more_than_max_steps_exits_2(self, tmp_path, capsys, flags):
        # duration / te is inf in the first, which no step count rounds to;
        # the second would allocate its 10^13-step trace
        code = main(flags + ["--out", str(tmp_path / "never")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("abrlab: invalid configuration: duration: must span at most")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "never").exists()

    def test_max_steps_is_inclusive(self):
        with mock.patch.object(config, "MAX_STEPS", 200):
            RunConfig(duration=20.0).validate()  # 200 steps of 0.1 s
            with pytest.raises(ConfigError, match="^duration: must span at most 200 te steps"):
                RunConfig(duration=20.1).validate()

    @pytest.mark.parametrize("seeds", ["--seeds=1,1", "--seeds=0,1,0"])
    def test_repeated_seed_exits_2(self, tmp_path, capsys, seeds):
        code = main(self.ARGS + [seeds, "--out", str(tmp_path / "never")])
        assert code == 2
        assert "seeds: must be distinct" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_unwritable_out_exits_1(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("occupied")
        code = main(self.ARGS + ["--out", str(target)])
        assert code == 1

    def test_batch_matches_singles(self, tmp_path):
        # scenario 1 at zero buffer noise (the default) draws bitwise-equal
        # inputs for every seed and runs one episode for all; buffer noise or
        # scenario 2 draws each seed's own
        for i, (flags, calls) in enumerate(((["--scenario", "1"], 1),
                                            (["--scenario", "1", "--x-noise", "0.1"], 5),
                                            (["--scenario", "2"], 5))):
            assert assert_batch_matches_singles(flags + ["--duration", "60"], [0, 1, 2, 3, 4],
                                                tmp_path / str(i)) == calls

    def test_hundred_scenario1_seeds_run_one_episode(self, tmp_path):
        assert kernel_calls(["--scenario", "1", "--seeds", "0..99", "--out", str(tmp_path)]) == 1
        rows = (tmp_path / "qoe.csv").read_text().splitlines()
        assert [row.split(",")[2] for row in rows[1:]] == [str(s) for s in range(100)]
        assert len(set(row.split(",", 3)[3] for row in rows[1:])) == 1


@pytest.mark.parametrize("f", [f for f in fields(RunConfig) if f.metadata["rule"]],
                         ids=lambda f: f.name)
def test_declared_rule(f):
    """A value just past a declared bound, off the te grid, outside the
    choices or (for a float) not finite is rejected with an error that starts
    with the field's name; a closed bound and each choice are accepted; the
    rule is in the flag's help."""
    def check(value, valid):
        cfg = replace(RunConfig(), **{f.name: [value] if get_origin(f.type) is list else value})
        if valid:
            cfg.validate()
        else:
            with pytest.raises(ConfigError, match=f"^{f.name}: "):
                cfg.validate()

    te, floats = RunConfig().te, f.type in (float, list[float])
    for value in (math.nan, math.inf, -math.inf) if floats else ():
        check(value, False)
    for value in (0.0, -te, 1.5 * te) if f.metadata["grid"] else ():
        check(value, False)
    for op, bound in f.metadata["rules"].items():
        if op == "choices":
            for value in bound:
                check(value, True)
            for value in {0, 4, "bogus"} - set(bound):
                check(value, False)
            continue
        inward = 1 if op in ("gt", "ge") else -1
        past = math.nextafter(bound, -inward * math.inf) if floats else bound - inward
        check(past, False)
        check(bound, op in ("ge", "le"))
    helps = {action.dest: action.help for action in build_arg_parser()._actions}
    assert helps[f.name].endswith(f.metadata["rule"])


@settings(max_examples=40, deadline=None)
@given(cfg=run_configs(), seed=st.integers(0, 1000))
def test_every_valid_config_runs(cfg, seed):
    """A config that validates round-trips through a config file and runs
    through the CLI, and its episode stays sane."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        emit_config(cfg, path)
        assert parse_config(["--config", str(path)]) == cfg
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["--config", str(path), "--seeds", str(seed), "--out", tmp])
        assert code == 0, stderr.getvalue()
    log = run_single(cfg, seed)
    for name, value in vars(log).items():
        if isinstance(value, np.ndarray) and name != "c_est":
            assert np.isfinite(value).all(), name
    assert (np.isnan(log.c_est) | (log.c_est > 0.0)).all()
    assert (log.x >= 0.0).all()
    assert np.isin(log.R_k, cfg.ladder).all()


@settings(max_examples=40, deadline=None)
@given(batch=seed_batches())
@example(batch=(RunConfig(duration=20.0), [3, 0]))
@example(batch=(RunConfig(scenario=2, duration=20.0), [0, 1, 2]))
def test_batch_writes_what_each_seed_writes_alone(batch):
    """A valid config run on two or three seeds writes, for each seed, the
    bytes of that seed's own run, whether the seeds share an episode or not.
    The kernel runs once per seed whose inputs differ from the previous
    seed's, and once in all for scenario 1 with an exact buffer measurement."""
    cfg, seeds = batch
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        emit_config(cfg, path)
        calls = assert_batch_matches_singles(["--config", str(path)], seeds, tmp)
    traces = [build_scenario(cfg, seed) for seed in seeds]
    assert calls == 1 + sum(not a.bitwise_equal(b) for a, b in zip(traces, traces[1:]))
    if cfg.scenario == 1 and cfg.x_noise == 0.0:
        assert calls == 1
    event("shared episode" if calls < len(seeds) else "an episode per seed")
