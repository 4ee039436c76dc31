"""Configuration parsing, validation and the command-line runner."""
import contextlib
import io
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abrlab.cli import main, run_single
from abrlab.config import (ConfigError, RunConfig, build_arg_parser, emit_config,
                           parse_config, parse_seeds, read_config_file)

from config_strategies import run_configs

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
        with pytest.raises(ConfigError):
            parse_config(["--alpha", "5"])
        # a reference falling as fast as playback drains the buffer somewhere
        with pytest.raises(ConfigError):
            parse_config(["--x0", "10", "--xf", "0", "--tf", "5"])
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
        # just inside the bounds
        parse_config(["--x0", "4", "--xf", "0", "--tf", "10"])
        parse_config(["--scenario", "3", "--duration", "2.1"])

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

    @pytest.mark.parametrize("seeds", ["--seeds=-1", "--seeds=-3..-1", "--seeds=2,-1"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, seeds):
        code = main(self.ARGS + [seeds, "--out", str(tmp_path / "never")])
        assert code == 2
        assert "seeds: must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

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
        batch = tmp_path / "batch"
        main(["--scenario", "1", "--seeds", "0,1", "--duration", "60",
              "--out", str(batch)])
        rows = (batch / "qoe.csv").read_text().splitlines()
        for i, seed in enumerate((0, 1)):
            single = tmp_path / f"single{seed}"
            main(["--scenario", "1", "--seeds", str(seed), "--duration", "60",
                  "--out", str(single)])
            srows = (single / "qoe.csv").read_text().splitlines()
            assert srows[1] == rows[1 + i]


@settings(max_examples=40, deadline=None)
@given(cfg=run_configs(), seed=st.integers(0, 1000))
def test_every_valid_config_runs(cfg, seed):
    """A config that validates runs through the CLI, and its episode stays sane."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        emit_config(cfg, path)
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
