"""Configuration parsing, validation and the command-line runner."""
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from fnmatch import fnmatchcase
from pathlib import Path
from typing import get_origin
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import abrlab
from abrlab import config, kernels
from abrlab.cli import OUTPUT_PATTERNS, main, run_single
from abrlab.config import (DEFAULT_LADDER, ConfigError, RunConfig, build_arg_parser,
                           emit_config, parse_config, parse_seeds, read_config_file)
from abrlab.metrics import qoe_report
from abrlab.plant import LOG_COLUMNS, build_scenario, run_episode

from config_strategies import (FUZZ_STEPS, FUZZ_TAPS, REFUSED, cap_fields, check_refused,
                               exponent_fields, run_configs, seed_batches)

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


def assert_refused(flags, field, cwd, monkeypatch, capsys) -> None:
    """Run ``main`` on ``--out never`` and ``flags`` in the empty directory
    ``cwd``: it refuses them, naming ``field`` first (``check_refused``)."""
    monkeypatch.chdir(cwd)
    code = main(["--out", "never", *flags])
    check_refused(flags, field, code, capsys.readouterr().err, os.listdir(cwd))


def estimate_calls(argv) -> int:
    """Run the CLI quietly and count its derivations of the ``c_est`` column."""
    with mock.patch.object(kernels, "held_estimates", wraps=kernels.held_estimates) as held:
        run_quiet(argv)
    return held.call_count


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

    def test_fields_cannot_be_reassigned(self):
        # a config is checked when it is made, and cannot change after it:
        # no field can be reassigned, and a sequence field is a tuple
        # (test_sequences_are_tuples), so no item can either
        cfg = RunConfig()
        for f in fields(RunConfig):
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))

    def test_flags(self):
        cfg = parse_config(["--scenario", "2", "--replan", "--seeds", "0..9",
                            "--kp", "0.5", "--ladder", "0.5,1,2"])
        assert cfg.scenario == 2 and cfg.replan is True
        assert cfg.seeds == tuple(range(10))
        assert cfg.kp == 0.5
        assert cfg.ladder == (0.5, 1.0, 2.0)

    def test_no_replan_flag(self):
        assert parse_config(["--no-replan"]).replan is False

    def test_one_parser_independent_configs(self):
        # the parser is built once per process and parse_args keeps no state
        assert build_arg_parser() is build_arg_parser()
        a = parse_config(["--scenario", "2", "--replan", "--seeds", "3..4"])
        b = parse_config(["--kp", "0.5"])
        assert (a.scenario, a.replan, a.seeds, a.kp) == (2, True, (3, 4), RunConfig().kp)
        assert b == RunConfig(kp=0.5)

    def test_sequences_are_tuples(self, tmp_path):
        # however a config is made, each of its sequence fields is a tuple
        sequences = ["seeds", "emit", "ladder"]
        path = tmp_path / "run.cfg"
        emit_config(RunConfig(**NON_DEFAULT), path)
        for cfg in (RunConfig(), RunConfig(**NON_DEFAULT), replace(RunConfig(), **NON_DEFAULT),
                    parse_config(["--seeds", "0..3", "--emit", "log", "--ladder", "0.5,1"]),
                    parse_config([]), parse_config(["--config", str(path)])):
            for name in sequences:
                assert type(getattr(cfg, name)) is tuple, (name, getattr(cfg, name))
        assert sequences == [f.name for f in fields(RunConfig) if get_origin(f.type) is tuple]

    def test_a_callers_list_changed_later_leaves_the_config_unchanged(self):
        # the config holds tuples of the lists' items, so it and its run
        # stay as checked
        seeds, emit, ladder = [1, 2], ["qoe"], [0.35, 0.6, 1.0]
        cfg = RunConfig(scenario=2, duration=60.0, seeds=seeds, emit=emit, ladder=ladder)
        seeds.extend([1, -5])
        emit.append("bogus")
        ladder.clear()
        assert set(run_single(cfg, 0).R.tolist()) <= {0.35, 0.6, 1.0}
        assert (cfg.seeds, cfg.emit, cfg.ladder) == ((1, 2), ("qoe",), (0.35, 0.6, 1.0))

    def test_equal_configs_hash_equal(self):
        # a config made from lists is the one made from tuples
        lists = RunConfig(**NON_DEFAULT)
        tuples = RunConfig(**{name: tuple(value) if isinstance(value, list) else value
                              for name, value in NON_DEFAULT.items()})
        assert hash(lists) == hash(tuples) and lists == tuples
        assert hash(RunConfig()) == hash(RunConfig(seeds=[0], ladder=list(DEFAULT_LADDER)))
        assert len({RunConfig(), parse_config([]), lists, tuples}) == 2

    def test_out_a_config_file_cannot_hold(self):
        # an output directory a config file would read back otherwise (flag
        # text is stripped, so edge whitespace reaches the check only directly)
        for out in ("runs#1", "runs\n", "a\rb", " runs", "runs\t"):
            with pytest.raises(ConfigError, match="out:"):
                RunConfig(out=out)

    def test_just_inside_the_bounds(self):
        # each accepted just short of a rule that a REFUSED row breaks
        parse_config(["--x0", "4", "--xf", "0", "--tf", "10"])
        parse_config(["--scenario", "3", "--duration", "2.1", "--delta-startup", "2"])
        parse_config(["--x0", "0", "--xf", "0"])
        parse_config(["--x-noise", "0.99", "--replan-lower", "0.01"])

    def test_config_file_round_trip(self, tmp_path):
        assert set(NON_DEFAULT) == {f.name for f in fields(RunConfig)}
        cfg = RunConfig(**NON_DEFAULT)
        for name, value in NON_DEFAULT.items():
            assert value != getattr(RunConfig(), name), name
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

    def test_only_the_merged_config_is_checked(self, tmp_path):
        # a file value that a flag overrides is never checked on its own
        path = tmp_path / "run.cfg"
        path.write_text("controller.kp = -1\n")
        with pytest.raises(ConfigError, match="^kp: "):
            parse_config(["--config", str(path)])
        assert parse_config(["--config", str(path), "--kp", "0.5"]).kp == 0.5

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

    def test_repeated_key_rejected(self, tmp_path, monkeypatch, capsys):
        # the file's first value is not silently replaced by a later one
        path = tmp_path / "twice.cfg"
        path.write_text("controller.kp = 0.3\n# again\ncontroller.kp = 0.5\n")
        with pytest.raises(ConfigError, match="twice.cfg:3: repeated key 'controller.kp'"):
            read_config_file(path)
        (tmp_path / "cwd").mkdir()
        assert_refused(["--config", str(path)], f"{path}:3", tmp_path / "cwd", monkeypatch,
                       capsys)
        # a flag still overrides a key the file holds once
        path.write_text("controller.kp = 0.3\n")
        assert parse_config(["--config", str(path), "--kp", "0.5"]).kp == 0.5

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\ncontroller.kp = 0.4  # inline\n")
        assert read_config_file(path) == {"kp": 0.4}

    def test_byte_order_mark_accepted(self, tmp_path):
        # a UTF-8 file that starts with a byte-order mark, as some editors
        # save one, is read without it
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfrun.scenario = 2\n")
        assert read_config_file(path) == {"scenario": 2}

    def test_non_ascii_out_round_trips_under_an_ascii_locale(self, tmp_path):
        # a config file is UTF-8 whatever the locale: under the C locale,
        # with neither UTF-8 mode nor locale coercion, a non-ASCII out is
        # written and read back.  The program names it by escapes, as
        # non-ASCII text on the command line cannot be decoded there
        src = str(Path(abrlab.__file__).parents[1])
        program = ("from abrlab.config import RunConfig, emit_config, parse_config\n"
                   "cfg = RunConfig(out='r\\u00e9sum\\u00e9')\n"
                   "emit_config(cfg, 'run.cfg')\n"
                   "assert parse_config(['--config', 'run.cfg']) == cfg\n")
        run = subprocess.run([sys.executable, "-c", program], cwd=tmp_path,
                             env={**os.environ, "PYTHONPATH": src, "LC_ALL": "C",
                                  "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert "out = résumé\n".encode() in (tmp_path / "run.cfg").read_bytes()

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

    @pytest.mark.parametrize("make", [lambda d: d / "missing.cfg",
                                      lambda d: d,
                                      lambda d: d / "latin1.cfg"],
                             ids=["missing", "directory", "not-utf8"])
    def test_unreadable_config_file_exits_2(self, tmp_path, monkeypatch, capsys, make):
        # not UTF-8; were it read as Latin-1, the value would not parse
        (tmp_path / "latin1.cfg").write_bytes(b"controller.kp = 0.4\xe9\n")
        path = make(tmp_path)
        (tmp_path / "cwd").mkdir()
        assert_refused(["--config", str(path)], f"cannot read {path}", tmp_path / "cwd",
                       monkeypatch, capsys)

    def test_max_taps_is_inclusive(self):
        with mock.patch.object(config, "MAX_TAPS", 20):
            RunConfig(tau=2.0)  # 20 steps of 0.1 s
            with pytest.raises(ConfigError, match="^tau: must span at most 20 te steps"):
                RunConfig(tau=2.1)

    # REFUSED rows whose magnitudes overflow, with the column each overflows:
    # the buffer fills at 1e600 s per s, the correction is inf, the capacity
    # average overflows
    OVERFLOWING = [(["--ladder", "1e-300", "--c0", "1e300"], "ladder", "x"),
                   (["--kp", "1e300", "--alpha", "-1e-300"], "alpha", "u"),
                   (["--scenario", "3", "--replan", "--s3-level-hi", "1e308"], "s3_level_hi", "x")]
    OVERFLOWING_IDS = ["tiny-rung", "huge-kp", "huge-s3-level"]

    @pytest.mark.parametrize("flags, name, column", OVERFLOWING, ids=OVERFLOWING_IDS)
    def test_run_episode_rejects_a_non_finite_column(self, flags, name, column):
        # the backstop behind the config's rules: an unchecked config of the
        # same magnitudes stops after the kernel with the column and the
        # step, and without a NumPy overflow warning; the check is patched
        # out to make it
        with mock.patch.object(RunConfig, "__post_init__"):
            cfg = parse_config(["--duration", "120"] + flags)
        with pytest.raises(ConfigError, match=f"^{name}: "):
            replace(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{column} is not finite, first at step "):
                run_episode(build_scenario(cfg, 0), cfg)

    def test_finite_columns_whose_sum_overflows_pass_the_backstop(self):
        # the backstop sums each column in one pass; finite values whose sum
        # overflows make it search the column for a bad step, and it finds none
        cfg = RunConfig(duration=20.0)
        n, decisions = cfg.n_steps, len(range(0, cfg.n_steps, cfg.decision_steps))
        assert sum([1e308, 1e308]) == math.inf
        records = ([1e308] * n, [-1e308] * n, np.zeros(n, dtype=bool),
                   np.full(decisions, cfg.ladder[0]), np.full(decisions, 1e308),
                   np.full(decisions, 1e308))
        with mock.patch.object(kernels, "episode_loop", return_value=records), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            log = run_episode(build_scenario(cfg, 0), cfg)
        assert (log.x == 1e308).all() and (log.ref == -1e308).all() and (log.u == 1e308).all()

    def test_overflow_prints_one_stderr_line(self, tmp_path, capfd):
        # in a fresh process, with every warning shown: the config is
        # rejected before the capacity average can overflow
        src = str(Path(abrlab.__file__).parents[1])
        code = subprocess.run(
            [sys.executable, "-W", "default", "-c",
             "import sys; from abrlab.cli import main; sys.exit(main(sys.argv[1:]))",
             "--scenario", "3", "--replan", "--s3-level-hi", "1e308", "--duration", "120",
             "--out", str(tmp_path / "never")],
            env={**os.environ, "PYTHONPATH": src}).returncode
        err = capfd.readouterr().err
        assert code == 2
        assert err.startswith("abrlab: invalid configuration: s3_level_hi: must be <= ")
        assert err.count("\n") == 1
        assert "Warning" not in err
        assert not (tmp_path / "never").exists()

    def test_max_steps_is_inclusive(self):
        with mock.patch.object(config, "MAX_STEPS", 200):
            RunConfig(duration=20.0)  # 200 steps of 0.1 s
            with pytest.raises(ConfigError, match="^duration: must span at most 200 te steps"):
                RunConfig(duration=20.1)

    def test_caps_count_whole_steps(self):
        # a count at each cap whose float quotient lies an ulp above it is at
        # the cap, not past it
        assert 700000.0 / 0.7 > config.MAX_STEPS and 257.0 / 0.00257 > config.MAX_TAPS
        cfg = RunConfig(te=0.7, duration=700000.0, tau=1.4, decision_interval=1.4,
                        chunk_duration=1.4, s2_segment=70.0, s3_segment=21.0)
        assert cfg.n_steps == config.MAX_STEPS
        te = 0.00257
        cfg = RunConfig(te=te, tau=257.0, decision_interval=800 * te, chunk_duration=800 * te,
                        s2_segment=20000 * te, s3_segment=8000 * te)
        assert cfg.steps(cfg.tau) == config.MAX_TAPS

    def test_unwritable_out_exits_1(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("occupied")
        code = main(self.ARGS + ["--out", str(target)])
        assert code == 1

    def test_rerun_names_the_files_it_did_not_write(self, tmp_path, capsys):
        # a fresh --out gets no stderr line; a rerun with fewer seeds names
        # each earlier episode file, one line each, and deletes nothing.  A
        # directory whose name matches an output's is not a file: not named
        out = tmp_path / "out"
        assert main(["--seeds", "0..2", "--emit", "qoe,log", "--duration", "20",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        (out / "episode_figures").mkdir()
        assert main(["--seeds", "5", "--duration", "20", "--out", str(out)]) == 0
        stale = [out / f"episode_s1_noreplan_{seed}.csv" for seed in range(3)]
        assert capsys.readouterr().err.splitlines() == [
            f"abrlab: {path}: not written by this run" for path in stale]
        assert all(path.exists() for path in stale)
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [p.name for p in stale] + ["episode_figures", "qoe.csv", "qoe.json", "table.csv"])

    # The files each --emit choice writes for seeds 0..1 of scenario 2.
    EMITTED = {"log": ["episode_s2_noreplan_{}.csv"],
               "plotdata": ["capacity_s2_noreplan_{}.csv", "buffer_s2_noreplan_{}.csv"],
               "qoe": ["qoe.csv", "qoe.json"], "table": ["table.csv"]}
    EMIT_ARGS = ["--scenario", "2", "--seeds", "0..1", "--duration", "20"]

    def emitted(self, choices):
        return sorted({name.format(seed) for choice in choices
                       for name in self.EMITTED[choice] for seed in (0, 1)})

    @pytest.mark.parametrize("choice", config.EMIT_CHOICES)
    def test_every_emitted_file_is_recorded(self, tmp_path, capsys, choice):
        # a fresh --out gets no stderr line, so the run recorded each file it
        # wrote that an output pattern matches, and every file matches one
        out = tmp_path / "out"
        assert main(self.EMIT_ARGS + ["--emit", choice, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in out.iterdir()) == self.emitted([choice])
        assert all(any(fnmatchcase(p.name, pat) for pat in OUTPUT_PATTERNS)
                   for p in out.iterdir())

    def test_rerun_names_each_output_kind_it_did_not_write(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(self.EMIT_ARGS + ["--emit", ",".join(self.EMITTED), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert main(self.EMIT_ARGS + ["--emit", "qoe", "--out", str(out)]) == 0
        stale = [name for name in self.emitted(self.EMITTED) if not name.startswith("qoe.")]
        assert len(stale) == 7
        assert capsys.readouterr().err.splitlines() == [
            f"abrlab: {out / name}: not written by this run" for name in stale]
        assert sorted(p.name for p in out.iterdir()) == self.emitted(self.EMITTED)

    def test_batch_matches_singles(self, tmp_path):
        # scenario 1 at zero buffer noise (the default) draws bitwise-equal
        # inputs for every seed and runs one episode for all; buffer noise or
        # scenario 2 draws each seed's own
        for i, (flags, calls) in enumerate(((["--scenario", "1"], 1),
                                            (["--scenario", "1", "--x-noise", "0.1"], 5),
                                            (["--scenario", "2"], 5))):
            assert assert_batch_matches_singles(flags + ["--duration", "60"], [0, 1, 2, 3, 4],
                                                tmp_path / str(i)) == calls

    @pytest.mark.parametrize("emit, per_episode", [("qoe,table", 0), ("log", 1), ("plotdata", 1),
                                                   ("qoe,table,log,plotdata", 1)])
    def test_estimates_are_derived_only_for_per_step_outputs(self, tmp_path, emit,
                                                              per_episode):
        # the QoE report reads only per-decision columns, so a QoE-only batch
        # derives no c_est; a per-step output derives it once per episode,
        # which scenario 1 at zero buffer noise shares between its seeds
        for i, (scenario, episodes) in enumerate((("2", 3), ("1", 1))):
            argv = ["--scenario", scenario, "--duration", "60", "--seeds", "0..2",
                    "--emit", emit, "--out", str(tmp_path / str(i))]
            assert estimate_calls(argv) == per_episode * episodes

    def test_hundred_scenario1_seeds_run_one_episode(self, tmp_path):
        assert kernel_calls(["--scenario", "1", "--seeds", "0..99", "--out", str(tmp_path)]) == 1
        rows = (tmp_path / "qoe.csv").read_text().splitlines()
        assert [row.split(",")[2] for row in rows[1:]] == [str(s) for s in range(100)]
        assert len(set(row.split(",", 3)[3] for row in rows[1:])) == 1

    def test_validation_walks_each_seed_a_fixed_number_of_times(self, tmp_path):
        # the config is checked once, when parse_config makes it; were it
        # checked again per seed, a batch of S seeds would walk S^2 seeds
        walked = []
        problems = RunConfig._problems

        def counting(cfg):
            walked.append(len(cfg.seeds))
            return problems(cfg)

        with mock.patch.object(RunConfig, "_problems", counting):
            run_quiet(["--scenario", "1", "--seeds", "0..199", "--duration", "10",
                       "--out", str(tmp_path)])
        assert walked == [200]

    def test_run_refuses_an_invalid_batch(self, tmp_path):
        # the batch is refused when it is made, so there is nothing to run
        with pytest.raises(ConfigError, match="^seeds: must be distinct"):
            RunConfig(seeds=[0, 0], out=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("f", [f for f in fields(RunConfig) if f.metadata["rule"]],
                         ids=lambda f: f.name)
def test_declared_rule(f):
    """A value just past a declared bound, off the te grid, outside the
    choices or (for a float) not finite is rejected with an error that starts
    with the field's name; a closed bound and each choice are accepted; the
    rule is in the flag's help."""
    def check(value, valid):
        changes = {f.name: (value,) if get_origin(f.type) is tuple else value}
        if valid:
            replace(RunConfig(), **changes)
        else:
            with pytest.raises(ConfigError, match=f"^{f.name}: "):
                replace(RunConfig(), **changes)

    te, floats = RunConfig().te, f.type in (float, tuple[float, ...])
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


@pytest.mark.parametrize("flags, field", REFUSED, ids=[" ".join(flags) for flags, _ in REFUSED])
def test_refused(flags, field, tmp_path, monkeypatch, capsys):
    """Every refused configuration exits 2 with one stderr line that names
    its field, and writes nothing."""
    assert_refused(flags, field, tmp_path, monkeypatch, capsys)


def unchecked_values(flags):
    """The field values of a ``REFUSED`` row's flags, parsed with the
    config's check patched out, or None when the flags are refused while
    parsing."""
    with mock.patch.object(RunConfig, "__post_init__"):
        try:
            return vars(parse_config(["--out", "never", *flags]))
        except ConfigError:
            return None


# the REFUSED rows whose flags parse, as (flags, field values, field)
PARSED = [(flags, values, field) for flags, field in REFUSED
          if (values := unchecked_values(flags)) is not None]


@pytest.mark.parametrize("values, field", [(values, field) for _, values, field in PARSED],
                         ids=[" ".join(flags) for flags, _, _ in PARSED])
def test_entry_points_refuse(values, field):
    """A ``RunConfig`` with the field values of a refused configuration that
    parses cannot be made, directly or by ``replace``: it refuses them,
    naming the field, so no entry point ever sees them."""
    for make in (lambda: RunConfig(**values), lambda: replace(RunConfig(), **values)):
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}: "):
            make()


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
    for name in LOG_COLUMNS + ("t_k", "R_k", "x_k"):
        if name != "c_est":
            assert np.isfinite(getattr(log, name)).all(), name
    assert (np.isnan(log.c_est) | (log.c_est > 0.0)).all()
    assert (log.x >= 0.0).all()
    # the kernel's per-decision buffer is the buffer at every decision step
    assert log.x_k.tobytes() == log.x[::cfg.decision_steps].tobytes()
    assert np.isin(log.R_k, cfg.ladder).all()


@settings(max_examples=100, deadline=None)
@given(values=exponent_fields(), seed=st.integers(0, 1000))
def test_every_config_by_exponent_is_refused_or_runs(values, seed):
    """Field values drawn by binary exponent over their declared ranges
    (``exponent_fields``, at most one short episode each; 100 examples) make
    a config that ``RunConfig`` refuses, naming a field, or one that runs
    with every NumPy ``RuntimeWarning`` raised as an error and gives finite
    columns and a QoE report."""
    try:
        cfg = RunConfig(**values)
    except ConfigError as err:
        field = str(err).split(":")[0]
        assert field in {f.name for f in fields(RunConfig)}, err
        event(f"refused: {field}")
        return
    event("runs")
    assert_runs_to_finite_columns(cfg, seed)


def assert_runs_to_finite_columns(cfg, seed):
    """The config's episode runs with every NumPy ``RuntimeWarning`` raised
    as an error and gives finite columns and a QoE report."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        log = run_single(cfg, seed)
        qoe_report(log, seed)
        for name in LOG_COLUMNS + ("t_k", "R_k", "u_k", "x_k"):
            if name != "c_est":
                assert np.isfinite(getattr(log, name)).all(), name
        assert (np.isnan(log.c_est) | (log.c_est > 0.0)).all()


@settings(max_examples=100, deadline=None)
@given(drawn=cap_fields(), seed=st.integers(0, 1000))
def test_step_and_tap_counts_across_the_caps(drawn, seed):
    """With MAX_STEPS and MAX_TAPS patched down to ``FUZZ_STEPS`` and
    ``FUZZ_TAPS``, a config whose step or tap count (``cap_fields``, by
    binary exponent across each cap) passes a cap is refused, naming
    duration or tau; one at or under both caps runs to finite columns.  An
    example costs at most one episode of 300 steps with a 30-tap window (100
    examples, about 0.5 s)."""
    values, steps, taps = drawn
    past = {"duration"} if steps > FUZZ_STEPS else set()
    past |= {"tau"} if taps > FUZZ_TAPS else set()
    with mock.patch.object(config, "MAX_STEPS", FUZZ_STEPS), \
            mock.patch.object(config, "MAX_TAPS", FUZZ_TAPS):
        try:
            cfg = RunConfig(**values)
        except ConfigError as err:
            assert str(err).split(":")[0] in past, err
            event("refused")
            return
    assert not past, (steps, taps)
    assert (cfg.n_steps, cfg.steps(cfg.tau)) == (steps, taps)
    event("runs at a cap" if steps == FUZZ_STEPS or taps == FUZZ_TAPS else "runs")
    assert_runs_to_finite_columns(cfg, seed)


@settings(max_examples=40, deadline=None)
@given(batch=seed_batches())
@example(batch=(RunConfig(duration=20.0), [3, 0]))
@example(batch=(RunConfig(scenario=2, duration=20.0), [0, 1, 2]))
@example(batch=(RunConfig(scenario=2, replan=True), [0, 1, 2]))
@example(batch=(RunConfig(scenario=3, replan=True), [0, 1, 2]))
def test_batch_writes_what_each_seed_writes_alone(batch):
    """A valid config run on two or three seeds writes, for each seed, the
    bytes of that seed's own run, whether the seeds share an episode or not.
    The kernel runs once per seed whose inputs differ from the previous
    seed's, and once in all for scenario 1 with an exact buffer measurement.
    The full-length replanning examples run the steady controller on the
    reference ramp's copy and the memoized weights that the seeds share."""
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
