"""Byte-identity guard: SHA-256 digests of every CLI output and of the table.

``output_digests.json`` pins the digests of everything ``abrlab`` writes for
scenarios 1-3 with replanning off and on, seeds 0..1 and every file output
(``--emit qoe,table,log,plotdata``) at the default settings, plus the table
printed on stdout.  A change that moves one byte of any of them fails here.

The CSV files hold ``%.10g`` text, which hides a one-ulp drift, so the file
also pins the dtype and the SHA-256 of the raw bytes of every ``EpisodeLog``
array for the same six cells at seed 0 and for non-default settings
(buffer-measurement noise, other decision intervals and windows, clock
thresholds at te 0.01, capacities that put the replanning read exactly on a
rung, and a window of 4,001 taps).  For the paper's table it pins, per
(scenario, arm) cell, one SHA-256 over every array of the 100 seeds'
``EpisodeLog`` and the cell's ``table.csv``.

Record the digests again only when the outputs change on purpose:

    PYTHONPATH=src python tests/test_output_digests.py
"""
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from abrlab import cli, metrics
from abrlab.config import parse_config
from abrlab.plant import LOG_COLUMNS

DIGESTS = Path(__file__).with_name("output_digests.json")
# The array columns of an ``EpisodeLog``: the per-step columns of its CSV
# file and the per-decision ones.  The log derives most of them on first read.
ARRAY_COLUMNS = LOG_COLUMNS + ("t_k", "R_k", "x_k")
CALLS = [(scenario, replan) for scenario in (1, 2, 3) for replan in (False, True)]
ARRAYS_KEY = "episode_arrays"
TABLE_KEY = "paper_table"


def _call_key(scenario: int, replan: bool) -> str:
    return f"s{scenario}_{'replan' if replan else 'noreplan'}"


def _arm(replan: bool) -> str:
    return "--replan" if replan else "--no-replan"


# Flags of the seed-0 episodes whose arrays are pinned, by key.
EPISODES = {_call_key(s, r): ["--scenario", str(s), _arm(r)] for s, r in CALLS}
EPISODES["s3_replan_x_noise_0.05"] = ["--scenario", "3", "--replan", "--x-noise", "0.05"]
EPISODES["s2_replan_decision_1_tau_0.5"] = ["--scenario", "2", "--replan",
                                            "--decision-interval", "1", "--tau", "0.5"]
EPISODES["s2_noreplan_x_noise_0.1"] = ["--scenario", "2", "--no-replan", "--x-noise", "0.1"]
EPISODES["s3_noreplan_decision_0.5_tau_2"] = ["--scenario", "3", "--no-replan",
                                              "--decision-interval", "0.5", "--tau", "2"]
# Clock thresholds at te 0.01, where ceil(x / te) is one step late: 0.07 s and
# 0.28 s are first reached at steps 7 and 28 (ceil gives 8 and 29), and 2.47 s
# at step 247 (ceil gives 248), there with the buffer already above a 0.5 s
# chunk, so that playback starts at that step.
for _replan in (True, False):
    _flags = ["--scenario", "2", _arm(_replan), "--te", "0.01", "--duration", "20"]
    EPISODES[f"{_call_key(2, _replan)}_te_0.01_startup_0.07_tf_0.28"] = _flags + [
        "--delta-startup", "0.07", "--tf", "0.28"]
    EPISODES[f"{_call_key(2, _replan)}_te_0.01_startup_2.47_chunk_0.5"] = _flags + [
        "--delta-startup", "2.47", "--chunk-duration", "0.5"]
# Rung boundaries of the replanning coefficient.  At seed 0 the first reads an
# estimate exactly on a rung twice; in the second, reads on a rung decide the
# rung both on the way up and on the way down.
EPISODES["s1_replan_c0_2"] = ["--scenario", "1", "--replan", "--c0", "2"]
EPISODES["s1_replan_c0_0.6_band_3_5"] = ["--scenario", "1", "--replan", "--c0", "0.6",
                                         "--replan-lower", "3", "--replan-upper", "5"]
# A long window: 4,001 taps, with an estimate at 1,199 of its 6,000 steps.
EPISODES["s2_replan_te_0.01_tau_40"] = ["--scenario", "2", "--replan", "--te", "0.01",
                                        "--tau", "40", "--duration", "60"]
# The kernel runs one decision interval at a time: replanning with decisions
# closer than a window, capacity segments that end inside an interval, a last
# interval cut short by the duration, and a 201-tap window whose reads take
# their dots from several blocks per interval.
EPISODES["s3_replan_decision_0.5_tau_2"] = ["--scenario", "3", "--replan",
                                            "--decision-interval", "0.5", "--tau", "2"]
for _replan in (True, False):
    EPISODES[f"{_call_key(2, _replan)}_s2_segment_3.3"] = ["--scenario", "2", _arm(_replan),
                                                           "--s2-segment", "3.3"]
    EPISODES[f"{_call_key(3, _replan)}_s3_segment_2.7"] = ["--scenario", "3", _arm(_replan),
                                                           "--s3-segment", "2.7"]
    EPISODES[f"{_call_key(2, _replan)}_duration_123.4"] = ["--scenario", "2", _arm(_replan),
                                                           "--duration", "123.4"]
EPISODES["s2_replan_te_0.01_tau_2"] = ["--scenario", "2", "--replan", "--te", "0.01",
                                       "--tau", "2", "--duration", "60"]
# The reference ramp, written once per episode: a ramp from and to -0.0,
# which each arm records as +0.0, and a ramp that ends at step 73, inside a
# decision interval.
for _replan in (True, False):
    EPISODES[f"{_call_key(2, _replan)}_x0_-0_xf_-0_t0_3_tf_7.3"] = [
        "--scenario", "2", _arm(_replan), "--x0", "-0.0", "--xf", "-0.0", "--t0", "3",
        "--tf", "7.3"]
EPISODES["s2_noreplan_x0_6_xf_4_tf_7.3"] = ["--scenario", "2", "--no-replan", "--x0", "6",
                                            "--xf", "4", "--tf", "7.3"]


def output_digests(scenario: int, replan: bool, outdir: Path) -> dict:
    """Run one CLI call; map each output file name and ``stdout`` to its digest."""
    argv = ["--scenario", str(scenario), _arm(replan),
            "--seeds", "0..1", "--emit", "qoe,table,log,plotdata", "--out", str(outdir)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(outdir.iterdir())}
    digests["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return digests


def array_digests(flags) -> dict:
    """Map each array column of the seed-0 ``EpisodeLog`` to 'dtype:sha256'."""
    log = cli.run_single(parse_config(flags), 0)
    return {name: f"{value.dtype.str}:{hashlib.sha256(value.tobytes()).hexdigest()}"
            for name, value in ((name, getattr(log, name)) for name in ARRAY_COLUMNS)}


def table_digest(scenario: int, replan: bool, outdir: Path) -> str:
    """Run one cell of the paper's table (seeds 0..99, default settings)
    through the CLI; one SHA-256 over each seed's ``EpisodeLog`` arrays (name,
    dtype and bytes, in seed and ``ARRAY_COLUMNS`` order) and ``table.csv``."""
    digest = hashlib.sha256()
    qoe_report = metrics.qoe_report

    def hashing_report(log, cfg, seed):  # cli.run reports every seed's log
        for name in ARRAY_COLUMNS:
            value = getattr(log, name)
            digest.update(f"{name}:{value.dtype.str}:".encode())
            digest.update(value.tobytes())
        return qoe_report(log, cfg, seed)

    argv = ["--scenario", str(scenario), _arm(replan), "--seeds", "0..99",
            "--emit", "table", "--out", str(outdir)]
    with mock.patch.object(metrics, "qoe_report", hashing_report), \
            contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    digest.update((outdir / "table.csv").read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("scenario,replan", CALLS,
                         ids=[_call_key(s, r) for s, r in CALLS])
def test_outputs_match_recorded_digests(scenario, replan, tmp_path):
    expected = json.loads(DIGESTS.read_text())[_call_key(scenario, replan)]
    assert output_digests(scenario, replan, tmp_path) == expected


@pytest.mark.parametrize("key", EPISODES)
def test_episode_arrays_match_recorded_digests(key):
    expected = json.loads(DIGESTS.read_text())[ARRAYS_KEY][key]
    digests = array_digests(EPISODES[key])
    assert set(expected) == set(ARRAY_COLUMNS)
    assert digests == expected


@pytest.mark.parametrize("scenario,replan", CALLS,
                         ids=[_call_key(s, r) for s, r in CALLS])
def test_paper_table_matches_recorded_digest(scenario, replan, tmp_path):
    expected = json.loads(DIGESTS.read_text())[TABLE_KEY][_call_key(scenario, replan)]
    assert table_digest(scenario, replan, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    recorded = {}
    for scenario, replan in CALLS:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[_call_key(scenario, replan)] = output_digests(scenario, replan, Path(tmp))
    recorded[ARRAYS_KEY] = {key: array_digests(flags) for key, flags in EPISODES.items()}
    recorded[TABLE_KEY] = {}
    for scenario, replan in CALLS:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[TABLE_KEY][_call_key(scenario, replan)] = table_digest(
                scenario, replan, Path(tmp))
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote the digests of {len(CALLS)} CLI calls, {len(EPISODES)} episodes"
          f" and {len(CALLS)} table cells to {DIGESTS}", file=sys.stderr)
