"""Byte-identity guard: SHA-256 digests of every CLI output and of the table.

``output_digests.json`` pins the digests of everything ``abrlab`` writes for
scenarios 1-3 with replanning off and on, seeds 0..1 and every file output
(``--emit qoe,table,log,plotdata``) at the default settings, plus the table
printed on stdout.  A change that moves one byte of any of them fails here.

The CSV files hold ``%.10g`` text, which hides a one-ulp drift, so the file
also pins the dtype and the SHA-256 of the raw bytes of every ``EpisodeLog``
array for the same six cells at seed 0 and for non-default settings
(buffer-measurement noise, other decision intervals and windows, clock
thresholds at te 0.01, and capacities that put the replanning read exactly
on a rung).

Record the digests again only when the outputs change on purpose:

    PYTHONPATH=src python tests/test_output_digests.py
"""
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from abrlab import cli
from abrlab.config import parse_config
from abrlab.plant import EpisodeLog

DIGESTS = Path(__file__).with_name("output_digests.json")
CALLS = [(scenario, replan) for scenario in (1, 2, 3) for replan in (False, True)]
ARRAYS_KEY = "episode_arrays"


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
    """Map each array field of the seed-0 ``EpisodeLog`` to 'dtype:sha256'."""
    log = cli.run_single(parse_config(flags), 0)
    return {name: f"{value.dtype.str}:{hashlib.sha256(value.tobytes()).hexdigest()}"
            for name, value in vars(log).items() if isinstance(value, np.ndarray)}


@pytest.mark.parametrize("scenario,replan", CALLS,
                         ids=[_call_key(s, r) for s, r in CALLS])
def test_outputs_match_recorded_digests(scenario, replan, tmp_path):
    expected = json.loads(DIGESTS.read_text())[_call_key(scenario, replan)]
    assert output_digests(scenario, replan, tmp_path) == expected


@pytest.mark.parametrize("key", EPISODES)
def test_episode_arrays_match_recorded_digests(key):
    expected = json.loads(DIGESTS.read_text())[ARRAYS_KEY][key]
    digests = array_digests(EPISODES[key])
    assert set(digests) == {f for f, t in EpisodeLog.__annotations__.items()
                            if t is np.ndarray}
    assert digests == expected


if __name__ == "__main__":
    import tempfile

    recorded = {}
    for scenario, replan in CALLS:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[_call_key(scenario, replan)] = output_digests(scenario, replan, Path(tmp))
    recorded[ARRAYS_KEY] = {key: array_digests(flags) for key, flags in EPISODES.items()}
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote the digests of {len(CALLS)} CLI calls and {len(EPISODES)} episodes"
          f" to {DIGESTS}", file=sys.stderr)
