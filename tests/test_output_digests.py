"""Byte-identity guard: SHA-256 digests of every CLI output and of the table.

``output_digests.json`` pins the digests of everything ``abrlab`` writes for
scenarios 1-3 with replanning off and on, seeds 0..1 and every file output
(``--emit qoe,table,log,plotdata``) at the default settings, plus the table
printed on stdout.  A change that moves one byte of any of them fails here.

Record the digests again only when the outputs change on purpose:

    PYTHONPATH=src python tests/test_output_digests.py
"""
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from abrlab import cli

DIGESTS = Path(__file__).with_name("output_digests.json")
CALLS = [(scenario, replan) for scenario in (1, 2, 3) for replan in (False, True)]


def _call_key(scenario: int, replan: bool) -> str:
    return f"s{scenario}_{'replan' if replan else 'noreplan'}"


def output_digests(scenario: int, replan: bool, outdir: Path) -> dict:
    """Run one CLI call; map each output file name and ``stdout`` to its digest."""
    argv = ["--scenario", str(scenario), "--replan" if replan else "--no-replan",
            "--seeds", "0..1", "--emit", "qoe,table,log,plotdata", "--out", str(outdir)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(outdir.iterdir())}
    digests["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return digests


@pytest.mark.parametrize("scenario,replan", CALLS,
                         ids=[_call_key(s, r) for s, r in CALLS])
def test_outputs_match_recorded_digests(scenario, replan, tmp_path):
    expected = json.loads(DIGESTS.read_text())[_call_key(scenario, replan)]
    assert output_digests(scenario, replan, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    recorded = {}
    for scenario, replan in CALLS:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[_call_key(scenario, replan)] = output_digests(scenario, replan, Path(tmp))
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, recorded.values()))} digests to {DIGESTS}", file=sys.stderr)
