"""Tests of the benchmark itself: metric names, failure detection, tracing.

    python3 -m pytest perfbench/tests
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import abrlab  # noqa: E402
import abrlab.cli  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict:
    return {m["name"]: (m["unit"], m["better"]) for m in DECLARED[kind]}


def test_declared_names_match_the_harness():
    assert [w["name"] for w in DECLARED["workloads"]] == list(wl.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_match_benchmark_json(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "single-run",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {name: unit for name, (unit, _) in _declared(kind).items()}


def _replace_field(path: Path, column: int, value: bytes):
    """Overwrite one field of the first data row of a CSV file."""
    head, first, rest = path.read_bytes().split(b"\r\n", 2)
    fields = first.split(b",")
    fields[column] = value
    path.write_bytes(b"\r\n".join([head, b",".join(fields), rest]))


def _corrupt_qoe(out: Path):
    _replace_field(out / "qoe.csv", 3, b"9.9")  # avg_quality


def _corrupt_log(out: Path):
    _replace_field(next(out.glob("episode_*.csv")), 3, b"0.7")  # R off the ladder


def _remove_plotdata(out: Path):
    next(out.glob("buffer_*.csv")).unlink()


def _truncate_json(out: Path):
    path = out / "qoe.json"
    path.write_bytes(path.read_bytes()[:40])


ALL_OUTPUTS = ("qoe", "table", "log", "plotdata")


@pytest.mark.parametrize("op, corrupt", [
    (wl.round_ops("single-run", 0, 0)[0], _corrupt_qoe),            # digest check
    (wl.round_ops("single-run", 7000, 0)[0], _corrupt_qoe),         # invariants
    (wl.Op(3, True, (7000, 7001), ALL_OUTPUTS), _corrupt_log),
    (wl.Op(3, True, (7000, 7001), ALL_OUTPUTS), _remove_plotdata),
    (wl.Op(3, True, (7000, 7001), ALL_OUTPUTS), _truncate_json),
])
def test_corrupted_output_is_a_failed_operation(tmp_path, op, corrupt):
    reference = wl.load_reference()
    clean = wl.execute(abrlab.cli, op, tmp_path, reference)
    assert clean.problems == []

    def corrupting(cli, op, out):
        result = wl.call_cli(cli, op, out)
        corrupt(out)
        return result

    outcome = wl.execute(abrlab.cli, op, tmp_path, reference, runner=corrupting)
    assert outcome.problems


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    op = wl.Op(3, True, (-1,), ("qoe",))  # the scenario generator rejects a negative seed
    assert wl.execute(abrlab.cli, op, tmp_path, {}).problems


def test_tracing_leaves_outputs_byte_identical(tmp_path):
    op = wl.Op(3, True, (0, 1), ALL_OUTPUTS)
    originals = [layers._resolve(abrlab, path).__dict__[attr]
                 for path, attr, _ in layers.TARGETS]

    def digests(cli, op, out):
        result = wl.call_cli(cli, op, out)
        outputs.append(wl.digests(out, result[1]))
        return result

    outputs = []
    wl.execute(abrlab.cli, op, tmp_path, {}, runner=digests)
    with layers.Tracer(abrlab) as tracer:
        wl.execute(abrlab.cli, op, tmp_path, {}, runner=digests)
    spans = tracer.take_round()

    assert outputs[0] == outputs[1] and len(outputs[0]["files"]) == 9
    assert tracer.missing == []
    assert spans["config.parse_calls"] == 1
    assert spans["kernels.episode_loop_calls"] == 2
    assert spans["kernels.steps"] == 2 * wl.STEPS
    assert spans["estimation.weights_calls"] == 4
    assert spans["plant.log_csv_s"] > 0 and spans["cli.plotdata_s"] > 0
    restored = [layers._resolve(abrlab, path).__dict__[attr]
                for path, attr, _ in layers.TARGETS]
    assert all(a is b for a, b in zip(restored, originals))
