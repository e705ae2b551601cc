"""Self-test of the benchmark at reduced sample counts: every workload runs
with and without tracing, every metric named in BENCHMARK.json is emitted
with its unit, the correctness gate rejects a tampered reference, and the
harness refuses to run without the program's sources.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import workloads  # noqa: E402
from worker import invoke  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5",
                     "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.fixture(scope="module")
def cli():
    import contactstat.cli
    return contactstat.cli


def _outcome(cli, workload, rnd):
    inv = workloads.round_plan(workload, 5, rnd, {}, smoke=True)[0]
    return inv, invoke(cli, inv["argv"])


def test_gate_accepts_the_program(cli):
    reference = gate.load_reference()
    for rnd in (0, 1):
        inv, (code, out, error) = _outcome(cli, "cr-sasaki", rnd)
        assert code == 1
        assert gate.compare(reference, inv["ref"], code, out, error,
                            full=inv["seed"] == workloads.DEFAULT_SEED) is None


def test_gate_rejects_a_flipped_status(cli):
    inv, (code, out, error) = _outcome(cli, "cr-sasaki", 0)
    tampered = copy.deepcopy(gate.load_reference())
    sig_id = tampered["entries"][inv["ref"]]["signature"]
    row = next(r for r in tampered["signatures"][sig_id] if r[3] == "FAIL")
    row[3] = "PASS"
    reason = gate.compare(tampered, inv["ref"], code, out, error, full=False)
    assert reason is not None and "PASS" in reason


def test_gate_rejects_moved_residuals_witnesses_and_exit_codes(cli):
    inv, (code, out, error) = _outcome(cli, "cr-sasaki", 0)
    reference = gate.load_reference()
    entry = reference["entries"][inv["ref"]]
    detail = entry["default_seed"]
    k = next(i for i, (res, _) in enumerate(detail) if res > 0)

    moved = copy.deepcopy(reference)
    moved["entries"][inv["ref"]]["default_seed"][k][0] += 1e-9
    assert "residual" in gate.compare(moved, inv["ref"], code, out, error, True)
    # residuals are only compared at the default seed
    assert gate.compare(moved, inv["ref"], code, out, error, False) is None

    moved = copy.deepcopy(reference)
    moved["entries"][inv["ref"]]["default_seed"][k][1] = {"sample": -1}
    assert "witness" in gate.compare(moved, inv["ref"], code, out, error, True)

    assert "exit code" in gate.compare(reference, inv["ref"], 0, out, error, True)
    assert "raised" in gate.compare(reference, inv["ref"], None, "", "X: y", True)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", ".work-*",
                                                  "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "cr-sasaki", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
