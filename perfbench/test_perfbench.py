"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

Each independent check must accept the program's real output and reject
a deliberately corrupted copy; a short run must finish and print the
metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from hermwave import cli, filterbank  # noqa: E402
from hermwave.annihilator import SpaceSpec  # noqa: E402
from hermwave.signal import HermiteSignal  # noqa: E402


def _analyze(kind: str, lam: float, level: int = 10, depth: int = 4, seed: int = 0):
    data = inputs.v_samples(np.random.default_rng(seed), kind, level, lam)
    coarse, details = filterbank.analyze(SpaceSpec(0, lam), HermiteSignal(level, data), depth)
    return data, coarse.data.copy(), [d.data.copy() for d in details]


def _cli(argv) -> int:
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_rational_taps_match_the_stated_constant():
    a1, am1 = oracle.stationary_taps_float()
    flip = np.diag([1.0, -1.0, 1.0])
    assert np.array_equal(a1, flip @ am1 @ flip)  # mirror symmetry of the stationary scheme


def test_csv_writer_round_trips_every_double(tmp_path):
    data = inputs.v_samples(np.random.default_rng(3), "mixed", 8, 2.0)
    path = tmp_path / "sig.csv"
    inputs.write_csv(path, 8, data)
    level, back = inputs.read_csv("config: {}\n" + path.read_text())
    assert level == 8 and np.array_equal(back, data)


def test_inputs_repeat_per_seed():
    one = inputs.v_samples(np.random.default_rng(5), "mixed", 6, 2.0)
    two = inputs.v_samples(np.random.default_rng(5), "mixed", 6, 2.0)
    other = inputs.v_samples(np.random.default_rng(6), "mixed", 6, 2.0)
    assert np.array_equal(one, two) and not np.array_equal(one, other)


def test_coarse_check_rejects_one_flipped_entry():
    data, coarse, _ = _analyze("mixed", 2.0)
    oracle.check_coarse(coarse, data, 4)
    coarse[7, 1] = -coarse[7, 1]
    with pytest.raises(oracle.CheckError):
        oracle.check_coarse(coarse, data, 4)


def test_space_detail_check_rejects_one_flipped_entry():
    data, _, details = _analyze("space", 2.0)
    oracle.check_space_details(details, data)
    details[1][3, 2] = 1e-6
    with pytest.raises(oracle.CheckError):
        oracle.check_space_details(details, data)


def test_stationary_predictor_rejects_one_flipped_detail():
    data, _, details = _analyze("mixed", 0.0)
    oracle.check_stationary_details(details, data)
    details[2][5, 0] = -details[2][5, 0]
    with pytest.raises(oracle.CheckError):
        oracle.check_stationary_details(details, data)


def test_roundtrip_check_rejects_a_perturbed_sample():
    data, _, _ = _analyze("mixed", 2.0)
    rec = data.copy()
    oracle.check_roundtrip(rec, data)
    rec[11, 0] += 1e-8
    with pytest.raises(oracle.CheckError):
        oracle.check_roundtrip(rec, data)


@pytest.mark.parametrize("name, tap, delta", [("A", 1, 1e-3), ("mask", -1, 1e-9), ("B_tilde", 0, 1e-12)])
def test_bank_check_rejects_a_perturbed_tap(tmp_path, name, tap, delta):
    path = tmp_path / "bank.json"
    assert _cli(["filters", "--lambda", "2", "--level", "1", "--output", str(path)]) == 0
    bank = json.loads(path.read_text())
    oracle.check_bank(bank)
    entry = next(t for t in bank[name]["taps"] if t["k"] == tap)
    entry["matrix"][0] += delta
    with pytest.raises(oracle.CheckError):
        oracle.check_bank(bank)


def test_render_check_rejects_perturbed_values(tmp_path):
    path = tmp_path / "phi.csv"
    assert _cli(["render", "--lambda", "2", "--depth", "6", "--output", str(path)]) == 0
    table = np.loadtxt(path, delimiter=",", skiprows=1, comments="#")
    oracle.check_render(table, 6, 2.0)
    for row, col, delta in ((64, 1, 1e-12), (100, 2, 1e-6), (0, 3, 1e-12)):
        bad = table.copy()
        bad[row, col] += delta
        with pytest.raises(oracle.CheckError):
            oracle.check_render(bad, 6, 2.0)


def test_compress_check_rejects_a_wrong_count(tmp_path):
    group = workloads.CliPipeline(workloads.Context(tmp_path, cli.main))
    group.inputs["mixed"] = np.zeros((2**16, 3))
    group.kept["mixed"] = 100
    report = {"kept_details": 100, "total_details": 2**16 - 2**8}
    group._check_compress("mixed", "config: {}\n" + json.dumps(report))
    report["kept_details"] = 101
    with pytest.raises(oracle.CheckError):
        group._check_compress("mixed", "config: {}\n" + json.dumps(report))


def test_perturbed_verify_must_report_failure(tmp_path):
    path = tmp_path / "verify.json"
    ok = workloads.CliResult(1, "", "")
    path.write_text(json.dumps({"failures": ["perturbed_biorthogonality"]}))
    assert workloads.Certify._check_perturbed(ok, str(path))
    path.write_text(json.dumps({"failures": []}))
    with pytest.raises(oracle.CheckError):
        workloads.Certify._check_perturbed(workloads.CliResult(0, "", ""), str(path))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_short_run_prints_every_metric(trace, key):
    proc = _run(ROOT, "--workload", "kernel-large", "--seed", "7", "--seconds", "0.5",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 68
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_run_without_the_package_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and not proc.stdout.strip()
