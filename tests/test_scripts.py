"""The example scripts run end to end, on small inputs, and write their
outputs; both read report keys that the CLI's commands print too.  They
run with NumPy's RuntimeWarnings as errors, so a NaN statistic fails."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=os.environ | {"PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_pipeline_example_writes_the_report_and_its_curves(tmp_path):
    stdout = run_script("pipeline_example.py", "--max-ds", "1", "--out", str(tmp_path))
    for name in ("synthetic.field", "config.json", "loss_curve.csv", "ensemble.csv",
                 "sweep.csv"):
        assert (tmp_path / name).stat().st_size > 0, name
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["stages"][-1] == "simulate"
    material, sweep = report["material"], report["sweep"]
    assert f"({material['percent_error']:.3f}% off nominal)" in stdout
    assert f"sweep best modulus: {sweep['best_modulus']:.4e} Pa" in stdout


def test_ensemble_study_writes_its_runs_and_summary(tmp_path):
    stdout = run_script("ensemble_study.py", "--seeds", "1", "--max-ds", "2",
                        "--dt", "8e-7", "--t-end", "1e-3", "--out", str(tmp_path))
    assert stdout.startswith("seed 0: 3/3 ok")
    rows = (tmp_path / "runs.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "seed,d,offset,status,alpha,youngs_modulus" and len(rows) == 4
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["seeds"]["0"]["n_success"] == 3
    assert summary["seeds"]["0"]["modulus_smape_vs_nominal"] == pytest.approx(0.0, abs=1.0)


def test_ensemble_study_prints_one_run_without_a_nan(tmp_path):
    # one run per seed has no spread: the progress line prints the summary's 0
    stdout = run_script("ensemble_study.py", "--seeds", "1", "--max-ds", "1",
                        "--dt", "8e-7", "--t-end", "1e-3", "--out", str(tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))["seeds"]["0"]
    assert summary["modulus_std"] == 0.0
    assert f"E = {summary['modulus_mean']:.4e} +/- 0.00e+00" in stdout
    assert "nan" not in stdout
