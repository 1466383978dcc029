"""Child process of the benchmark: one set-up or one timed phase.

    python3 perfbench/worker.py setup --workload W --seed N --work DIR
    python3 perfbench/worker.py timed --workload W --seed N --work DIR \
        --seconds S --min-runs K --trace 0|1

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and reads the one JSON
line it prints.  Each workload is the in-process equivalent of a
``weakbeam`` subcommand: ``weakbeam.cli.main`` is called with the argv a
user would type, its stdout is captured, and every run's answer is
checked.  The timed phase runs in its own process so that its peak RSS
excludes set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np
import scipy
from scipy.linalg import cho_solve_banded

import weakbeam
from weakbeam import cli

import tracer

REFERENCE = Path(__file__).resolve().parent / "reference_synth.json"

# The reference aluminium rod: 97 mm span at 0.5 mm pitch, a 5-cycle
# 10 kHz burst at the base.
DIAMETER = 6.35e-3
DENSITY = 2721.9
MODULUS = 6.9e10
ROD = ["--section", f"circle:d={DIAMETER}", "--density", str(DENSITY),
       "--modulus", str(MODULUS), "--n-points", "195", "--dx", "5e-4", "--fc", "1e4"]
NOISY_SHAPE = (195, 5001)
SIGMA_REL = 0.02
SYNTH_TOLERANCE = 1e-6  # of the clean peak, on the stored reference samples
SWEEP_POINTS = 21
WARMUP = 1  # untimed runs before the timed ones; the traced runs follow them


def noisy_field_argv(seed: int, out: Path) -> list[str]:
    """``weakbeam synth`` for the noisy 195x5001 field (margin 4, 1,942 dof)."""
    return ["synth", *ROD, "--dt", "4e-7", "--t-end", "2e-3",
            "--sigma-rel", str(SIGMA_REL), "--seed", str(seed),
            "--margin-frac", "4", "--out", str(out)]


def clean_field_argv(out: Path) -> list[str]:
    """``weakbeam synth`` for the noise-free 195x2501 replay field."""
    return ["synth", *ROD, "--dt", "8e-7", "--t-end", "2e-3",
            "--margin-frac", "0.5", "--out", str(out)]


def modulus_from_alpha(alpha: float) -> float:
    """E = alpha rho A / I for the solid circle, written out independently."""
    return alpha * DENSITY * 16.0 / DIAMETER**2


def percent_error(modulus: float) -> float:
    return 100.0 * abs(modulus - MODULUS) / MODULUS


def call_cli(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# ------------------------------------------------------------------ workloads

def synth_field(argv: list[str]) -> None:
    code, _ = call_cli(cli.main, argv)
    if code != 0:
        raise RuntimeError(f"synth exited with {code}")


class Identify:
    """``weakbeam ensemble --in <noisy field> --max-ds 10``: 55 discoveries."""

    def __init__(self, work: Path, seed: int):
        self.field = work / "identify.field"
        self.seed = seed
        self.argv = ["ensemble", "--in", str(self.field), "--max-ds", "10"]

    def setup(self) -> dict:
        synth_field(noisy_field_argv(self.seed, self.field))
        return {"field": list(NOISY_SHAPE), "field_mb": self.field.stat().st_size / 1e6,
                "sigma_rel": SIGMA_REL, "max_ds": 10}

    def check(self, out: dict) -> tuple[list[str], dict]:
        errors = []
        if out["n_runs"] != 55 or out["n_success"] != 55:
            errors.append(f"{out['n_success']}/{out['n_runs']} runs succeeded, want 55/55")
        if out["modal_support"] != ["w_xxxx"]:
            errors.append(f"modal support {out['modal_support']}")
        if out["support_agreement"] != 1.0:
            errors.append(f"support agreement {out['support_agreement']}")
        err = math.nan
        if "w_xxxx" in out["stats"]:
            err = percent_error(modulus_from_alpha(-out["stats"]["w_xxxx"]["median"]))
        if not err < 0.5:
            errors.append(f"modulus error {err}% from the ensemble median")
        return errors, {"modulus_err_pct": err}


class Replay:
    """``weakbeam pipeline`` with a 3-deep ensemble and a 21-point sweep."""

    def __init__(self, work: Path, seed: int):
        # The replay field is noise-free, so the seed changes nothing here.
        self.field = work / "replay.field"
        self.config = work / "replay.json"
        self.argv = ["pipeline", "--config", str(self.config), "--out-dir", str(work / "replay")]
        self.previous = None

    def setup(self) -> dict:
        synth_field(clean_field_argv(self.field))
        config = {
            "field_path": str(self.field),
            "max_ds": 3,
            "section": {"kind": "circle", "diameter": DIAMETER},
            "density": DENSITY,
            "nominal_modulus": MODULUS,
            "sweep": [0.95 * MODULUS, 1.05 * MODULUS, SWEEP_POINTS],
        }
        self.config.write_text(json.dumps(config), encoding="utf-8")
        return {"field": [195, 2501], "field_mb": self.field.stat().st_size / 1e6,
                "max_ds": 3, "sweep_points": SWEEP_POINTS}

    def check(self, report: dict) -> tuple[list[str], dict]:
        errors = []
        if report["discovery"]["support"] != ["w_xxxx"]:
            errors.append(f"support {report['discovery']['support']}")
        err = percent_error(report["material"]["youngs_modulus"])
        if not err < 0.5:
            errors.append(f"modulus error {err}%")
        frob = report["simulation"]["frobenius_rel"]
        if not frob < 1e-2:
            errors.append(f"frobenius_rel {frob}")
        sweep = report["sweep"]
        nominal = sweep["moduli"][SWEEP_POINTS // 2]
        if abs(nominal - MODULUS) > 1e-9 * MODULUS or sweep["best_modulus"] != nominal:
            errors.append(f"sweep optimum {sweep['best_modulus']}, want {nominal}")
        answer = {k: v for k, v in report.items() if k != "timing"}
        if self.previous is not None and answer != self.previous:
            errors.append("report differs from the previous run's")
        self.previous = answer
        return errors, {"modulus_err_pct": err, "frobenius_rel": frob}


class Synth:
    """``weakbeam synth`` of the identify field: one long march, heavy write."""

    def __init__(self, work: Path, seed: int):
        self.field = work / "synth.field"
        self.seed = seed
        self.argv = noisy_field_argv(seed, self.field)

    def setup(self) -> dict:
        return {"field": list(NOISY_SHAPE), "sigma_rel": SIGMA_REL, "dof": 1942}

    def check(self, out: dict) -> tuple[list[str], dict]:
        """Compare the written field, noise removed, with the stored reference.

        The noise is regenerated from the seed exactly as ``synth`` draws
        it; a byte digest would not do, since the march's last digits
        depend on the BLAS thread count.
        """
        if out["n_x"] != NOISY_SHAPE[0] or out["n_t"] != NOISY_SHAPE[1]:
            return [f"reported shape {out['n_x']}x{out['n_t']}"], {}
        with open(self.field, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()[3:]
        values = np.array([np.array(line.split(), dtype=float) for line in lines])
        if values.shape != NOISY_SHAPE:
            return [f"written shape {values.shape}"], {}
        if not np.all(np.isfinite(values)):
            return ["non-finite values"], {}
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
        noise = np.random.default_rng(self.seed).normal(
            0.0, SIGMA_REL * ref["peak"], size=NOISY_SHAPE
        )
        clean = (values - noise)[:: ref["x_step"], :: ref["t_step"]]
        dev = float(np.max(np.abs(clean - np.array(ref["samples"]))) / ref["peak"])
        if not dev <= SYNTH_TOLERANCE:
            return [f"deviation {dev} of peak from the reference"], {"reference_dev": dev}
        return [], {"reference_dev": dev}


WORKLOADS = {"identify": Identify, "replay": Replay, "synth": Synth}


# The reference kernel: three FFT convolutions along the rows of a 195x5001
# field, then 3,000 steps of a 300-dof dense product and banded solve.
REF_PASSES, REF_N_FFT = 3, 5201
REF_DOF, REF_STEPS = 300, 3000


def reference_seconds() -> float:
    """Time a fixed piece of NumPy/SciPy work, about 0.55 s.

    The host's speed drifts by up to 1.5x over minutes, and a run's time
    drifts with it.  ``wall_rel`` divides the median run time by the
    median time of this kernel, timed between the runs, which removes
    much of that drift.  The kernel calls no weakbeam code, so a change to
    weakbeam moves the run's time and not the reference.  It has the two
    kinds of cost the workloads have: FFT convolution of a field as large
    as ``identify``'s, as in weak-form assembly, and a loop of many small
    NumPy and SciPy calls, as in ``newmark_march`` and the MSTLS sweep.
    (A march on a 2,000-dof dense matrix, bound by memory bandwidth and
    two BLAS threads, tracked ``identify`` worse.)  Its arrays are built
    outside the clock and freed on return, and the timed part writes into
    them, so its time does not depend on the state the workload left the
    allocator in, and the peak RSS stays the workload's.
    """
    rng = np.random.default_rng(0)
    field = rng.normal(size=NOISY_SHAPE)
    kernel = np.fft.rfft(rng.normal(size=201), n=REF_N_FFT)
    spectrum = np.empty((NOISY_SHAPE[0], REF_N_FFT // 2 + 1), dtype=complex)
    smoothed = np.empty((NOISY_SHAPE[0], REF_N_FFT))
    dense = rng.normal(size=(REF_DOF, REF_DOF))
    factor = np.zeros((3, REF_DOF))
    factor[0], factor[1], factor[2] = 0.1, 0.1, 1.0  # diagonally dominant
    x = rng.normal(size=REF_DOF)
    t0 = time.perf_counter()
    for _ in range(REF_PASSES):
        np.fft.rfft(field, n=REF_N_FFT, axis=1, out=spectrum)
        np.multiply(spectrum, kernel, out=spectrum)
        np.fft.irfft(spectrum, n=REF_N_FFT, axis=1, out=smoothed)
    for _ in range(REF_STEPS):
        x = cho_solve_banded((factor, False), dense @ x)
        x /= np.linalg.norm(x)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------- phases

def timed_loop(workload, main, seconds: float, min_runs: int, warmup: int) -> dict:
    """Run the subcommand ``warmup`` times, then until ``seconds`` have
    passed in all and ``min_runs`` timed runs are done.

    Only the subcommand is timed; its answer is checked after the clock
    stops, on warm-up runs too.  A run fails when it raises, exits
    non-zero or fails a check.  The reference kernel is timed before the
    first run and after each run; ``rel`` is the median time of the timed
    runs over the median of the reference times taken from the end of the
    warm-up on.
    """
    samples, failures, answers, stage_timings = [], [], [], []
    reference_seconds()  # untimed: warms the FFT caches and the BLAS threads
    start = time.perf_counter()
    refs = [reference_seconds()]
    while len(samples) < warmup + min_runs or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            code, text = call_cli(main, workload.argv)
        except Exception as exc:  # a crash is a failed run, not a benchmark error
            code, text = f"{type(exc).__name__}: {exc}", ""
        samples.append(time.perf_counter() - t0)
        refs.append(reference_seconds())
        if code != 0:
            failures.append(f"run {len(samples)}: exit {code}")
            continue
        try:
            out = json.loads(text)
            errors, answer = workload.check(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            errors = [f"unreadable output: {exc!r}"]
        failures += [f"run {len(samples)}: {e}" for e in errors]
        if errors:
            continue
        answers.append(answer)
        if len(samples) > warmup:
            stage_timings.append(out.get("timing", {}))
    return {"samples": samples[warmup:], "warmup": samples[:warmup],
            "reference_s": refs[warmup:],
            "rel": median(samples[warmup:]) / median(refs[warmup:]),
            "attempted": len(samples),
            "failed": len(samples) - len(answers), "failures": failures,
            "answers": answers, "stage_timings": stage_timings}


def blas_facts() -> list[dict]:
    """Name, version and live thread count of the BLAS NumPy and SciPy load."""
    facts = []
    for pkg in (np, scipy):
        blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        threads = None
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in glob.glob(str(libdir / "*openblas*")):
            dll = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(dll, symbol):
                    fn = getattr(dll, symbol)
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    threads = fn()
                    break
        facts.append({"package": pkg.__name__, "name": blas.get("name"),
                      "version": blas.get("version"), "threads": threads,
                      "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")})
    return facts


def run_timed(workload, args) -> dict:
    untraced = timed_loop(workload, cli.main, args.seconds, args.min_runs, WARMUP)
    result = {"untraced": untraced}
    if args.trace:
        tr = tracer.Tracer()
        with tr.installed(tracer.CALL_SITES):
            traced = timed_loop(workload, tr.wrap("cli.main", cli.main),
                                args.seconds, args.min_runs, 0)
        n_runs = len(traced["samples"])
        metrics = tracer.layer_metrics(tr.spans, n_runs, traced.pop("stage_timings"))
        metrics["trace_overhead_frac"] = traced["rel"] / untraced["rel"] - 1.0
        if args.spans:
            tr.dump(args.spans)
        result["traced"] = traced
        result["layers"] = metrics
    untraced.pop("stage_timings")
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["blas"] = blas_facts()
    result["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("phase", choices=("setup", "timed"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-runs", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None, help="write traced spans here")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload](args.work, args.seed)
    if args.phase == "setup":
        result = {"inputs": workload.setup()}
    else:
        result = run_timed(workload, args)
    result["weakbeam"] = weakbeam.__file__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
