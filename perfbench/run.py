"""Benchmark for weakbeam, run from the root of a source checkout.

    python3 perfbench/run.py --workload identify|replay|synth --seed N \
        --seconds S --trace 0|1

Workloads (one client, closed loop, one run at a time):

- ``identify``: ``weakbeam ensemble --max-ds 10`` on a noisy (2%, seeded)
  195x5001 field; 55 discoveries, no FEM.
- ``replay``: ``weakbeam pipeline`` on a noise-free 195x2501 field with a
  3-deep ensemble and a 21-point modulus sweep; 22 Newmark marches.
- ``synth``: ``weakbeam synth`` of the identify field; one march on a
  1,942-dof mesh and a 19.7 MB text write.

With ``--trace 0`` the benchmark sets the inputs up ``SETUPS`` times, then
times the subcommand in a fresh process after one warm-up run, and
reports ``wall_rel`` (median seconds per run over the median seconds of
a fixed NumPy/SciPy reference kernel timed between the runs, see
``worker.reference_seconds``), ``setup_s`` (median set-up seconds) and
``peak_rss_mb`` (peak RSS of the timed process).  The raw seconds per
run, ``wall_s``, are printed with their quartiles but not gated.  With
``--trace 1`` it repeats the timed phase with every layer wrapped at its
call site (see ``tracer.py``), reports the per-layer metrics and the
tracing overhead, and adds one run with BLAS limited to one thread as a
reference.  Every run's answer is checked.  The last line of stdout is
the JSON result; the lines before it give the detail, machine facts
included.  Spans of a traced run are kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("identify", "replay", "synth")
SETUPS = 3        # set-ups per run; setup_s is their median
MIN_RUNS = 3      # timed runs at least, however long they take
DEADLINE_S = 170  # the whole run, children included
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child(phase: str, args, work: Path, deadline: float, *extra: str, env=None) -> tuple[dict, float]:
    """Run one worker process; return its JSON result and wall seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), phase, "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), *extra]
    full_env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1", **(env or {}))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=full_env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} phase did not finish before the deadline") from None
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{phase} phase exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{phase} phase printed no result:\n{proc.stderr[-2000:]}") from None
    if Path(result["weakbeam"]).resolve().parent.parent != SRC:
        raise BenchError(f"imported weakbeam from {result['weakbeam']}, not {SRC}")
    return result, elapsed


def spread(samples: list[float]) -> dict:
    q1, q2, q3 = quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        setup_times = []
        for _ in range(SETUPS if not args.trace else 1):
            setup, elapsed = child("setup", args, work, deadline)
            setup_times.append(elapsed)
        timed_args = ["--seconds", str(args.seconds), "--min-runs", str(MIN_RUNS),
                      "--trace", str(args.trace)]
        if args.trace:
            spans = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            timed_args += ["--spans", str(spans)]
        timed, _ = child("timed", args, work, deadline, *timed_args)
        single = None
        if args.trace:
            single, _ = child("timed", args, work, deadline, "--min-runs", "1",
                              env=SINGLE_THREAD)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    loops = [timed["untraced"]] + ([timed["traced"], single["untraced"]] if args.trace else [])
    attempted = sum(loop["attempted"] for loop in loops)
    failed = sum(loop["failed"] for loop in loops)
    wall = spread(timed["untraced"]["samples"])
    answers = {}
    for loop in loops:
        for answer in loop["answers"]:
            for key, value in answer.items():
                answers.setdefault(key, set()).add(value)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **timed["versions"],
            "blas": timed["blas"],
        },
        "inputs": setup["inputs"],
        "wall_rel": timed["untraced"]["rel"],
        "wall_s": wall,
        "warmup_s": timed["untraced"]["warmup"],
        "samples_s": timed["untraced"]["samples"],
        "reference_s": timed["untraced"]["reference_s"],
        "setup_s": spread(setup_times),
        "peak_rss_mb": timed["peak_rss_mb"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [f for loop in loops for f in loop["failures"]][:10],
        "answers": {k: sorted(v) for k, v in answers.items()},
    }
    if args.trace:
        detail["traced_samples_s"] = timed["traced"]["samples"]
        detail["single_thread"] = {"samples_s": single["untraced"]["samples"],
                                   "blas": single["blas"]}
        detail["spans"] = str(spans.relative_to(ROOT))
        values = {**timed["layers"], "single_thread.wall_s": median(single["untraced"]["samples"])}
    else:
        values = {"wall_rel": detail["wall_rel"], "setup_s": detail["setup_s"]["median"],
                  "peak_rss_mb": timed["peak_rss_mb"]}
    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def summary(detail: dict) -> list[str]:
    rel, wall, setup = detail["wall_rel"], detail["wall_s"], detail["setup_s"]
    lines = [
        f"{detail['workload']} seed {detail['seed']}:",
        f"  wall_rel        {rel:.4f}    (reference kernel median {median(detail['reference_s']):.4f} s)",
        f"  wall_s          {wall['median']:.4f} s  (q1 {wall['q1']:.4f}, q3 {wall['q3']:.4f}, n={wall['n']})",
        f"  setup_s         {setup['median']:.4f} s  (n={setup['n']})",
        f"  peak_rss_mb     {detail['peak_rss_mb']:.1f} MB",
        f"  failed_frac     {detail['failed_frac']:.4f}  ({detail['failed']}/{detail['attempted']})",
    ]
    for key, values in detail["answers"].items():
        lines.append(f"  {key:<15} {' '.join(f'{v:.6g}' for v in values)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "weakbeam" / "__init__.py").is_file():
        print(f"error: no weakbeam sources under {SRC}", file=sys.stderr)
        return 2
    try:
        detail, result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in summary(detail):
        print(line)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
