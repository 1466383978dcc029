"""Outside-in span recorder for the benchmark.

Spans are recorded by wrapping weakbeam's public functions at their call
sites: the name a calling module looks up (``weakbeam.ensemble.discover``,
``weakbeam.sparse.mstls``, ...) is replaced for the duration of a traced
run and restored afterwards.  Nothing inside ``src/weakbeam`` changes.

Each span holds its name, start, end, the index of the span that was open
when it began, and counts taken from the call's arguments and result.
Spans stay in memory until :func:`layer_metrics` reduces them and
:meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from statistics import median


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = float("nan")
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span stack for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` recording one span per call.

        ``count(bound_arguments, result)`` returns the span's counts; it
        runs after the span has ended, so its cost is not charged to the
        span itself.
        """
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = count(bound.arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self, call_sites):
        """Patch every ``(module, attribute, span name, count)`` call site."""
        saved = []
        try:
            for module_name, attr, name, count in call_sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


# --------------------------------------------------------------------- counts

def _file_mb(arg):
    return lambda a, result: {"mb": os.path.getsize(a[arg]) / 1e6}


def _ensemble_counts(a, result):
    return {"runs": len(result.runs), "failed": len(result.runs) - result.n_success}


def _assemble_counts(a, result):
    # The assembly convolves every column (library terms plus the lhs)
    # over the whole valid grid, then keeps the rows at the query points.
    grid, basis = a["grid"], a["basis"]
    valid = (grid.n_x - 2 * basis.m_x) * (grid.n_t - 2 * basis.m_t)
    return {"queries": result.n_queries, "outputs_per_column": valid}


def _mstls_counts(a, result):
    mask = 0
    for j, c in enumerate(result):
        if c != 0.0:
            mask |= 1 << j
    return {"active_set": mask}


def _march_counts(a, result):
    steps, dof = a["forces"].shape[0] - 1, a["forces"].shape[1]
    return {"steps": steps, "dof_steps": steps * dof}


def _mesh_counts(a, result):
    return {"dof": a["mesh"].n_dof}


# Every call site the benchmark's workloads pass through, as
# (calling module, name looked up there, span name, counts).
CALL_SITES = [
    ("weakbeam.cli", "load_field", "grid.load_field", _file_mb("path")),
    ("weakbeam.pipeline", "load_field", "grid.load_field", _file_mb("path")),
    ("weakbeam.cli", "save_field", "grid.save_field", _file_mb("path")),
    ("weakbeam.cli", "generate_beam_data", "synth.generate_beam_data", None),
    ("weakbeam.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("weakbeam.cli", "run_ensemble", "ensemble.run_ensemble", _ensemble_counts),
    ("weakbeam.pipeline", "run_ensemble", "ensemble.run_ensemble", _ensemble_counts),
    ("weakbeam.ensemble", "discover", "discovery.discover", None),
    ("weakbeam.pipeline", "discover", "discovery.discover", None),
    ("weakbeam.discovery", "spectral_corner", "weakform.spectral_corner", None),
    ("weakbeam.discovery", "select_support", "weakform.select_support", None),
    ("weakbeam.discovery", "assemble", "weakform.assemble", _assemble_counts),
    ("weakbeam.discovery", "optimize_lambda", "sparse.optimize_lambda", None),
    ("weakbeam.sparse", "mstls", "sparse.mstls", _mstls_counts),
    ("weakbeam.sparse", "least_squares", "sparse.least_squares", None),
    ("weakbeam.beamfem", "extract_boundaries", "beamfem.extract_boundaries", None),
    ("weakbeam.beamfem", "newmark_solve", "beamfem.newmark_solve", None),
    ("weakbeam.synth", "newmark_solve", "beamfem.newmark_solve", None),
    ("weakbeam.beamfem", "assemble_matrices", "beamfem.assemble_matrices", _mesh_counts),
    ("weakbeam.beamfem", "newmark_march", "beamfem.newmark_march", _march_counts),
    ("weakbeam.beamfem", "cholesky_banded", "beamfem.factor", None),
    ("weakbeam.beamfem", "compare", "beamfem.compare", None),
]

# Layers reported as ``<name>.s`` (self seconds per run) and, where the
# call count says something, ``<name>.calls`` (calls per run).
TIMED = [
    "cli.main",
    "grid.load_field",
    "grid.save_field",
    "synth.generate_beam_data",
    "pipeline.run_pipeline",
    "ensemble.run_ensemble",
    "discovery.discover",
    "weakform.spectral_corner",
    "weakform.select_support",
    "weakform.assemble",
    "sparse.optimize_lambda",
    "sparse.mstls",
    "sparse.least_squares",
    "beamfem.extract_boundaries",
    "beamfem.newmark_solve",
    "beamfem.assemble_matrices",
    "beamfem.newmark_march",
    "beamfem.factor",
    "beamfem.compare",
]
COUNTED = [
    "discovery.discover",
    "weakform.spectral_corner",
    "weakform.assemble",
    "sparse.mstls",
    "sparse.least_squares",
    "beamfem.extract_boundaries",
    "beamfem.assemble_matrices",
    "beamfem.newmark_march",
    "beamfem.factor",
]
PIPELINE_STAGES = ["ingest", "preprocess", "discover", "ensemble", "simulate"]


def layer_metrics(spans: list[Span], n_runs: int, stage_timings: list[dict]) -> dict:
    """Per-run layer metrics from the spans of ``n_runs`` traced runs.

    ``stage_timings`` holds the ``timing`` block of each traced pipeline
    report (empty for workloads that do not run the pipeline).
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def total(name, key):
        return sum(spans[i].counts.get(key, 0) for i in by_name.get(name, ()))

    out = {}
    for name in TIMED:
        out[f"{name}.s"] = sum(selfs[i] for i in by_name.get(name, ())) / n_runs
    for name in COUNTED:
        out[f"{name}.calls"] = len(by_name.get(name, ())) / n_runs

    out["weakform.assemble.queries"] = total("weakform.assemble", "queries") / n_runs
    # useful share of the full-resolution calls, those on the largest grid
    assembles = [spans[i].counts for i in by_name.get("weakform.assemble", ())]
    largest = max((c["outputs_per_column"] for c in assembles), default=0)
    full = [c for c in assembles if c["outputs_per_column"] == largest]
    out["weakform.assemble.useful_frac"] = (
        sum(c["queries"] for c in full) / (largest * len(full)) if full else 0.0
    )

    # distinct active sets within each threshold sweep, summed over sweeps
    distinct = {
        (spans[i].parent, spans[i].counts["active_set"])
        for i in by_name.get("sparse.mstls", ())
    }
    n_mstls = len(by_name.get("sparse.mstls", ()))
    out["sparse.mstls.distinct_frac"] = len(distinct) / n_mstls if n_mstls else 0.0

    out["ensemble.runs"] = total("ensemble.run_ensemble", "runs") / n_runs
    out["ensemble.failed"] = total("ensemble.run_ensemble", "failed") / n_runs
    out["beamfem.newmark_march.dof_steps"] = total("beamfem.newmark_march", "dof_steps") / n_runs
    out["beamfem.assemble_matrices.dof"] = max(
        (spans[i].counts["dof"] for i in by_name.get("beamfem.assemble_matrices", ())),
        default=0,
    )
    out["grid.save_field.mb"] = total("grid.save_field", "mb") / n_runs
    out["grid.load_field.mb"] = total("grid.load_field", "mb") / n_runs
    for stage in PIPELINE_STAGES:
        values = [t.get(stage, 0.0) for t in stage_timings]
        out[f"pipeline.{stage}.s"] = median(values) if values else 0.0
    return out
