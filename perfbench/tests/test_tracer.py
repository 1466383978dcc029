"""Tests of the benchmark's tracer: self time, call-site patching, and the
exact call counts each workload's traced run must show.

    python3 -m pytest -q perfbench/tests

The workload tests run each subcommand once, traced, on seed 0 (about
half a minute in all).
"""

import json
from pathlib import Path

import pytest

import tracer
import worker

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture
def clock(monkeypatch):
    """A perf_counter that moves only when the test advances it."""
    now = [0.0]
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: now[0])
    return now


def test_self_time_of_synthetic_nesting(clock):
    tr = tracer.Tracer()

    def leaf():
        clock[0] += 2.0

    def middle():
        clock[0] += 0.5
        wrapped_leaf()
        clock[0] += 0.25

    def outer():
        clock[0] += 1.0
        wrapped_middle()
        clock[0] += 3.0
        wrapped_leaf()

    wrapped_leaf = tr.wrap("leaf", leaf)
    wrapped_middle = tr.wrap("middle", middle)
    tr.wrap("outer", outer)()

    names = [s.name for s in tr.spans]
    assert names == ["outer", "middle", "leaf", "leaf"]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert tracer.self_times(tr.spans) == [4.0, 0.75, 2.0, 2.0]


def test_self_time_clips_children_to_the_parent_interval():
    spans = [
        tracer.Span("a", 0.0, None, 10.0),
        tracer.Span("b", 1.0, 0, 4.0),
        tracer.Span("c", 3.0, 0, 6.0),   # overlaps b: the union counts once
        tracer.Span("d", 9.0, 0, 12.0),  # runs past its parent's end
    ]
    assert tracer.self_times(spans) == [10.0 - 5.0 - 1.0, 3.0, 3.0, 3.0]


def test_counts_are_taken_from_arguments_and_result(clock):
    tr = tracer.Tracer()

    def scale(values, factor=2):
        clock[0] += 1.0
        return [v * factor for v in values]

    traced = tr.wrap("scale", scale, lambda a, r: {"n": len(a["values"]), "f": a["factor"]})
    assert traced([1, 2, 3]) == [2, 4, 6]
    assert tr.spans[0].counts == {"n": 3, "f": 2}
    assert tr.spans[0].end - tr.spans[0].start == 1.0


def test_installed_call_sites_are_restored():
    from weakbeam import sparse

    original = sparse.mstls
    tr = tracer.Tracer()
    with tr.installed([("weakbeam.sparse", "mstls", "sparse.mstls", None)]):
        assert sparse.mstls is not original
    assert sparse.mstls is original


def test_per_layer_names_match_benchmark_json():
    declared = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    produced = set(tracer.layer_metrics([], 1, [])) | {
        "trace_overhead_frac", "single_thread.wall_s"}
    assert produced == declared


def traced_once(name, work):
    workload = worker.WORKLOADS[name](work, 0)
    workload.setup()
    tr = tracer.Tracer()
    with tr.installed(tracer.CALL_SITES):
        loop = worker.timed_loop(workload, tr.wrap("cli.main", worker.cli.main), 0, 1, 0)
    assert loop["failures"] == []
    return tr.spans, tracer.layer_metrics(tr.spans, 1, loop["stage_timings"])


def test_identify_counts(tmp_path):
    _, m = traced_once("identify", tmp_path)
    assert m["discovery.discover.calls"] == 55
    assert m["weakform.spectral_corner.calls"] == 110
    assert m["sparse.mstls.calls"] == 5500
    assert m["ensemble.runs"] == 55 and m["ensemble.failed"] == 0
    assert m["beamfem.newmark_march.calls"] == 0
    assert m["grid.load_field.mb"] > 19
    assert m["weakform.assemble.useful_frac"] == pytest.approx(44 / 4573)


def test_replay_counts(tmp_path):
    _, m = traced_once("replay", tmp_path)
    assert m["discovery.discover.calls"] == 7
    assert m["beamfem.newmark_march.calls"] == 22
    assert m["beamfem.extract_boundaries.calls"] == 22
    assert m["beamfem.factor.calls"] == 44
    assert m["pipeline.simulate.s"] > 0


def test_synth_counts(tmp_path):
    spans, m = traced_once("synth", tmp_path)
    marches = [s for s in spans if s.name == "beamfem.newmark_march"]
    assert [s.counts["steps"] for s in marches] == [5000]
    assert m["beamfem.assemble_matrices.dof"] == 1942
    assert m["discovery.discover.calls"] == 0
    assert m["grid.save_field.mb"] > 19
