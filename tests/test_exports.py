import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weakbeam
from oracles import BETA_L

# the package and every module in it
MODULES = ["weakbeam"] + sorted(
    f"weakbeam.{p.stem}" for p in Path(weakbeam.__file__).parent.glob("*.py")
    if p.stem != "__init__"
)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # a stale __all__ entry raises here
    for export in getattr(importlib.import_module(name), "__all__", ()):
        assert export in namespace


UNUSED_SCIPY = {"scipy.linalg", "scipy.signal", "scipy.optimize", "scipy.stats", "scipy.fft"}


def short_march():
    # self-contained: its source also runs in a fresh interpreter
    import numpy as np
    from weakbeam.beamfem import FemMesh, assemble_matrices, newmark_march
    from weakbeam.material import BeamModel, CrossSection

    beam = BeamModel(section=CrossSection.circle(6.35e-3), density=2721.9,
                     youngs_modulus=6.9e10)
    M, K = assemble_matrices(FemMesh(4, 5e-4), beam)
    d0 = 1e-4 * np.random.default_rng(0).standard_normal(M.shape[1])
    return newmark_march(M, K, np.zeros((21, M.shape[1])), dt=1e-6, d0=d0)


def test_import_loads_no_unused_scipy():
    # a fresh interpreter, since this suite imports scipy.signal itself; run
    # beside the package under test so it is the one imported.  The march
    # runs before frequency_roots, whose scipy.optimize loads scipy.linalg,
    # so it shows that the FEM's lazy SciPy import works on its own
    script = f"""
import json, sys
import weakbeam, weakbeam.cli
print(json.dumps(sorted({UNUSED_SCIPY!r} & set(sys.modules))))
print(json.dumps(short_march().tolist()))
from weakbeam.material import frequency_roots
print(json.dumps(frequency_roots("clamped-free", 3).tolist()))
"""
    run = subprocess.run(
        [sys.executable, "-c", inspect.getsource(short_march) + script],
        capture_output=True, text=True, cwd=Path(weakbeam.__file__).parent.parent,
    )
    assert run.returncode == 0, run.stderr
    loaded, march, roots = map(json.loads, run.stdout.splitlines())
    assert loaded == []
    assert np.array_equal(march, short_march())
    assert np.allclose(roots, [BETA_L["clamped-free"](n) for n in (1, 2, 3)], rtol=1e-12, atol=0)


def import_tracer(monkeypatch):
    # imported the way perfbench's own tests do: by path alone, its
    # @dataclass cannot find the module it was loaded as
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("tracer")


def test_every_name_the_benchmark_tracer_patches_resolves(monkeypatch):
    # perfbench/tracer.py swaps each (module, name) of CALL_SITES for a traced
    # wrapper, so a name renamed or deleted here would crash every traced run
    tracer = import_tracer(monkeypatch)
    sites = [(module, name) for module, name, *_ in tracer.CALL_SITES]
    assert sites
    missing = [site for site in sites if not hasattr(importlib.import_module(site[0]), site[1])]
    assert missing == []


def test_every_counted_span_of_a_traced_run_gets_its_counts(monkeypatch, capsys, tmp_path):
    # the tracer's count functions read parameters by name (path, grid, basis,
    # forces, mesh), so a renamed parameter breaks the benchmark's counts
    # even though every patched name still resolves.  A tiny synth, ensemble
    # and pipeline on the 40x401 rod pass every counted call site
    from weakbeam.cli import main

    tracer = import_tracer(monkeypatch)
    rod = ["--section", "circle:d=6.35e-3", "--density", "2721.9"]
    field, config = tmp_path / "rod.field", tmp_path / "pipeline.json"
    config.write_text(json.dumps({
        "field_path": str(field), "density": 2721.9, "nominal_modulus": 6.9e10,
        "section": {"kind": "circle", "diameter": 6.35e-3}, "sweep": [6.5e10, 7.3e10, 3],
    }), encoding="utf-8")
    runs = [
        ["synth", *rod, "--modulus", "6.9e10", "--n-points", "40", "--dx", "5e-4",
         "--fc", "1e4", "--dt", "1e-6", "--t-end", "4e-4", "--out", str(field)],
        ["ensemble", "--in", str(field), "--max-ds", "2"],
        ["pipeline", "--config", str(config), "--out-dir", str(tmp_path / "pipeline")],
    ]
    with tracer.Tracer().installed(tracer.CALL_SITES) as traced:
        assert [main(argv) for argv in runs] == [0, 0, 0], capsys.readouterr().err
    counted = {name for _, _, name, count in tracer.CALL_SITES if count}
    spans = [span for span in traced.spans if span.name in counted]
    assert {span.name for span in spans} == counted
    assert [span.name for span in spans if not span.counts] == []
    metrics = tracer.layer_metrics(traced.spans, 1, [])
    assert metrics["beamfem.assemble_matrices.dof"] > 0
    assert metrics["sparse.mstls.distinct_frac"] > 0
