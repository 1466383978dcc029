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
