import importlib
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


def test_import_loads_no_unused_scipy():
    # a fresh interpreter, since this suite imports scipy.signal itself; run
    # beside the package under test so it is the one imported
    script = """
import json, sys
import weakbeam, weakbeam.cli
print(json.dumps(sorted({"scipy.signal", "scipy.optimize", "scipy.stats", "scipy.fft"} & set(sys.modules))))
from weakbeam.material import frequency_roots
print(json.dumps(frequency_roots("clamped-free", 3).tolist()))
"""
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, cwd=Path(weakbeam.__file__).parent.parent,
    )
    assert run.returncode == 0, run.stderr
    loaded, roots = map(json.loads, run.stdout.splitlines())
    assert loaded == []
    assert np.allclose(roots, [BETA_L["clamped-free"](n) for n in (1, 2, 3)], rtol=1e-12, atol=0)
