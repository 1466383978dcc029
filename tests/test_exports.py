import importlib
from pathlib import Path

import pytest

import weakbeam

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
