"""Regenerate ``reference_synth.json``, the stored answer of the synth workload.

    PYTHONPATH=src python3 perfbench/make_reference.py

It builds the noise-free field of the identify and synth workloads with
``weakbeam synth`` and keeps every ``X_STEP``-th row and ``T_STEP``-th
column plus the peak.  Rerun it only when the physics of the generator is
meant to change.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import worker
from weakbeam.grid import load_field

X_STEP, T_STEP = 8, 50
OUT = Path(__file__).resolve().parent / "reference_synth.json"


def main() -> int:
    with tempfile.TemporaryDirectory(dir=OUT.parent.parent) as tmp:
        path = Path(tmp) / "clean.field"
        argv = worker.noisy_field_argv(0, path)
        argv[argv.index("--sigma-rel") + 1] = "0"
        worker.synth_field(argv)
        values = load_field(path).values
    ref = {
        "x_step": X_STEP,
        "t_step": T_STEP,
        "peak": float(np.max(np.abs(values))),
        "samples": values[::X_STEP, ::T_STEP].tolist(),
    }
    OUT.write_text(json.dumps(ref) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
