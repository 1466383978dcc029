#!/usr/bin/env python3
"""End-to-end pipeline walkthrough on a synthetic measured-data stand-in.

Generates a clean velocity field for the reference aluminum cylinder,
saves it in the text field format, writes a pipeline config JSON, runs
the full pipeline (discover -> ensemble -> modulus -> forward
simulation + modulus sweep), and prints the headline report entries.

The same run is available from the command line:

    weakbeam pipeline --config <out>/config.json --out-dir <out>

Example:
    python3 scripts/pipeline_example.py --out demo/
"""

import argparse
import json
from pathlib import Path

from weakbeam.beamfem import FemMesh
from weakbeam.grid import save_field
from weakbeam.material import BeamModel, CrossSection
from weakbeam.pipeline import PipelineConfig, run_pipeline
from weakbeam.synth import generate_beam_data

SECTION = CrossSection.circle(6.35e-3)
DENSITY = 2721.9
MODULUS = 6.9e10
MESH = FemMesh(194, 5e-4)
FC = 1e4  # burst center frequency, Hz


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("pipeline_demo"))
    ap.add_argument("--max-ds", type=int, default=3, help="ensemble decimation depth")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    beam = BeamModel(section=SECTION, density=DENSITY, youngs_modulus=MODULUS)
    field = generate_beam_data(
        beam, MESH, FC, dt=8e-7, t_end=2e-3, margin_frac=0.5
    )
    field_path = args.out / "synthetic.field"
    save_field(field, field_path)

    config = PipelineConfig(
        field_path=str(field_path),
        max_ds=args.max_ds,
        section=SECTION,
        density=DENSITY,
        nominal_modulus=MODULUS,
        sweep=(0.95 * MODULUS, 1.05 * MODULUS, 11),
    )
    config_path = args.out / "config.json"
    config_path.write_text(
        json.dumps(config.to_dict(), indent=2) + "\n", encoding="utf-8"
    )

    report = run_pipeline(config, out_dir=args.out)

    disc = report["discovery"]
    mat = report["material"]
    sim = report["simulation"]
    print(f"discovered: {disc['pde']}  (residual {disc['relative_residual']:.3g})")
    print(
        f"modulus: {mat['youngs_modulus']:.4e} Pa "
        f"({mat['percent_error']:.3f}% off nominal)"
    )
    print(f"simulation frobenius_rel: {sim['frobenius_rel']:.3g}")
    print(
        f"sweep best modulus: {report['sweep']['best_modulus']:.4e} Pa "
        f"(error {report['sweep']['best_error']:.3g})"
    )
    print(f"report and CSV exports in {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
