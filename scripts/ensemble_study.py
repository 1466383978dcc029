#!/usr/bin/env python3
"""Synthetic ensemble study: noise robustness of the discovered stiffness.

Generates noisy transverse-velocity fields for the reference aluminum
cylinder over several seeds, runs the decimation ensemble on each, and
writes per-run and per-seed summaries suitable for histogramming.

Outputs in --out:
    runs.csv     one row per (seed, d, offset) ensemble member
    summary.json per-seed modal support, coefficient stats, modulus stats

Example:
    python3 scripts/ensemble_study.py --seeds 5 --sigma 0.02 --out study/
"""

import argparse
from pathlib import Path

import numpy as np

from weakbeam.beamfem import FemMesh
from weakbeam.ensemble import run_ensemble
from weakbeam.material import BeamModel, CrossSection, modulus_from_alpha, smape
from weakbeam.pipeline import write_csv, write_json
from weakbeam.synth import generate_beam_data

SECTION = CrossSection.circle(6.35e-3)
DENSITY = 2721.9
MODULUS = 6.9e10
MESH = FemMesh(194, 5e-4)
FC = 1e4  # burst center frequency, Hz


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5, help="number of noise seeds")
    ap.add_argument("--sigma", type=float, default=0.02, help="relative noise level")
    ap.add_argument("--max-ds", type=int, default=10, help="largest decimation factor")
    ap.add_argument("--dt", type=float, default=4e-7, help="sample interval (s)")
    ap.add_argument("--t-end", type=float, default=2e-3, help="record length (s)")
    ap.add_argument("--out", type=Path, default=Path("ensemble_study"))
    args = ap.parse_args()

    beam = BeamModel(
        section=SECTION,
        length=MESH.length,
        density=DENSITY,
        youngs_modulus=MODULUS,
    )
    args.out.mkdir(parents=True, exist_ok=True)

    rows = []
    summaries = {}
    for seed in range(args.seeds):
        field = generate_beam_data(
            beam,
            MESH,
            FC,
            dt=args.dt,
            t_end=args.t_end,
            sigma_rel=args.sigma,
            seed=seed,
            margin_frac=4.0,
        )
        ens = run_ensemble(field, max_ds=args.max_ds)
        moduli = []
        for run in ens.runs:
            if not run.ok:
                rows.append([seed, run.d, run.offset, "failed", "", ""])
                continue
            alpha = -run.result.coefficient("w_xxxx")
            e_run = modulus_from_alpha(alpha, beam) if alpha > 0 else float("nan")
            if np.isfinite(e_run):
                moduli.append(e_run)
            rows.append([seed, run.d, run.offset, "ok", alpha, e_run])
        moduli = np.array(moduli)
        stats = ens.stats.get("w_xxxx")
        summaries[str(seed)] = {
            "modal_support": list(ens.modal_support),
            "support_agreement": ens.support_agreement,
            "n_success": ens.n_success,
            "alpha_mean": stats.mean if stats else None,
            "alpha_std": stats.std if stats else None,
            "modulus_mean": float(moduli.mean()) if moduli.size else None,
            "modulus_std": float(moduli.std(ddof=1)) if moduli.size > 1 else 0.0,
            "modulus_smape_vs_nominal": smape(moduli, MODULUS) if moduli.size else None,
        }
        print(
            f"seed {seed}: {ens.n_success}/{len(ens.runs)} ok, "
            f"modal {ens.modal_support}, "
            f"E = {moduli.mean():.4e} +/- {moduli.std(ddof=1):.2e}"
        )

    header = ["seed", "d", "offset", "status", "alpha", "youngs_modulus"]
    write_csv(args.out / "runs.csv", header, rows)
    write_json(args.out / "summary.json", {"nominal_modulus": MODULUS, "seeds": summaries})
    print(f"wrote {args.out / 'runs.csv'} and {args.out / 'summary.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
