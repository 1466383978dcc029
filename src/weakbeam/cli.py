"""Command line interface.

Every subcommand prints a JSON summary to stdout (deterministic except
for fields holding wall-clock time) and writes optional artifacts.
Failures print ``error: ...`` to stderr, never a traceback, and exit
with a code batch drivers can classify: 1 for bad data, parameters or
files, 2 for a usage error, 9 for the ``pipeline`` ingest stage and 3
to 7 for its stages preprocess to simulate
(``pipeline.STAGE_EXIT_CODES``), and 8 (``pipeline.CONFIG_EXIT_CODE``)
for a ``pipeline`` config that is missing, unreadable, not JSON, or has
an unknown key, a missing key or a value of the wrong kind or range.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .beamfem import FemMesh, simulate_measured, sweep_modulus
from .discovery import discover
from .ensemble import run_ensemble
from .errors import ParameterError, WeakbeamError
from .grid import load_field, save_field, window_time
from .material import (
    BOUNDARIES,
    BeamModel,
    CrossSection,
    modulus_from_alpha,
    natural_frequencies,
    percent_error,
    smape,
)
from .pipeline import (
    CONFIG_EXIT_CODE,
    PipelineConfig,
    StageError,
    run_pipeline,
    write_ensemble_csv,
    write_json,
    write_sweep_csv,
)
from .preprocess import condition
from .synth import generate_beam_data

__all__ = ["main"]


def _parse_section(text: str) -> CrossSection:
    """Parse ``circle:d=6.35e-3`` or ``rectangle:w=4.18e-3,t=2.84e-3``."""
    try:
        kind, _, body = text.partition(":")
        fields = dict(item.split("=") for item in body.split(",") if item)
        if kind in ("circle", "circ"):
            return CrossSection.circle(float(fields["d"]))
        if kind in ("rectangle", "rect"):
            return CrossSection.rectangle(float(fields["w"]), float(fields["t"]))
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"cannot parse section {text!r}: {exc}") from None
    raise ParameterError(f"unknown section kind in {text!r}")


def _beam(args, modulus: float | None = None) -> BeamModel:
    """The beam of the ``--section`` and ``--density`` flags."""
    section = _parse_section(args.section)
    return BeamModel(section=section, density=args.density, youngs_modulus=modulus)


def _parse_pair(text: str) -> tuple[float, float]:
    try:
        a, b = (float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}") from None
    return a, b


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _beam_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--section", required=True, help="circle:d=D | rectangle:w=W,t=T")
    p.add_argument("--density", type=float, required=True, help="mass density kg/m^3")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakbeam",
        description="Discover beam dynamics from field data and validate by simulation",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help):
        # a flag is only ever its full name: "--tau" must not be read as "--tau-hat"
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(handler=handler)
        return p

    p = add_command("synth", _cmd_synth, "generate a synthetic burst-driven field")
    _beam_args(p)
    p.add_argument("--modulus", type=float, required=True, help="Young's modulus in Pa")
    p.add_argument("--n-points", type=int, default=195, help="spatial samples")
    p.add_argument("--dx", type=float, default=5e-4, help="spatial spacing m")
    p.add_argument("--fc", type=float, required=True, help="burst center frequency Hz")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--sigma-rel", type=float, default=0.0, help="noise level vs peak")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin-frac", type=float, default=0.5)
    p.add_argument("--out", required=True, help="output field file")

    p = add_command("preprocess", _cmd_preprocess, "downsample / band-pass / window a field")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--downsample", type=int, default=1)
    p.add_argument("--band", type=_parse_pair, default=None, metavar="LO,HI")
    p.add_argument("--window", type=_parse_pair, default=None, metavar="T0,T1")

    p = add_command("discover", _cmd_discover, "identify the sparse PDE of one field")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tau-hat", type=_parse_pair, default=None, metavar="X,T")
    p.add_argument("--json", dest="json_out", default=None, help="write full report here")

    p = add_command("ensemble", _cmd_ensemble, "discover over time-decimated subsets")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-ds", type=int, default=10)
    p.add_argument("--json", dest="json_out", default=None)
    p.add_argument("--csv", dest="csv_out", default=None, help="per-run alpha CSV")

    p = add_command("modulus", _cmd_modulus, "Young's modulus from a stiffness coefficient")
    _beam_args(p)
    p.add_argument("--alpha", type=float, required=True, help="w_xxxx coefficient magnitude")
    p.add_argument("--nominal", type=float, default=None)

    p = add_command("modes", _cmd_modes, "analytic bending natural frequencies")
    _beam_args(p)
    p.add_argument("--modulus", type=float, required=True, help="Young's modulus in Pa")
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--boundary", default="clamped-free", choices=BOUNDARIES)
    p.add_argument("--n-modes", type=int, default=5)
    p.add_argument(
        "--measured", default=None,
        help="comma-separated measured frequencies for SMAPE against mode 1",
    )

    p = add_command("simulate", _cmd_simulate, "edge-driven FEM replay of a measured field")
    _beam_args(p)
    p.add_argument("--modulus", type=float, required=True, help="Young's modulus in Pa")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--window", type=_parse_pair, default=None, metavar="T0,T1")
    p.add_argument("--out-field", default=None, help="write simulated field here")

    p = add_command("sweep-e", _cmd_sweep_e, "simulation error over a modulus grid")
    _beam_args(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--e-lo", type=float, required=True)
    p.add_argument("--e-hi", type=float, required=True)
    p.add_argument("--n", type=int, default=150)
    p.add_argument("--window", type=_parse_pair, default=None, metavar="T0,T1")
    p.add_argument("--csv", dest="csv_out", default=None)

    p = add_command("pipeline", _cmd_pipeline, "run the staged measured-data pipeline")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out-dir", default=None)

    return parser


def _cmd_synth(args) -> int:
    mesh = FemMesh(args.n_points - 1, args.dx)
    beam = _beam(args, args.modulus)
    data = generate_beam_data(
        beam,
        mesh,
        args.fc,
        dt=args.dt,
        t_end=args.t_end,
        sigma_rel=args.sigma_rel,
        seed=args.seed,
        margin_frac=args.margin_frac,
    )
    save_field(data, args.out)
    _emit({"out": args.out, "n_x": data.n_x, "n_t": data.n_t})
    return 0


def _cmd_preprocess(args) -> int:
    data = condition(load_field(args.infile), args.downsample, args.band)
    if args.window is not None:
        data = window_time(data, *args.window)
    save_field(data, args.out)
    _emit({"out": args.out, "n_x": data.n_x, "n_t": data.n_t})
    return 0


def _cmd_discover(args) -> int:
    data = load_field(args.infile)
    result = discover(data, tau_hat=args.tau_hat)
    report = result.as_report()
    if args.json_out:
        write_json(args.json_out, report)
    _emit({k: report[k] for k in ("pde", "support", "lambda_hat", "relative_residual")})
    return 0


def _cmd_ensemble(args) -> int:
    data = load_field(args.infile)
    result = run_ensemble(data, max_ds=args.max_ds)
    payload = result.as_report()
    if args.json_out:
        write_json(args.json_out, payload)
    if args.csv_out:
        write_ensemble_csv(args.csv_out, result)
    _emit(payload)
    return 0


def _cmd_modulus(args) -> int:
    beam = _beam(args)
    modulus = modulus_from_alpha(args.alpha, beam)
    payload = {"alpha": args.alpha, "youngs_modulus": modulus}
    if args.nominal is not None:
        payload["nominal"] = args.nominal
        payload["percent_error"] = percent_error(modulus, args.nominal)
    _emit(payload)
    return 0


def _cmd_modes(args) -> int:
    beam = _beam(args, args.modulus)
    freqs = natural_frequencies(beam, args.length, args.boundary, args.n_modes)
    payload = {"boundary": args.boundary, "frequencies": [float(f) for f in freqs]}
    if args.measured:
        try:
            measured = np.array([float(v) for v in args.measured.split(",")])
        except ValueError:
            raise ParameterError(f"cannot parse --measured {args.measured!r}") from None
        payload["smape_vs_mode1"] = smape(measured, float(freqs[0]))
    _emit(payload)
    return 0


def _cmd_simulate(args) -> int:
    data = load_field(args.infile)
    beam = _beam(args, args.modulus)
    result = simulate_measured(data, beam, window=args.window)
    if args.out_field:
        save_field(result.field, args.out_field)
    _emit({"youngs_modulus": args.modulus, "frobenius_rel": result.frobenius_rel})
    return 0


def _cmd_sweep_e(args) -> int:
    data = load_field(args.infile)
    beam = _beam(args)
    result = sweep_modulus(data, beam, args.e_lo, args.e_hi, args.n, window=args.window)
    if args.csv_out:
        write_sweep_csv(args.csv_out, result)
    _emit(
        {
            "best_modulus": result.best_modulus,
            "best_error": result.best_error,
            "n_values": len(result.moduli),
        }
    )
    return 0


def _cmd_pipeline(args) -> int:
    try:
        config = PipelineConfig.from_json(args.config)
    except (WeakbeamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_EXIT_CODE
    report = run_pipeline(config, out_dir=args.out_dir)
    _emit(report)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (WeakbeamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, StageError) else 1


if __name__ == "__main__":
    sys.exit(main())
