"""Measured-data pipeline: load, condition, discover, ensemble, recover
the modulus, and validate by forward simulation, emitting one report.

Every stage is fenced: a failure raises :class:`StageError` carrying the
stage name and its reserved process exit code, so batch drivers can tell
a bad file from a bad regression from a bad simulation.
"""

from __future__ import annotations

import csv
import json
import math
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .beamfem import SweepResult, _replay_errors, _trial_moduli
from .discovery import discover, render_pde
from .ensemble import EnsembleResult, run_ensemble
from .errors import DegenerateDataError, ParameterError, WeakbeamError
from .errors import _require_count, _require_kind, _require_pair, _require_positive
from .grid import load_field, window_time
from .material import BeamModel, CrossSection, modulus_report, percent_error
from .preprocess import condition
from .weakform import TERM_NAMES

__all__ = [
    "PipelineConfig",
    "StageError",
    "STAGE_EXIT_CODES",
    "CONFIG_EXIT_CODE",
    "run_pipeline",
    "write_json",
    "write_csv",
    "write_ensemble_csv",
    "write_sweep_csv",
]

# 2 is argparse's usage error, so ingest takes 9
STAGE_EXIT_CODES = {
    "ingest": 9,
    "preprocess": 3,
    "discover": 4,
    "ensemble": 5,
    "material": 6,
    "simulate": 7,
}

# a config that cannot be read or parsed, before any stage runs
CONFIG_EXIT_CODE = 8


class StageError(WeakbeamError):
    """A pipeline stage failed; carries the stage's reserved exit code."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause

    @property
    def exit_code(self) -> int:
        return STAGE_EXIT_CODES[self.stage]


def _plain(value):
    """A NumPy integer or float as a Python one, and a list, tuple or array
    (JSON's pairs and sweep triple are lists) as a tuple of plain values; a
    section holds Python floats already."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim:
        return tuple(map(_plain, value))
    return value


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one measured-data run needs, JSON round-trippable."""

    field_path: str
    downsample: int = 1
    band: tuple[float, float] | None = None
    window: tuple[float, float] | None = None
    tau_hat: tuple[float, float] | None = None
    max_ds: int = 0  # 0 skips the ensemble stage
    section: CrossSection | None = None
    density: float | None = None
    nominal_modulus: float | None = None
    simulate: bool = True
    sweep: tuple[float, float, int] | None = None  # e_lo, e_hi and a count >= 2

    def __post_init__(self):
        for key in self.__dataclass_fields__:  # plain values, so the report dumps
            object.__setattr__(self, key, _plain(getattr(self, key)))
        # every key by its stage's rule, a Python-built config's too, before any
        # stage; only the band's Nyquist and the window's t axis wait for the data
        rules = dict(
            field_path=partial(_require_kind, kind=str), max_ds=partial(_require_count, lo=0),
            simulate=partial(_require_kind, kind=bool), downsample=partial(_require_count, lo=1),
            section=partial(_require_kind, kind=CrossSection), density=_require_positive,
            band=_require_pair, window=_require_pair, tau_hat=_require_pair,
            nominal_modulus=lambda _, e: percent_error(e, e), sweep=lambda _, s: _trial_moduli(*s),
        )
        for key, spec in self.__dataclass_fields__.items():
            value = getattr(self, key)  # None skips an optional stage setting
            if value is not None or spec.default is not None:
                try:
                    rules[key](key, value)
                except (WeakbeamError, TypeError) as exc:  # TypeError: a sweep not of 3 values
                    raise ParameterError(f"pipeline config key {key!r}: {exc}") from None
        # and a key no stage would read: the material stage needs the section
        # and the density together, and the nominal and the sweep read its beam
        material = self.section is not None and self.density is not None
        for key, needs, read in (
            ("section", "'density'", self.density is not None),
            ("density", "'section'", self.section is not None),
            ("nominal_modulus", "'section' and 'density'", material),
            ("sweep", "'section', 'density' and a true 'simulate'", material and self.simulate),
        ):
            if getattr(self, key) is not None and not read:
                raise ParameterError(
                    f"pipeline config key {key!r} is read by no stage without {needs}"
                )

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise ParameterError(f"pipeline config {str(path)!r}: {exc}") from None
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        if not isinstance(raw, dict):
            raise ParameterError("pipeline config must be a JSON object")
        fields = cls.__dataclass_fields__
        unknown = set(raw) - set(fields)
        if unknown:
            raise ParameterError(f"unknown pipeline config keys: {sorted(unknown)}")
        missing = [k for k, f in fields.items() if f.default is MISSING and k not in raw]
        if missing:
            raise ParameterError(f"pipeline config needs the keys {missing}")
        if isinstance(raw.get("section"), dict):
            try:
                raw["section"] = CrossSection(**raw["section"])
            except (TypeError, ParameterError) as exc:
                raise ParameterError(f"pipeline config key 'section': {exc}") from None
        return cls(**raw)

    def to_dict(self) -> dict:
        """JSON-ready fields; a section leaves out the dimensions its kind
        does not use, which are NaN."""
        out = asdict(self)
        if self.section is not None:
            out["section"] = {
                k: v for k, v in out["section"].items() if k == "kind" or not math.isnan(v)
            }
        return out


def _json_text(payload: dict) -> str:
    """Indented, key-sorted JSON text: every JSON file and printed summary."""
    return json.dumps(payload, indent=2, sort_keys=True)


def write_json(path: str | Path, payload: dict) -> None:
    """:func:`_json_text` in a file, with a trailing newline."""
    Path(path).write_text(_json_text(payload) + "\n", encoding="utf-8")


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """CSV with ``\\n`` line ends; NumPy scalars are written as Python
    numbers, and cells holding a comma or quote are quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [v.item() if isinstance(v, np.generic) else v for v in row] for row in rows
        )


def write_ensemble_csv(path: str | Path, ensemble: EnsembleResult) -> None:
    """One row per ensemble run: the stiffness alpha = -(w_xxxx coefficient)
    and residual, or the error message of a failed run."""
    write_csv(
        path,
        ["d", "offset", "status", "alpha", "relative_residual"],
        (
            [r.d, r.offset, "ok", r.result.alpha, r.result.relative_residual]
            if r.ok
            else [r.d, r.offset, "failed", r.error, ""]
            for r in ensemble.runs
        ),
    )


def write_sweep_csv(path: str | Path, sweep: SweepResult) -> None:
    write_csv(path, ["youngs_modulus", "frobenius_rel"], zip(sweep.moduli, sweep.errors))


@contextmanager
def _stage(report: dict, timing: dict, stage: str, *fenced: type[Exception]):
    """List and time one stage, and turn a :class:`WeakbeamError` or one of
    the ``fenced`` exceptions raised in it into a :class:`StageError`."""
    report["stages"].append(stage)
    t0 = time.perf_counter()
    try:
        yield
    except (WeakbeamError, *fenced) as exc:
        raise StageError(stage, exc) from exc
    timing[stage] = time.perf_counter() - t0


def run_pipeline(config: PipelineConfig, out_dir: str | Path | None = None) -> dict:
    """Execute the configured stages and return the JSON-ready report.

    Identical configs on identical inputs produce identical reports
    except for the wall-clock entries under ``"timing"``.  When
    ``out_dir`` is given the report plus plot-ready CSV exports (loss
    curve, ensemble coefficients, sweep curve) land there.
    """
    report: dict = {"config": config.to_dict(), "stages": []}
    timing: dict[str, float] = {}

    with _stage(report, timing, "ingest", OSError):
        data = load_field(config.field_path)
        report["ingest"] = {
            "path": config.field_path,
            "n_x": data.n_x,
            "n_t": data.n_t,
        }

    with _stage(report, timing, "preprocess"):
        processed = condition(data, config.downsample, config.band)
        windowed = processed if config.window is None else window_time(processed, *config.window)
        report["preprocess"] = {
            "downsample": config.downsample,
            "band": list(config.band) if config.band else None,
            "window": list(config.window) if config.window else None,
            "n_x": windowed.n_x,
            "n_t": windowed.n_t,
            "dt": windowed.dt if windowed.n_t > 1 else None,
        }

    result = None  # stays None on a degenerate field, which ends the run
    with _stage(report, timing, "discover"):
        try:
            result = discover(windowed, tau_hat=config.tau_hat)
            report["discovery"] = result.as_report() | {"degenerate": False}
        except DegenerateDataError as exc:
            report["discovery"] = {
                "pde": render_pde(np.zeros(len(TERM_NAMES))),
                "degenerate": True,
                "reason": str(exc),
            }

    ensemble = None
    if config.max_ds >= 1 and result is not None:
        with _stage(report, timing, "ensemble"):
            ensemble = run_ensemble(windowed, max_ds=config.max_ds)
            report["ensemble"] = ensemble.as_report()

    beam = None
    if config.section is not None and result is not None:
        with _stage(report, timing, "material"):
            beam = BeamModel(section=config.section, density=config.density)
            report["material"] = modulus_report(result.alpha, beam, config.nominal_modulus)
            beam = replace(beam, youngs_modulus=report["material"]["youngs_modulus"])

    sweep = None
    if config.simulate and beam is not None:
        with _stage(report, timing, "simulate"):
            # one modal march replays the discovered modulus and the sweep's
            grid = np.empty(0) if config.sweep is None else _trial_moduli(*config.sweep)
            moduli = np.append(beam.youngs_modulus, grid)
            errors = _replay_errors(processed, beam, moduli, config.window)
            report["simulation"] = {
                "youngs_modulus": beam.youngs_modulus,
                "frobenius_rel": float(errors[0]),
            }
            if config.sweep is not None:
                sweep = SweepResult(moduli=grid, errors=errors[1:])
                report["sweep"] = sweep.as_report()

    report["timing"] = timing

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "report.json", report)
        if result is not None:
            write_csv(out / "loss_curve.csv", ["lambda", "loss"], result.solution.loss_curve)
        if ensemble is not None:
            write_ensemble_csv(out / "ensemble.csv", ensemble)
        if sweep is not None:
            write_sweep_csv(out / "sweep.csv", sweep)
    return report
