"""End-to-end PDE discovery on one field: supports, scaling, assembly,
sparse solve, and unscaling, bundled with every diagnostic a report needs."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DegenerateDataError, ParameterError, _require_pair
from .grid import FieldGrid
from .sparse import SparseSolution, optimize_lambda
from .weakform import (
    LHS,
    TERM_NAMES,
    CornerDiagnostic,
    TestFunctionBasis,
    WeakSystem,
    assemble,
    mean_power_spectrum,
    rescale,
    select_support,
    spectral_corner,
    unscale_coefficients,
)

__all__ = ["DiscoveryResult", "discover", "render_pde"]


def render_pde(coefficients) -> str:
    """The library equation at 6 significant figures, e.g.
    ``w_tt = -58.5218 w_xxxx``; zero terms are left out."""
    parts = []
    for name, c in zip(TERM_NAMES, coefficients):
        if c == 0.0:
            continue
        mag = f"{abs(c):.6g}"
        body = mag if name == "1" else f"{mag} {name}"
        parts.append((c < 0, body))
    if not parts:
        return f"{LHS.name} = 0"
    out = f"{LHS.name} = "
    for i, (negative, body) in enumerate(parts):
        if i == 0:
            out += ("-" if negative else "") + body
        else:
            out += (" - " if negative else " + ") + body
    return out


@dataclass(frozen=True)
class DiscoveryResult:
    """Sparse PDE identified from one field, with all hyperparameters."""

    coefficients: np.ndarray          # original units, dense over the library
    solution: SparseSolution = field(repr=False)  # scaled-system solve
    system: WeakSystem = field(repr=False)
    corner_x: CornerDiagnostic | None = None
    corner_t: CornerDiagnostic | None = None

    @property
    def basis(self) -> TestFunctionBasis:
        return self.system.basis

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(TERM_NAMES[j] for j in self.solution.support)

    @property
    def lambda_hat(self) -> float:
        return self.solution.lambda_hat

    @property
    def relative_residual(self) -> float:
        return self.solution.relative_residual

    @property
    def condition_number(self) -> float:
        return self.system.condition_number

    def coefficient(self, name: str) -> float:
        if name not in TERM_NAMES:
            raise KeyError(f"unknown term {name!r}, library has {TERM_NAMES}")
        return float(self.coefficients[TERM_NAMES.index(name)])

    @property
    def alpha(self) -> float:
        """The stiffness alpha of ``w_tt = -alpha w_xxxx``; ``0.0 - c``, as
        ``-c`` would turn an inactive term's 0.0 into -0.0."""
        return 0.0 - self.coefficient("w_xxxx")

    @property
    def pde_text(self) -> str:
        return render_pde(self.coefficients)

    def as_report(self) -> dict:
        """JSON-ready summary of the discovery."""
        return {
            "pde": self.pde_text,
            "terms": list(TERM_NAMES),
            "coefficients": [float(c) for c in self.coefficients],
            "coefficients_scaled": [float(c) for c in self.solution.coefficients],
            "support": list(self.support),
            "lambda_hat": self.lambda_hat,
            "relative_residual": self.relative_residual,
            "condition_number": self.condition_number,
            "n_queries": int(self.system.n_queries),
            "gamma": {
                "w": self.system.gamma_w,
                "x": self.system.gamma_x,
                "t": self.system.gamma_t,
            },
            "basis": asdict(self.basis),
            "corner": {
                "x": None
                if self.corner_x is None
                else {"bin": self.corner_x.corner_bin, "tau_hat": self.corner_x.tau_hat},
                "t": None
                if self.corner_t is None
                else {"bin": self.corner_t.corner_bin, "tau_hat": self.corner_t.tau_hat},
            },
        }


def _tau_hat_bins(grid: FieldGrid, tau_hat) -> tuple[int, int]:
    """Corner bins ``round(10 ** tau_hat)`` per axis, clamped to [1, n // 2];
    a scalar ``tau_hat`` serves both axes."""
    pair = _require_pair("tau_hat", (tau_hat, tau_hat) if np.isscalar(tau_hat) else tau_hat)
    return tuple(
        # capping the exponent keeps 10 ** th finite and changes no bin
        min(max(1, int(round(10.0 ** min(th, 300.0)))), max(1, n // 2))
        for th, n in zip(pair, (grid.n_x, grid.n_t))
    )


def discover(
    grid: FieldGrid,
    tau_hat: float | tuple[float, float] | None = None,
    x_power: np.ndarray | None = None,
) -> DiscoveryResult:
    """Identify a sparse PDE from one space-time field, regressing ``w_tt``
    onto the candidate terms of the library table :data:`weakform.TERMS`.

    Hyperparameters are selected from the data unless ``tau_hat`` pins
    the spectral corner (log10-bin units), in which case no corner is
    reported.  The regression runs on the rescaled system; reported
    coefficients are mapped back to the original units.  ``x_power`` is
    the field's x spectrum, ``mean_power_spectrum(grid, 0)``, when
    the caller already holds it (:func:`ensemble.run_ensemble` derives
    every subset's from one transform of the whole field); it must hold
    the axis' ``n_x // 2`` bins.  An active term whose coefficient is not
    a finite normal float in the data's units (:func:`unscale_coefficients`)
    raises :class:`DegenerateDataError` naming dx and dt.
    """
    if x_power is not None and np.shape(x_power) != (grid.n_x // 2,):
        raise ParameterError(
            f"x_power must hold {grid.n_x // 2} bins, got shape {np.shape(x_power)}"
        )
    corner_x = corner_t = None
    if tau_hat is None:
        if x_power is None:
            x_power = mean_power_spectrum(grid, 0)
        corner_x = spectral_corner(x_power)
        corner_t = spectral_corner(mean_power_spectrum(grid, 1))
        bins = (corner_x.corner_bin, corner_t.corner_bin)
    else:
        bins = _tau_hat_bins(grid, tau_hat)
    basis = select_support(grid, bins)
    gammas = rescale(grid, basis)
    system = assemble(grid, basis, scales=gammas)
    solution = optimize_lambda(system.G, system.b)
    coefficients = unscale_coefficients(system, solution.coefficients)
    if np.isnan(coefficients).any():
        lost = [TERM_NAMES[j] for j in np.flatnonzero(np.isnan(coefficients))]
        raise DegenerateDataError(
            f"the coefficients of {', '.join(lost)} leave the float range at "
            f"spacing dx = {grid.dx:g} and time step dt = {grid.dt:g}"
        )
    return DiscoveryResult(
        coefficients=coefficients,
        solution=solution,
        system=system,
        corner_x=corner_x,
        corner_t=corner_t,
    )
