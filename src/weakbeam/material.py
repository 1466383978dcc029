"""Cross sections, modulus recovery, and analytic bending frequencies.

The discovered PDE coefficient alpha multiplies the fourth spatial
derivative in ``w_tt = -alpha w_xxxx`` and equals ``E I / (rho A)`` for a
uniform beam, so the Young's modulus follows from geometry and density
alone: ``E = alpha rho A / I``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _allocate, _is_positive, _require_count, _require_positive
from .errors import _require_real

__all__ = [
    "CrossSection",
    "BeamModel",
    "modulus_from_alpha",
    "percent_error",
    "modulus_report",
    "frequency_roots",
    "natural_frequencies",
    "smape",
]

BOUNDARIES = ("clamped-free", "pinned-pinned", "clamped-clamped")


# the dimensions each section kind takes, by --section key; the others are NaN
SECTION_DIMENSIONS = {"circle": {"d": "diameter"}, "rectangle": {"w": "width", "t": "thickness"}}


@dataclass(frozen=True)
class CrossSection:
    """Circular or rectangular solid cross section.

    Rectangular sections bend about the axis parallel to ``width``, so
    ``thickness`` is the in-plane (bending) dimension.
    """

    kind: str
    diameter: float = math.nan
    width: float = math.nan
    thickness: float = math.nan

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in SECTION_DIMENSIONS):
            raise ParameterError(f"unknown section kind {self.kind!r}")
        dims = SECTION_DIMENSIONS[self.kind]
        values = [getattr(self, name) for name in dims.values()]
        if not all(map(_is_positive, values)):
            raise ParameterError(
                f"{self.kind} needs {'a ' * (len(dims) == 1)}finite "
                f"{', '.join(dims.values())} > 0, got {', '.join(map(str, values))}"
            )
        for name in dims.values():  # Python floats, so sizes and moduli are too
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("diameter", "width", "thickness"):
            value = getattr(self, name)
            if name not in dims.values() and not (isinstance(value, float) and math.isnan(value)):
                raise ParameterError(f"a {self.kind} section takes no {name}, got {value}")
        try:
            sizes = (self.area, self.second_moment)
        except OverflowError:  # a Python float power past the range
            sizes = (math.inf,)
        if not all(sys.float_info.min <= size < math.inf for size in sizes):
            at = ", ".join(f"{key} = {value:g}" for key, value in zip(dims, values))
            raise ParameterError(
                f"the {self.kind} section's area or second moment leaves the float "
                f"range at {at}"
            )

    @classmethod
    def circle(cls, diameter: float) -> "CrossSection":
        return cls(kind="circle", diameter=diameter)

    @classmethod
    def rectangle(cls, width: float, thickness: float) -> "CrossSection":
        return cls(kind="rectangle", width=width, thickness=thickness)

    @property
    def area(self) -> float:
        if self.kind == "circle":
            return math.pi * self.diameter**2 / 4.0
        return self.width * self.thickness

    @property
    def second_moment(self) -> float:
        if self.kind == "circle":
            return math.pi * self.diameter**4 / 64.0
        return self.width * self.thickness**3 / 12.0


@dataclass(frozen=True, kw_only=True)
class BeamModel:
    """Uniform prismatic beam: section, density, optional modulus.  The
    span is not part of it: only :func:`natural_frequencies` reads one."""

    section: CrossSection
    density: float
    youngs_modulus: float | None = None

    def __post_init__(self):
        _require_positive("density", self.density)
        object.__setattr__(self, "density", float(self.density))  # Python floats, as a section holds
        if self.youngs_modulus is not None:
            _require_positive("youngs_modulus", self.youngs_modulus)
            object.__setattr__(self, "youngs_modulus", float(self.youngs_modulus))

    def require_modulus(self) -> float:
        if self.youngs_modulus is None:
            raise ParameterError("beam has no Young's modulus set")
        return self.youngs_modulus


def modulus_from_alpha(alpha: float, beam: BeamModel) -> float:
    """Young's modulus from the stiffness coefficient alpha = E I / (rho A).

    alpha must be positive; a non-positive value indicates the discovered
    fourth-derivative coefficient had the wrong sign.  A modulus that
    overflows or underflows to 0 raises :class:`ParameterError`.
    """
    _require_positive("alpha", alpha)
    modulus = alpha * beam.density * beam.section.area / beam.section.second_moment
    if not _is_positive(modulus):
        raise ParameterError(f"the modulus from alpha = {alpha:g} leaves the float range")
    return modulus


def percent_error(modulus: float, nominal: float) -> float:
    """``100 |modulus - nominal| / nominal``; a modulus or nominal that is
    not finite and positive raises :class:`ParameterError`."""
    _require_positive("nominal modulus", nominal)
    _require_positive("modulus", modulus)
    return 100.0 * abs(modulus - nominal) / nominal


def modulus_report(alpha: float, beam: BeamModel, nominal: float | None = None) -> dict:
    """JSON-ready modulus from alpha, and its percent error against a given nominal."""
    modulus = modulus_from_alpha(alpha, beam)
    report = {"alpha": alpha, "youngs_modulus": modulus}
    if nominal is not None:
        report |= {"nominal_modulus": nominal, "percent_error": percent_error(modulus, nominal)}
    return report


def _sech(x: float) -> float:
    # overflow-free 1 / cosh
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


def frequency_roots(boundary: str, n_modes: int) -> np.ndarray:
    """First ``n_modes`` roots beta_n L of the bending characteristic equation."""
    _require_count("n_modes", n_modes, 1)
    if boundary not in BOUNDARIES:
        raise ParameterError(
            f"unknown boundary {boundary!r}, expected one of {BOUNDARIES}"
        )
    n = _allocate(lambda: np.arange(1, n_modes + 1, dtype=float), f"{n_modes} modes")
    if boundary == "pinned-pinned":
        return np.pi * n
    if boundary == "clamped-free":
        # cos(x) cosh(x) = -1, one root per interval ((n-1) pi, n pi)
        func = lambda x: math.cos(x) + _sech(x)
        brackets = zip(((n - 1) * math.pi + 1e-9).tolist(), (n * math.pi).tolist())
    else:
        # cos(x) cosh(x) = +1, skipping the trivial root at 0
        func = lambda x: math.cos(x) - _sech(x)
        brackets = zip((n * math.pi).tolist(), ((n + 1) * math.pi).tolist())
    # imported here: scipy.optimize is slow to load and only `modes` needs it
    from scipy.optimize import brentq

    return np.array([brentq(func, lo, hi, xtol=1e-14) for lo, hi in brackets])


def natural_frequencies(
    beam: BeamModel, length: float, boundary: str = "clamped-free", n_modes: int = 5
) -> np.ndarray:
    """Analytic bending natural frequencies in Hz, ascending, of a span
    ``length``.  A span that is not finite and positive, or a scale
    ``sqrt(E I / (rho A L^4))`` or a frequency that is not a finite
    positive float (an extreme length or modulus), raises
    :class:`ParameterError`."""
    _require_positive("length", length)
    modulus = beam.require_modulus()
    section = beam.section
    roots = frequency_roots(boundary, n_modes)
    with np.errstate(all="ignore"):
        scale = np.sqrt(
            modulus * section.second_moment
            / (beam.density * section.area * np.float64(length) ** 4)
        ) / (2.0 * math.pi)
        freqs = roots**2 * scale
    if not (_is_positive(scale) and np.all(np.isfinite(freqs))):
        raise ParameterError(
            f"the bending frequencies leave the float range at length {length:g} "
            f"and modulus {modulus:g}"
        )
    return freqs


def smape(values: np.ndarray, nominal: float) -> float:
    """Symmetric mean absolute percentage error against one nominal value.
    ``values`` is one or more finite real numbers, as a scalar or an array."""
    try:
        values = np.asarray(values, dtype=object).ravel().tolist()  # ragged lists too
    except ValueError:  # arrays of shapes NumPy cannot stack
        values = [values]
    if not values:
        raise ParameterError("smape's values must hold at least one number")
    for value in values:
        _require_real("each of smape's values", value)
    values = np.array(values, dtype=float)
    _require_real("smape's nominal", nominal)
    denom = (np.abs(values) + abs(nominal)) / 2.0
    terms = np.where(denom > 0, np.abs(values - nominal) / np.maximum(denom, 1e-300), 0.0)
    return float(100.0 * terms.mean())
