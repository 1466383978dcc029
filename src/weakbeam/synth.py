"""Synthetic measurement generation: tone-burst excitation of a beam.

The measured configuration is mimicked by driving the base node of a
beam with a windowed tone burst while the far region absorbs the wave:
the mesh extends a margin beyond the reported span so reflections from
the artificial truncation arrive late and weakened.  Samples are
reported on the nodes inside the span, optionally with additive
Gaussian noise scaled to the clean field's peak.
"""

from __future__ import annotations

import math

import numpy as np

from .beamfem import BoundaryHistory, FemMesh, newmark_solve
from .errors import ParameterError, _allocate
from .grid import FieldGrid
from .material import BeamModel

__all__ = ["burst", "generate_beam_data"]

# Minimum carrier sampling to keep the burst well resolved.
_MIN_SAMPLES_PER_PERIOD = 20

# Carrier periods under the burst's half-sine envelope; its peak is 1.
_CYCLES = 5


def burst(t: np.ndarray, fc: float) -> np.ndarray:
    """A unit sine burst of 5 periods of the carrier ``fc`` (Hz) under a
    half-sine envelope; exactly zero outside ``(0, 5 / fc)``."""
    if not (0 < fc < math.inf):
        raise ParameterError(f"center frequency must be finite and positive, got {fc}")
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < _CYCLES / fc)
    out = np.zeros_like(t)
    ti = t[inside]
    out[inside] = np.sin(math.pi * fc * ti / _CYCLES) * np.sin(2.0 * math.pi * fc * ti)
    return out


def generate_beam_data(
    beam: BeamModel,
    mesh: FemMesh,
    fc: float,
    dt: float,
    t_end: float,
    sigma_rel: float = 0.0,
    seed: int = 0,
    margin_frac: float = 0.5,
) -> FieldGrid:
    """Simulate a base-driven beam and sample its deflection field.

    The base node (x = 0) follows the :func:`burst` of carrier ``fc`` (Hz)
    with zero rotation; the far end is free.  ``mesh`` describes the
    reported span; internally the beam is extended by ``margin_frac`` of
    its elements, so the reported region behaves like a section of a
    longer structure (set ``margin_frac=0`` for a plain free end at the
    last reported node).

    Noise, when ``sigma_rel > 0``, is iid Gaussian with standard
    deviation ``sigma_rel * max |clean field|``, drawn from
    ``numpy.random.default_rng(seed)`` so fields are reproducible across
    platforms.
    """
    if not (0 < dt < t_end < math.inf):
        raise ParameterError(f"need finite 0 < dt < t_end, got dt={dt}, t_end={t_end}")
    if not (0 <= sigma_rel < math.inf and 0 <= margin_frac < math.inf):
        raise ParameterError(
            f"sigma_rel and margin_frac must be finite and non-negative, "
            f"got {sigma_rel}, {margin_frac}"
        )
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    burst(np.empty(0), fc)  # the burst's own check of fc, before 1 / fc / dt
    period_samples = 1.0 / fc / dt  # fc * dt may underflow to 0
    if period_samples < _MIN_SAMPLES_PER_PERIOD:
        raise ParameterError(
            f"dt={dt} under-resolves the {fc} Hz carrier: "
            f"{period_samples:.1f} samples/period, need >= {_MIN_SAMPLES_PER_PERIOD}"
        )

    t = _allocate(
        lambda: np.arange(int(round(t_end / dt)) + 1) * dt,
        f"{t_end / dt:g} time steps of dt={dt}",
    )
    n_margin = int(math.ceil(margin_frac * mesh.n_elements))
    extended = FemMesh(mesh.n_elements + n_margin, mesh.dx)

    bc = BoundaryHistory(t, np.column_stack([burst(t, fc), np.zeros_like(t)]))
    clean = newmark_solve(extended, beam, bc, n_nodes=mesh.n_nodes)
    if sigma_rel == 0:
        return clean
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma_rel * clean.peak, size=clean.values.shape)
    return FieldGrid(clean.x, clean.t, clean.values + noise)
