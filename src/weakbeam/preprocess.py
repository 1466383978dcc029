"""Time-axis conditioning: decimation and zero-phase band-pass filtering."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .grid import FieldGrid

__all__ = ["subsample_time", "bandpass_time", "condition"]

# Width of each raised-cosine flank of the band-pass, as a fraction of the band.
_TAPER_FRAC = 0.1


def subsample_time(grid: FieldGrid, d: int, offset: int) -> FieldGrid:
    """Every d-th time sample starting at 1-based offset (1 <= offset <= d).

    The result's time step is ``d * dt``; no anti-alias filter is applied
    (pair with :func:`bandpass_time` when the band demands one).
    """
    if d < 1 or d != int(d):
        raise ParameterError(f"decimation step must be a positive integer, got {d}")
    if not (1 <= offset <= d) or offset != int(offset):
        raise ParameterError(f"offset must lie in [1, {d}], got {offset}")
    sl = slice(int(offset) - 1, None, int(d))
    return FieldGrid(grid.x, grid.t[sl], grid.values[:, sl])


def bandpass_time(grid: FieldGrid, f_lo: float, f_hi: float) -> FieldGrid:
    """Zero-phase band-pass along the time axis of every spatial row.

    Each row is demeaned, transformed with a real FFT, multiplied by a
    frequency mask, and inverse transformed.  The mask is 1 on
    ``[f_lo, f_hi]``, rolls off with raised-cosine flanks of width
    ``_TAPER_FRAC * (f_hi - f_lo)`` placed outside the band, and is 0
    beyond the flanks.  Filtering is applied in a single pass on the full
    record; no group delay is introduced.

    Raises
    ------
    ParameterError
        If the band is empty, non-positive, or ``f_hi`` exceeds the
        Nyquist frequency ``1 / (2 dt)``.
    """
    if not (0.0 <= f_lo < f_hi):
        raise ParameterError(f"need 0 <= f_lo < f_hi, got [{f_lo}, {f_hi}]")
    dt = grid.dt
    nyquist = 0.5 / dt
    if f_hi > nyquist:
        raise ParameterError(
            f"f_hi={f_hi} exceeds Nyquist frequency {nyquist} at dt={dt}"
        )
    n = grid.n_t
    freqs = np.fft.rfftfreq(n, d=dt)
    width = _TAPER_FRAC * (f_hi - f_lo)
    mask = np.zeros_like(freqs)
    inside = (freqs >= f_lo) & (freqs <= f_hi)
    mask[inside] = 1.0
    lo_flank = (freqs >= f_lo - width) & (freqs < f_lo)
    mask[lo_flank] = 0.5 * (1 + np.cos(np.pi * (f_lo - freqs[lo_flank]) / width))
    hi_flank = (freqs > f_hi) & (freqs <= f_hi + width)
    mask[hi_flank] = 0.5 * (1 + np.cos(np.pi * (freqs[hi_flank] - f_hi) / width))

    rows = grid.values - grid.values.mean(axis=1, keepdims=True)
    spectrum = np.fft.rfft(rows, axis=1)
    filtered = np.fft.irfft(spectrum * mask, n=n, axis=1)
    return FieldGrid(grid.x, grid.t, filtered)


def condition(grid: FieldGrid, downsample: int = 1, band: tuple | None = None) -> FieldGrid:
    """Every ``downsample``-th time sample from the first, then the band-pass
    to ``band = (f_lo, f_hi)`` unless it is None: the one conditioning order
    of the ``preprocess`` command and the pipeline, before either windows."""
    if downsample != 1:
        grid = subsample_time(grid, downsample, 1)
    return grid if band is None else bandpass_time(grid, *band)
