"""Uniform space-time field container and its text file format.

A field is a real-valued function sampled on a tensor grid: ``values[i, j]``
is the sample at position ``x[i]``, time ``t[j]``.  Both axes must be
strictly increasing and uniformly spaced; single-sample axes are allowed
(a window can collapse an axis) but then carry no spacing.

File format (UTF-8 text, ``.field`` by convention)::

    # fieldgrid v1
    x: <N_x space-separated decimals>
    t: <N_t space-separated decimals>
    <N_x rows of N_t space-separated values>

Values are written with shortest round-trip precision, so
``load_field(save_field(g))`` reproduces ``g`` exactly.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldFormatError, GridError, WindowError

__all__ = ["FieldGrid", "load_field", "save_field", "window_time"]

# Relative tolerance on axis uniformity: successive spacings may deviate
# from the mean spacing by at most this factor.
UNIFORMITY_RTOL = 1e-9

_MAGIC = "# fieldgrid v1"


def _all_finite(x: np.ndarray) -> bool:
    """No NaN or inf in ``x``: min and max propagate NaN and show either
    infinity, without the full-size mask ``np.isfinite(x)`` would build."""
    return x.size == 0 or bool(np.isfinite(x.min()) and np.isfinite(x.max()))


def _check_axis(name: str, axis: np.ndarray) -> None:
    if axis.ndim != 1 or axis.size == 0:
        raise GridError(f"{name} axis must be a non-empty 1-d array")
    if not _all_finite(axis):
        raise GridError(f"{name} axis contains non-finite entries")
    if axis.size == 1:
        return
    span = float(axis[-1]) - float(axis[0])  # a Python float: inf, not a warning
    if not np.isfinite(span):
        raise GridError(f"{name} axis spans {axis[0]} to {axis[-1]}, past the float range")
    with np.errstate(over="ignore"):  # only a gap of a non-increasing axis can overflow
        d = np.diff(axis)
    if np.any(d <= 0):
        k = int(np.argmax(d <= 0))
        raise GridError(
            f"{name} axis is not strictly increasing at index {k}: "
            f"{axis[k]} -> {axis[k + 1]}"
        )
    h = span / (axis.size - 1)
    dev = np.abs(d - h)
    worst = int(np.argmax(dev))
    if dev[worst] > UNIFORMITY_RTOL * h:
        raise GridError(
            f"{name} axis is not uniform: spacing at index {worst} is "
            f"{d[worst]:.17g}, mean spacing {h:.17g}"
        )


@dataclass(frozen=True)
class FieldGrid:
    """Immutable field samples on a uniform rectangular grid.

    Parameters
    ----------
    x : array_like, shape (N_x,)
        Spatial sample positions, strictly increasing, uniform.
    t : array_like, shape (N_t,)
        Temporal sample positions, strictly increasing, uniform.
    values : array_like, shape (N_x, N_t)
        Field samples; all entries must be finite.  Their largest
        magnitude, ``peak``, comes from the scan that checks them.
    """

    x: np.ndarray
    t: np.ndarray
    values: np.ndarray = field(repr=False)
    peak: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=float)
        t = np.ascontiguousarray(self.t, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        _check_axis("x", x)
        _check_axis("t", t)
        if values.shape != (x.size, t.size):
            raise GridError(
                f"values shape {values.shape} does not match grid "
                f"({x.size}, {t.size})"
            )
        lo, hi = values.min(), values.max()  # NaN and either inf show here
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise GridError("values contain non-finite entries")
        for arr in (x, t, values):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "peak", float(max(-lo, hi)))

    def unit_scaled(self) -> tuple[FieldGrid, int]:
        """``(self * 2^-e, e)``: ``e = 0`` when ``peak`` is 0 or lies in
        [2^-200, 2^200], else the exponent that brings it into [1/2, 1).
        The scaling is exact, so what is linear in the field (spectra up
        to one factor, the replay, relative errors) answers the same on a
        field whose squares and their sums neither overflow nor underflow."""
        if self.peak == 0.0 or 2.0**-200 <= self.peak <= 2.0**200:
            return self, 0
        e = int(np.frexp(self.peak)[1])
        return FieldGrid(self.x, self.t, np.ldexp(self.values, -e)), e

    @property
    def n_x(self) -> int:
        return self.x.size

    @property
    def n_t(self) -> int:
        return self.t.size

    @property
    def dx(self) -> float:
        if self.x.size < 2:
            raise GridError("dx undefined for a single-sample x axis")
        return float((self.x[-1] - self.x[0]) / (self.x.size - 1))

    @property
    def dt(self) -> float:
        if self.t.size < 2:
            raise GridError("dt undefined for a single-sample t axis")
        return float((self.t[-1] - self.t[0]) / (self.t.size - 1))

    @property
    def x_extent(self) -> float:
        return float(self.x[-1] - self.x[0])

    @property
    def t_extent(self) -> float:
        return float(self.t[-1] - self.t[0])


def window_time(grid: FieldGrid, t_lo: float, t_hi: float) -> FieldGrid:
    """Restrict a field to the time samples nearest [t_lo, t_hi].

    Bounds snap to the nearest sample; the window keeps every sample
    between the snapped bounds inclusive.  Windowing twice with the same
    bounds is a no-op.  Both bounds must be finite, and a window more than
    dt/2 outside the samples (0 on a single-sample axis) is refused.
    """
    cols = _window_columns(grid.t, t_lo, t_hi)
    return FieldGrid(grid.x, grid.t[cols], grid.values[:, cols])


def _window_columns(t: np.ndarray, t_lo: float, t_hi: float) -> slice:
    """The slice of the time axis ``t`` that :func:`window_time` keeps."""
    if not np.isfinite([t_lo, t_hi]).all():
        raise WindowError(f"window bounds must be finite, got [{t_lo}, {t_hi}]")
    if t_hi < t_lo:
        raise WindowError(f"empty window: t_lo={t_lo} > t_hi={t_hi}")
    half = (t[-1] - t[0]) / (t.size - 1) / 2 if t.size > 1 else 0.0
    if t_hi < t[0] - half or t_lo > t[-1] + half:
        raise WindowError(
            f"window [{t_lo}, {t_hi}] does not intersect grid span "
            f"[{t[0]}, {t[-1]}]"
        )
    i_lo = int(np.argmin(np.abs(t - t_lo)))
    i_hi = int(np.argmin(np.abs(t - t_hi)))
    if i_hi < i_lo:
        raise WindowError(f"window [{t_lo}, {t_hi}] snaps to no samples")
    return slice(i_lo, i_hi + 1)


def save_field(grid: FieldGrid, path: str | os.PathLike) -> None:
    """Write a field to the v1 text format with exact round-trip precision."""

    def line(values: np.ndarray) -> str:
        # repr of a Python float is its shortest round-trip decimal
        return " ".join(map(repr, values.tolist())) + "\n"

    # one row at a time: no copy of the whole text is ever held
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_MAGIC + "\n")
        fh.write("x: " + line(grid.x))
        fh.write("t: " + line(grid.t))
        for row in grid.values:
            fh.write(line(row))


def _utf8(line: str, lineno: int) -> str:
    """``line``, checked to have been UTF-8.  Files are read with
    ``errors="surrogateescape"``, which decodes a bad byte to a lone
    surrogate instead of failing a whole read-ahead chunk, so the error
    can name its line."""
    if not line.isascii():  # O(1) on str
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(line[exc.start]) - 0xDC00
            raise FieldFormatError(
                f"line {lineno}: byte 0x{byte:02x} at column {exc.start + 1} is not UTF-8"
            ) from None
    return line


def _parse_axis_line(line: str, key: str, lineno: int) -> np.ndarray:
    parts = _utf8(line, lineno).split()
    if not parts or parts[0] != key + ":":
        raise FieldFormatError(
            f"line {lineno}: expected '{key}:' axis header, got {line[:40]!r}"
        )
    if len(parts) == 1:
        raise FieldFormatError(f"line {lineno}: empty {key} axis")
    try:
        return np.array([float(v) for v in parts[1:]], dtype=float)
    except ValueError as exc:
        raise FieldFormatError(f"line {lineno}: bad {key} value: {exc}") from None


def _read_rows(fh, n_x: int, n_t: int) -> np.ndarray:
    """Parse the value block line by line, starting at line 4.

    Blank lines are skipped and each token is parsed as ``float()`` does,
    so ``1_000`` and non-ASCII digits are accepted.  The first line that
    breaks the format is named in the error.
    """
    values = np.empty((n_x, n_t))
    n_rows = 0
    for lineno, line in enumerate(fh, start=4):
        parts = _utf8(line, lineno).split()
        if not parts:
            continue
        if len(parts) != n_t:
            raise FieldFormatError(
                f"line {lineno}: expected {n_t} values, got {len(parts)}"
            )
        if n_rows == n_x:
            raise FieldFormatError(
                f"line {lineno}: more than the {n_x} value rows of the x axis"
            )
        try:
            # NumPy parses each token as float() does
            values[n_rows] = parts
        except ValueError as exc:
            raise FieldFormatError(f"line {lineno}: bad value: {exc}") from None
        n_rows += 1
    if n_rows != n_x:
        raise FieldFormatError(f"expected {n_x} value rows, got {n_rows}")
    return values


def load_field(path: str | os.PathLike) -> FieldGrid:
    """Read a field from the v1 text format.

    The value block is parsed in C by one ``np.loadtxt`` call, kept when
    its shape matches the axes.  ``loadtxt`` splits on the whitespace
    ``str.split`` does and parses what ``float()`` does, except
    underscores (``1_000``) and non-ASCII digits.  A block it rejects for
    those, or for a bad token, a ragged, missing or extra row or a byte
    that is not UTF-8, is parsed again line by line: the loop accepts
    those spellings, with the same values, and names the first bad line.

    Raises
    ------
    FieldFormatError
        On a bad magic line, malformed axis header, non-numeric token,
        a line that is not UTF-8, or a value block whose shape disagrees
        with the axes.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        magic = _utf8(fh.readline(), 1).rstrip("\n")
        if magic.strip() != _MAGIC:
            raise FieldFormatError(
                f"bad magic line {magic!r}, expected {_MAGIC!r}"
            )
        x = _parse_axis_line(fh.readline(), "x", 2)
        t = _parse_axis_line(fh.readline(), "t", 3)
        block = fh.tell()
        try:
            with warnings.catch_warnings():
                # an empty block warns "input contained no data"; the
                # loop below raises the format error for it instead
                warnings.simplefilter("ignore", UserWarning)
                # comments=None: the default would cut a row at '#'
                values = np.loadtxt(fh, comments=None, ndmin=2)
        except ValueError:
            values = None
        if values is None or values.shape != (x.size, t.size):
            fh.seek(block)
            values = _read_rows(fh, x.size, t.size)
    # structural problems are format errors, but an axis that parses and
    # then violates a grid invariant (non-uniform, duplicated sample) is
    # a data problem and surfaces as GridError from the constructor
    return FieldGrid(x, t, values)
