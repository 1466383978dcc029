"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError is reserved for programming errors.
"""

import math
import numbers
import sys
from collections.abc import Callable

import numpy as np

__all__ = [
    "WeakbeamError",
    "FieldFormatError",
    "GridError",
    "WindowError",
    "ParameterError",
    "SelectionError",
    "DegenerateDataError",
    "AggregationError",
    "DimensionError",
]


class WeakbeamError(Exception):
    """Base class for all package-specific errors."""


class FieldFormatError(WeakbeamError):
    """A field file violates the text format (header, counts, parse)."""


class GridError(WeakbeamError):
    """Grid axes are malformed: non-uniform, non-increasing, wrong size."""


class WindowError(WeakbeamError):
    """A requested time window does not intersect the grid."""


class ParameterError(WeakbeamError):
    """A numeric parameter is out of its admissible range."""


class SelectionError(WeakbeamError):
    """Hyperparameter selection cannot produce an admissible configuration."""


class DegenerateDataError(WeakbeamError):
    """The data is identically zero or otherwise carries no signal."""


class AggregationError(WeakbeamError):
    """An ensemble produced no successful runs to aggregate."""


class DimensionError(WeakbeamError):
    """Two fields that must share a grid do not."""


def _allocate(build: Callable, what: str):
    """The array ``build()`` makes for a count of at least 1.  A count NumPy
    refuses (past the C integer or float range, or too large to index or
    allocate) or gives an empty array for (np.arange does near 2**63)
    raises :class:`ParameterError` ("cannot hold <what>")."""
    try:
        array = build()
    except (OverflowError, ValueError, IndexError, MemoryError):
        array = None
    if array is None or array.size == 0:
        raise ParameterError(f"cannot hold {what}")
    return array


def _is_real(value) -> bool:
    """Whether ``value`` is a real number a float holds, never a ``bool`` (nor
    an integer past the float range, such as ``10**400``)."""
    big = sys.float_info.max
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and (
        isinstance(value, (float, np.floating)) or -big <= value <= big
    )


def _is_positive(value) -> bool:
    """Whether ``value`` is a real number, never a ``bool``, finite and > 0."""
    return _is_real(value) and 0 < value < math.inf


def _require_positive(name: str, value: float) -> None:
    """Raise :class:`ParameterError` naming a value that is not finite and positive."""
    if not _is_positive(value):
        raise ParameterError(f"{name} must be finite and positive, got {value}")


def _require_kind(name: str, value, kind: type) -> None:
    """Raise :class:`ParameterError` naming a value that is not a ``kind``."""
    if not isinstance(value, kind):
        raise ParameterError(f"{name} must be a {kind.__name__}, got {value!r}")


def _require_count(name: str, value: int, lo: int, hi: float = math.inf) -> None:
    """Raise :class:`ParameterError` naming a count that is not an ``int`` or
    a NumPy integer (never a ``bool``) in ``lo .. hi``."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and lo <= value <= hi):
        upper = f", <= {hi}" if hi < math.inf else ""
        raise ParameterError(f"{name} must be an integer >= {lo}{upper}, got {value!r}")


def _require_real(name: str, value: float, lo: float = -math.inf) -> None:
    """Raise :class:`ParameterError` naming a value that is not a finite real number >= ``lo``."""
    if not (_is_real(value) and math.isfinite(value) and value >= lo):
        bound = f" >= {lo}" if lo > -math.inf else ""
        raise ParameterError(f"{name} must be a finite real number{bound}, got {value!r}")


# each pair's range short of what needs the data (the band's Nyquist, the window's
# t axis), as a test and its words; an infinite tau_hat clamps its bin to an end
_PAIRS = {
    "band": (lambda lo, hi: 0 <= lo < hi, "with 0 <= f_lo < f_hi"),
    "window": (lambda lo, hi: -math.inf < lo <= hi < math.inf, "finite, with t_lo <= t_hi"),
    "tau_hat": (lambda x, t: not (math.isnan(x) or math.isnan(t)), "not NaN"),
    "e_lo, e_hi": (lambda lo, hi: 0 < lo < hi < math.inf, "finite, with 0 < e_lo < e_hi"),
    "dt, t_end": (lambda dt, t_end: 0 < dt < t_end < math.inf, "finite, with 0 < dt < t_end"),
}


def _require_pair(name: str, pair, error: type[WeakbeamError] = ParameterError) -> tuple:
    """``pair`` as two real numbers in ``_PAIRS[name]``'s range, else raise ``error``."""
    try:
        a, b = pair
    except (TypeError, ValueError):
        a = b = None
    if not (_is_real(a) and _is_real(b) and _PAIRS[name][0](a, b)):
        raise error(f"{name} must be two real numbers, {_PAIRS[name][1]}, got {pair!r}")
    return a, b
