"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError is reserved for programming errors.
"""

import math
import numbers
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


def _is_positive(value) -> bool:
    """Whether ``value`` is a real number, never a ``bool``, finite and > 0."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value < math.inf


def _require_positive(name: str, value: float) -> None:
    """Raise :class:`ParameterError` naming a value that is not finite and positive."""
    if not _is_positive(value):
        raise ParameterError(f"{name} must be finite and positive, got {value}")


def _require_count(name: str, value: int, lo: int, hi: float = math.inf) -> None:
    """Raise :class:`ParameterError` naming a count that is not an ``int`` or
    a NumPy integer (never a ``bool``) in ``lo .. hi``."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and lo <= value <= hi):
        upper = f", <= {hi}" if hi < math.inf else ""
        raise ParameterError(f"{name} must be an integer >= {lo}{upper}, got {value!r}")
