"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError is reserved for programming errors.
"""

from collections.abc import Callable

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
