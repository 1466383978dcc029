"""Sparse coefficient recovery by modified sequential-thresholding least squares.

A threshold ``lam`` keeps coefficient j only while

    lam * max(1, ||b|| / ||G_j||)  <=  |c_j|  <=  (1 / lam) * min(1, ||b|| / ||G_j||)

so the bounds adapt to each column's scale.  Candidate thresholds are
ranked by the loss

    L(lam) = ||G (c_lam - c_ls)|| / ||G c_ls||  +  nnz(c_lam) / J

and the smallest minimizer wins, trading data fidelity against support
size without any tuning parameter beyond the threshold grid itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, _require_positive
from .grid import _all_finite

__all__ = [
    "SparseSolution",
    "least_squares",
    "mstls",
    "optimize_lambda",
]


# the threshold sweep: 100 log-spaced values in [1e-10, 1], ascending
_LAMBDA_GRID = np.logspace(-10, 0, 100)
_LAMBDA_GRID.setflags(write=False)


def _system(G: np.ndarray, b: np.ndarray, finite: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """``(G, b)`` as float arrays, a 2-d ``G`` with one row per entry of a
    1-d ``b`` and, if ``finite``, no NaN or inf; else :class:`ParameterError`."""
    G, b = np.asarray(G, dtype=float), np.asarray(b, dtype=float)
    if G.ndim != 2 or b.ndim != 1 or G.shape[0] != b.size:
        raise ParameterError(f"incompatible shapes {G.shape} and {b.shape}")
    if finite and not (_all_finite(G) and _all_finite(b)):
        raise ParameterError("G and b must be finite")
    return G, b


def least_squares(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares; a rank-deficient ``G`` is not an error, and
    its finiteness is not checked (the sweep passes columns of a checked one)."""
    return np.linalg.lstsq(*_system(G, b, finite=False), rcond=None)[0]


class _Sweep:
    """What every threshold of one :func:`optimize_lambda` sweep over
    ``(G, b)`` shares: the bound factors ``lo[j] = max(1, r_j)`` and
    ``hi[j] = min(1, r_j)``, ``r_j = ||b|| / ||G_j||``, as Python floats,
    and the refit of each active set met, keyed by its ``int`` bitmask
    (bit j for column j) and held as ``(c, |c|.tolist())`` with ``c``
    dense over the J columns.  The full set holds ``c_ls``."""

    def __init__(self, G: np.ndarray, b: np.ndarray):
        self.G, self.b, self.n = G, b, G.shape[1]
        col_norms = np.linalg.norm(G, axis=0)
        with np.errstate(over="ignore"):  # a ratio past the float range is inf
            ratio = np.where(
                col_norms > 0, np.linalg.norm(b) / np.maximum(col_norms, 1e-300), np.inf
            )
        self.lo = np.maximum(1.0, ratio).tolist()
        self.hi = np.minimum(1.0, ratio).tolist()
        self._fits: dict[int, tuple[np.ndarray, list[float]]] = {}
        self.c_ls = self.fit((1 << self.n) - 1)[0]

    def fit(self, mask: int) -> tuple[np.ndarray, list[float]]:
        """Least squares restricted to the columns whose bits ``mask`` sets."""
        if mask not in self._fits:
            active = [j for j in range(self.n) if mask >> j & 1]
            c = np.zeros(self.n)
            c[active] = least_squares(self.G[:, active], self.b)
            self._fits[mask] = (c, np.abs(c).tolist())
        return self._fits[mask]


def mstls(
    G: np.ndarray,
    b: np.ndarray,
    lam: float,
    *,
    _sweep: _Sweep | None = None,
) -> np.ndarray:
    """One thresholded least-squares fixed point at threshold ``lam``.

    Starting from the full least-squares solution, indices violating the
    scale-adapted bounds are deactivated and the remaining columns are
    refit, until the active set is stable or empty.  The sweep count is
    capped at J + 1 (each sweep removes at least one index or stops).

    The loop runs on Python scalars: the active set is an ``int``
    bitmask, and each column is tested as
    ``lam * lo[j] <= |c_j| <= (1 / lam) * hi[j]`` against the bounds and
    fits held by a :class:`_Sweep`.  :func:`optimize_lambda` passes
    ``_sweep`` to share them across its thresholds; without it ``lam``
    and ``(G, b)`` are checked and a fresh one is built.  Returns a new array.
    """
    if _sweep is None:
        _require_positive("lam", lam)
        _sweep = _Sweep(*_system(G, b))
    n = _sweep.n
    lam, inv = float(lam), 1.0 / lam
    lo, hi = _sweep.lo, _sweep.hi

    mask = (1 << n) - 1
    c, mag = _sweep.fit(mask)
    for _ in range(n + 1):
        keep = 0
        for j in range(n):  # a column off the set has c_j = 0 < lam * lo[j]
            if lam * lo[j] <= mag[j] <= inv * hi[j]:
                keep |= 1 << j
        if not keep:
            return np.zeros(n)
        if keep == mask:
            break
        mask = keep
        c, mag = _sweep.fit(mask)
    return c.copy()


@dataclass(frozen=True)
class SparseSolution:
    """Result of the thresholded sweep on one weak-form system."""

    coefficients: np.ndarray          # in the units the system was assembled in
    lambda_hat: float
    relative_residual: float          # ||b - G c|| / ||b|| on that same system
    loss_curve: np.ndarray = field(repr=False)  # (n_lambda, 2): lam, loss

    @property
    def support(self) -> tuple[int, ...]:
        """Indices of the nonzero coefficients, ascending."""
        return tuple(int(j) for j in np.flatnonzero(self.coefficients))


def optimize_lambda(G: np.ndarray, b: np.ndarray) -> SparseSolution:
    """Sweep the threshold grid and keep the smallest loss minimizer.

    A zero right-hand side short-circuits to the empty model at the
    smallest grid value (nothing to fit, and every threshold agrees).
    One :class:`_Sweep` serves every threshold, and the loss of each
    distinct solution is computed once.
    """
    G, b = _system(G, b)
    n = G.shape[1]

    if np.linalg.norm(b) == 0.0:
        return SparseSolution(
            coefficients=np.zeros(n),
            lambda_hat=float(_LAMBDA_GRID[0]),
            relative_residual=0.0,
            loss_curve=np.column_stack([_LAMBDA_GRID, np.zeros_like(_LAMBDA_GRID)]),
        )

    sweep = _Sweep(G, b)
    c_ls = sweep.c_ls
    denom = np.linalg.norm(G @ c_ls)
    losses = np.empty(_LAMBDA_GRID.size)
    solutions = []
    loss_of: dict[bytes, float] = {}  # per distinct solution
    for i, lam in enumerate(_LAMBDA_GRID):
        c = mstls(G, b, lam, _sweep=sweep)
        key = c.tobytes()
        if key not in loss_of:
            misfit = np.linalg.norm(G @ (c - c_ls)) / denom if denom > 0 else 0.0
            loss_of[key] = misfit + np.count_nonzero(c) / n
        losses[i] = loss_of[key]
        solutions.append(c)
    best = int(np.argmin(losses))
    # smallest lambda attaining the minimum (argmin already returns the
    # first index, and the grid is sorted ascending)
    c_hat = solutions[best]
    residual = float(np.linalg.norm(b - G @ c_hat) / np.linalg.norm(b))
    return SparseSolution(
        coefficients=c_hat,
        lambda_hat=float(_LAMBDA_GRID[best]),
        relative_residual=residual,
        loss_curve=np.column_stack([_LAMBDA_GRID, losses]),
    )
