"""Data ensembling by time subsampling.

Every decimation step d from 1 to max_ds contributes d phase-shifted
subsets (offsets 1..d), giving ``max_ds (max_ds + 1) / 2`` derived
datasets whose union at each d covers every original sample.  Discovery
runs independently on each subset, hyperparameters re-selected from
scratch, and per-term statistics summarize the spread.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .discovery import DiscoveryResult, discover
from .errors import AggregationError, ParameterError, WeakbeamError, _require_count
from .grid import FieldGrid
from .preprocess import subsample_time
from .weakform import TERM_NAMES, _line_power

__all__ = [
    "TermStats",
    "EnsembleRun",
    "EnsembleResult",
    "run_ensemble",
    "aggregate",
]


@dataclass(frozen=True)
class EnsembleRun:
    """One subset's outcome; failures carry the message, never vanish."""

    d: int
    offset: int
    result: DiscoveryResult | None = field(repr=False, default=None)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass(frozen=True)
class TermStats:
    """Coefficient statistics over the runs where a term was active."""

    n_active: int
    mean: float
    median: float
    std: float
    min: float
    max: float


@dataclass(frozen=True)
class EnsembleResult:
    runs: tuple[EnsembleRun, ...]
    stats: dict[str, TermStats]
    modal_support: tuple[str, ...]
    support_agreement: float  # fraction of successful runs matching the mode

    @property
    def n_success(self) -> int:
        return sum(1 for r in self.runs if r.ok)

    def as_report(self) -> dict:
        """JSON-ready summary: run counts, modal support, per-term
        statistics, and every failed run with its error message."""
        return {
            "n_runs": len(self.runs),
            "n_success": self.n_success,
            "modal_support": list(self.modal_support),
            "support_agreement": self.support_agreement,
            "stats": {name: asdict(s) for name, s in sorted(self.stats.items())},
            "failures": [
                {"d": r.d, "offset": r.offset, "error": r.error}
                for r in self.runs
                if not r.ok
            ],
        }


def _subset_x_spectra(grid: FieldGrid, max_ds: int) -> dict[tuple[int, int], np.ndarray]:
    """``mean_power_spectrum(subset, 0)`` of every (d, offset) subset, keyed
    by (d, offset) in run order, from one real FFT of the whole field along x.

    The x transform acts on each column alone, so a subset's spectrum is
    the mean of the whole field's per-column power over the subset's
    columns ``offset - 1 :: d``; it comes out bit-identical to
    transforming the subset, unless the field is far enough from unit
    scale that the two are scaled by different powers of two.
    """
    power = _line_power(grid, 0)
    return {
        (d, offset): power[:, offset - 1 :: d].mean(axis=1)
        for d in range(1, max_ds + 1)
        for offset in range(1, d + 1)
    }


def run_ensemble(grid: FieldGrid, max_ds: int = 10) -> EnsembleResult:
    """Discover on every time-decimated subset and aggregate.

    Hyperparameters (corner, supports, strides, threshold) are selected
    independently per subset, so the ensemble probes the full selection
    pipeline, not just the regression.  The subsets and their x spectra
    come from one transform of the whole field (:func:`_subset_x_spectra`),
    which is freed before the first discovery; the runs take its keys in
    order, d from 1 to ``max_ds`` and each d's offsets 1 .. d.  A
    ``max_ds`` above the number of time samples, which adds only empty
    subsets, raises :class:`ParameterError` before that transform.
    """
    _require_count("max_ds", max_ds, 1)
    if max_ds > grid.n_t:
        raise ParameterError(
            f"max_ds = {max_ds} exceeds the field's n_t = {grid.n_t} time samples: "
            f"every subset past n_t is empty"
        )
    runs = []
    for (d, offset), x_power in _subset_x_spectra(grid, max_ds).items():
        try:
            result = discover(subsample_time(grid, d, offset), x_power=x_power)
            runs.append(EnsembleRun(d=d, offset=offset, result=result))
        except WeakbeamError as exc:
            runs.append(EnsembleRun(d=d, offset=offset, error=f"{type(exc).__name__}: {exc}"))
    return aggregate(tuple(runs))


def aggregate(runs: tuple[EnsembleRun, ...]) -> EnsembleResult:
    """Per-term statistics and modal support over successful runs."""
    successes = [r for r in runs if r.ok]
    if not successes:
        detail = "; ".join(
            f"d={r.d} offset={r.offset}: {r.error}" for r in runs[:5]
        )
        raise AggregationError(f"all {len(runs)} ensemble runs failed ({detail} ...)")

    stats: dict[str, TermStats] = {}
    for name in TERM_NAMES:
        values = np.array(
            [r.result.coefficient(name) for r in successes if name in r.result.support]
        )
        if values.size == 0:
            continue
        # the spread of a power-of-two scaled copy, scaled back, is the same
        # bits, and its sum of squares cannot overflow
        e = np.frexp(np.abs(values).max())[1]
        spread = np.std(np.ldexp(values, -e), ddof=1) if values.size > 1 else 0.0
        stats[name] = TermStats(
            n_active=int(values.size),
            mean=float(np.mean(values)),
            median=float(np.median(values)),
            std=float(np.ldexp(spread, e)),
            min=float(np.min(values)),
            max=float(np.max(values)),
        )

    counts = Counter(tuple(sorted(r.result.support)) for r in successes)
    # deterministic mode: highest count, ties broken lexicographically
    modal_count = max(counts.values())
    modal_support = min(s for s, c in counts.items() if c == modal_count)
    return EnsembleResult(
        runs=tuple(runs),
        stats=stats,
        modal_support=modal_support,
        support_agreement=modal_count / len(successes),
    )
