"""Weak-form linear system assembly for PDE discovery.

The field ``w(x, t)`` is tested against separable compactly supported
functions ``psi(x, t) = phi_x(x - x_k) * phi_t(t - t_k)`` centered on a
subgrid of query points, where each 1-d factor is the piecewise
polynomial ``phi(y) = (1 - (y / c)^2)^p`` on ``|y| <= c`` and zero
outside.  Integration by parts moves every derivative in the candidate
library onto the test function, so the data is never differentiated:

    < psi, D w > = (-1)^|D| < D psi, w >

Inner products are discretized with the uniform quadrature weight
``(X / N_x) * (T / N_t)`` and evaluated at the query points only, one
axis at a time: the x-kernels are applied to the ``2 m_x + 1`` rows
around each query x-centre, and the t-kernels to the ``2 m_t + 1``
samples of those few rows around each query t-centre.  Nothing is
summed at a centre that is not queried.  Columns of the resulting matrix ``G``
hold one term each of the fixed library table ``TERMS``; ``b`` holds its
left-hand side ``LHS``, the second time derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import polynomial as poly

from .errors import DegenerateDataError, ParameterError, SelectionError, _require_count
from .grid import FieldGrid, _all_finite

__all__ = [
    "TermSpec",
    "LHS",
    "TERMS",
    "TERM_NAMES",
    "TestFunctionBasis",
    "CornerDiagnostic",
    "WeakSystem",
    "mean_power_spectrum",
    "spectral_corner",
    "select_support",
    "default_query_strides",
    "rescale",
    "assemble",
    "unscale_coefficients",
]

# Hard cap on the polynomial degree parameter; beyond this the profile is
# so narrow that quadrature on integer samples loses accuracy.
P_MAX = 16

# Queries per axis the default stride rule aims for.
_TARGET_QUERIES_PER_AXIS = 44

# cap on corner-refinement passes; every observed case fixes within ~6
_CORNER_MAX_ZOOMS = 32

# Test-function tolerance: the largest spectral magnitude a test function
# may keep at the corner, and the decay at the ends of its support.
_TAU = 1e-9


@dataclass(frozen=True)
class TermSpec:
    """One candidate right-hand-side term: ``w^power`` differentiated."""

    dx_order: int
    dt_order: int
    power: int

    @property
    def name(self) -> str:
        if self.power == 0:
            return "1"
        return "w" + ("_" + "x" * self.dx_order + "t" * self.dt_order
                      if self.dx_order or self.dt_order else "")


# The discovery library: ``w_tt`` regressed onto
# {w_t, w_x, w_xx, w_xxx, w_xxxx, w, 1}, one column of G per term.
LHS = TermSpec(0, 2, 1)
TERMS = (
    TermSpec(0, 1, 1),
    TermSpec(1, 0, 1),
    TermSpec(2, 0, 1),
    TermSpec(3, 0, 1),
    TermSpec(4, 0, 1),
    TermSpec(0, 0, 1),
    TermSpec(0, 0, 0),
)
TERM_NAMES = tuple(t.name for t in TERMS)

# largest (dx, dt) derivative orders over the terms and the lhs
_MAX_DX = max(t.dx_order for t in TERMS + (LHS,))
_MAX_DT = max(t.dt_order for t in TERMS + (LHS,))


@dataclass(frozen=True)
class TestFunctionBasis:
    """Per-axis test function parameters: degree p, half-width m, stride s."""

    p_x: int
    p_t: int
    m_x: int
    m_t: int
    s_x: int = 1
    s_t: int = 1

    def __post_init__(self):
        for name in ("p_x", "p_t", "m_x", "m_t", "s_x", "s_t"):
            _require_count(name, getattr(self, name), 1)


@dataclass(frozen=True)
class CornerDiagnostic:
    """Changepoint of the cumulative log-power spectrum along one axis."""

    corner_bin: int
    n_bins: int

    @property
    def tau_hat(self) -> float:
        """log10(corner_bin), the changepoint abscissa."""
        return math.log10(self.corner_bin)


@lru_cache(maxsize=64)
def _testfn_numerators(p: int, m: int, max_deriv: int) -> np.ndarray:
    """The h-free part of each row of :func:`_testfn_rows`, read-only."""
    u = np.arange(-m, m + 1, dtype=float) / m
    q = np.array([1.0])  # coefficients of Q_r, ascending powers of u
    rows = np.empty((max_deriv + 1, u.size))
    for r in range(max_deriv + 1):
        rows[r] = (1.0 - u * u) ** (p - r) * poly.polyval(u, q)
        if r < max_deriv:
            q = poly.polysub(
                poly.polymul([1.0, 0.0, -1.0], poly.polyder(q)),
                poly.polymul(2.0 * (p - r) * np.array([0.0, 1.0]), q),
            )
    rows.setflags(write=False)
    return rows


def _testfn_rows(p: int, m: int, max_deriv: int, h: float) -> np.ndarray:
    """Derivatives 0 .. max_deriv of the test function ``(1 - (y/c)^2)^p``,
    one per row of a new ``(max_deriv + 1, 2m + 1)`` array.

    The support is ``[-c, c]`` with ``c = m * h``, sampled at ``y_j = j h``
    for ``j = -m .. m``.  Row r is ``(1 - u^2)^(p - r) Q_r(u) / (m h)^r``
    with ``u = y / c`` and ``Q_{r+1} = (1 - u^2) Q_r' - 2 (p - r) u Q_r``,
    so every derivative of order below p vanishes exactly at the ends.
    The numerators do not depend on h; they are built once per
    ``(p, m, max_deriv)`` in a bounded cache and divided by ``(m h)^r``
    on every call, which gives the same bits as building them afresh.
    Arguments are not checked: ``p, m >= 1`` and ``max_deriv <= p``.
    """
    num = _testfn_numerators(p, m, max_deriv)
    return num / np.array([(m * h) ** r for r in range(max_deriv + 1)])[:, None]


def _segment_ssr_prefix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SSR of the best-fit line over each prefix x[:k+1], y[:k+1]."""
    n = np.arange(1, x.size + 1, dtype=float)
    sx = np.cumsum(x)
    sy = np.cumsum(y)
    sxx = np.cumsum(x * x)
    sxy = np.cumsum(x * y)
    syy = np.cumsum(y * y)
    vxx = sxx - sx * sx / n
    vxy = sxy - sx * sy / n
    vyy = syy - sy * sy / n
    with np.errstate(divide="ignore", invalid="ignore"):
        ssr = vyy - np.where(vxx > 0, vxy * vxy / np.maximum(vxx, 1e-300), 0.0)
    return np.maximum(ssr, 0.0)


def _changepoint(y: np.ndarray, hi: int, ssr_left: np.ndarray) -> int:
    """Two-segment line fit over ``y[:hi]`` vs bin index; returns the
    1-based bin of the shared breakpoint (each segment needs >= 2 points).
    A window of 1 or 2 bins has no breakpoint and gives bin 1, which the
    zoom and the peak floor of :func:`spectral_corner` keep.

    ``ssr_left`` is the left-prefix SSR table of all of ``y``: a prefix
    of the window is a prefix of ``y``, so only the right segments'
    suffix SSRs depend on ``hi``."""
    if hi < 3:
        return max(1, hi // 2)
    k = np.arange(hi, 0, -1, dtype=float)
    ssr_right = _segment_ssr_prefix(k, y[hi - 1 :: -1])[::-1]
    total = ssr_left[1 : hi - 1] + ssr_right[1 : hi - 1]
    return int(np.argmin(total)) + 2


def _line_power(grid: FieldGrid, axis: int) -> np.ndarray:
    """Squared real-FFT magnitude of every line of the field along
    ``axis``, for bins 1 .. n // 2 (the mean, bin 0, is dropped), of the
    field as :meth:`FieldGrid.unit_scaled` gives it: that scaling is exact
    and moves every bin by one factor, so the spectrum's shape, and with
    it the corner, does not depend on the field's units, and no bin
    overflows or underflows."""
    values = grid.unit_scaled()[0].values
    bins = (slice(None),) * axis + (slice(1, values.shape[axis] // 2 + 1),)
    return np.abs(np.fft.rfft(values, axis=axis)[bins]) ** 2


def mean_power_spectrum(grid: FieldGrid, axis: int) -> np.ndarray:
    """Squared real-FFT magnitude of the field along ``axis``, averaged
    over the other axis, for bins 1 .. n // 2 (the mean, bin 0, is
    dropped); a field far outside unit scale is first scaled by a power
    of two (:func:`_line_power`)."""
    return _line_power(grid, axis).mean(axis=1 - axis)


def spectral_corner(power: np.ndarray) -> CornerDiagnostic:
    """Locate the knee of a field's mean power spectrum along one axis.

    ``power`` holds bins 1 .. n // 2 of the axis, as
    :func:`mean_power_spectrum` returns them.  The cumulative sum of the
    log-power is fit with two straight lines over bin index, trying every
    admissible changepoint.  Past the signal band the log-power sits on a
    flat noise floor, so its cumulative sum is exactly linear there and
    the changepoint minimizing the total squared residual marks the
    transition.

    A single pass can overshoot badly when the spectrum trails off
    gradually instead of hitting the floor at a cliff: the long floor
    dominates the fit and drags the breakpoint into it.  The fit is
    therefore repeated on the window [1, 2 b] around the previous answer
    until the breakpoint reproduces itself; a sharp knee is its own fixed
    point, while a drawn-out tail collapses onto the curvature maximum.
    Every window starts at bin 1, so one table of left-prefix SSRs over
    [1, n_bins], built once, serves every pass; each pass recomputes only
    the right segments' SSRs over its window.

    Conversely, on spectra with a strong narrowband peak the refinement
    can collapse into the excitation band itself, where noise by
    definition does not dominate.  The corner is therefore floored at two
    octaves above the dominant bin.  ``tau_hat`` reports the final
    abscissa in log10-bin units.
    """
    power = np.asarray(power, dtype=float)
    if power.ndim != 1:
        raise ParameterError(f"power must be a 1-d spectrum, got shape {power.shape}")
    if not _all_finite(power):
        raise ParameterError("power must be finite")
    if power.size == 0 or power.max() <= 0.0:
        raise DegenerateDataError("field has no spectral content along axis")
    n_bins = power.size
    # exact-zero bins (e.g. a masked stopband) get a relative floor so the
    # log stays finite; the cliff itself still dominates the fit
    floored = np.maximum(power, power.max() * 1e-30)
    y = np.cumsum(np.log10(floored))
    k = np.arange(1, n_bins + 1, dtype=float)
    ssr_left = _segment_ssr_prefix(k, y)
    b = _changepoint(y, n_bins, ssr_left)
    seen = {b}
    for _ in range(_CORNER_MAX_ZOOMS):
        b_next = _changepoint(y, min(n_bins, 2 * b), ssr_left)
        if b_next == b or b_next in seen:
            b = b_next
            break
        seen.add(b_next)
        b = b_next
    k_peak = int(np.argmax(power)) + 1
    b = max(b, min(4 * k_peak, n_bins - 1))
    return CornerDiagnostic(b, n_bins)


def _support_for_axis(n: int, corner_bin: int, p_min: int) -> tuple[int, int]:
    """Smallest half-width m whose test function is ``_TAU``-quiet at the corner.

    The spectral magnitude of the profile at scaled frequency
    ``w = 2 pi k m / N`` is modeled by the Gaussian peak approximation
    ``exp(-w^2 / (4 p))``; p itself is tied to m through the decay
    condition ``((2m - 1) / m^2)^p <= _TAU`` (clamped to [p_min, P_MAX]).
    """
    m_min = 3
    m_max = (n - 1) // 2
    if m_max < m_min:
        raise SelectionError(
            f"axis of {n} samples cannot host a support (need >= {2 * m_min + 1})"
        )
    m = np.arange(m_min, m_max + 1, dtype=float)
    p = np.ceil(math.log(_TAU) / np.log((2 * m - 1) / m**2))
    p = np.clip(p, p_min, P_MAX)
    w = 2.0 * math.pi * corner_bin * m / n
    ratio = np.exp(-(w**2) / (4.0 * p))
    ok = np.flatnonzero(ratio <= _TAU)
    idx = int(ok[0]) if ok.size else m.size - 1
    return int(m[idx]), int(p[idx])


def default_query_strides(n_x: int, n_t: int, m_x: int, m_t: int) -> tuple[int, int]:
    """Pick query strides giving roughly 44 centers per axis of an
    ``n_x`` by ``n_t`` grid under support half-widths ``m_x`` and ``m_t``.

    Each axis' stride is ``max(1, round(interior / 44))``.  A stride of 2
    or more needs an interior of at least 66 centers and leaves at least
    33 of them as query centers, so the grid then has the ``2 * len(TERMS)``
    query points the fit needs (two rows per column of :data:`TERMS`)
    as long as ``2 * len(TERMS) <= 33``.  Only unit strides on both axes
    can fall short, and then :class:`SelectionError` is raised, as it is
    for a support that leaves an axis no interior (x checked first).
    """
    strides, total = [], 1
    for n, m in ((n_x, m_x), (n_t, m_t)):
        interior = n - 2 * m
        if interior < 1:
            raise SelectionError(f"support half-width {m} leaves no interior on {n} samples")
        stride = max(1, int(round(interior / _TARGET_QUERIES_PER_AXIS)))
        strides.append(stride)
        total *= (interior - 1) // stride + 1
    min_rows = 2 * len(TERMS)
    if total < min_rows:
        raise SelectionError(f"only {total} query points available, need {min_rows}")
    return strides[0], strides[1]


def select_support(grid: FieldGrid, corner_bins: tuple[int, int]) -> TestFunctionBasis:
    """Choose test function degree, half-widths, and strides from the data,
    for the library table :data:`TERMS` and its lhs :data:`LHS`.

    ``corner_bins`` holds the corner frequency bin of each axis, (x, t),
    as :func:`spectral_corner` reports it; the support half-width is the
    smallest m whose test function spectrum has decayed below
    ``_TAU = 1e-9`` at the corner, and the degree p follows from the same
    tolerance through the endpoint decay condition.
    """
    if len(corner_bins) != 2 or min(corner_bins) < 1:
        raise ParameterError(f"corner_bins must be two positive bins, got {corner_bins}")
    m_x, p_x = _support_for_axis(grid.n_x, corner_bins[0], _MAX_DX + 1)
    m_t, p_t = _support_for_axis(grid.n_t, corner_bins[1], _MAX_DT + 1)
    s_x, s_t = default_query_strides(grid.n_x, grid.n_t, m_x, m_t)
    return TestFunctionBasis(p_x=p_x, p_t=p_t, m_x=m_x, m_t=m_t, s_x=s_x, s_t=s_t)


def rescale(grid: FieldGrid, basis: TestFunctionBasis) -> tuple[float, float, float]:
    """Scale factors (gamma_w, gamma_x, gamma_t) for conditioning.

    gamma_w normalizes the field to unit peak magnitude; gamma_x and
    gamma_t normalize each test function half-support to unit length.
    """
    if grid.peak == 0.0:
        raise DegenerateDataError("cannot rescale an identically zero field")
    return 1.0 / grid.peak, 1.0 / (basis.m_x * grid.dx), 1.0 / (basis.m_t * grid.dt)


@dataclass(frozen=True)
class WeakSystem:
    """Assembled weak-form regression system ``b ~ G c``.

    G and b live on the scaled data (gamma factors applied); coefficients
    solved from them must pass through :func:`unscale_coefficients` to
    refer to the original units.
    """

    G: np.ndarray
    b: np.ndarray
    query_points: np.ndarray  # (K, 2) integer grid indices
    basis: TestFunctionBasis
    gamma_w: float
    gamma_x: float
    gamma_t: float

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if G.ndim != 2 or b.ndim != 1 or G.shape[0] != b.size:
            raise ParameterError("G must be (K, J) with b of length K")
        if G.shape[1] != len(TERMS):
            raise ParameterError("G column count must match the library")
        if not (np.all(np.isfinite(G)) and np.all(np.isfinite(b))):
            raise ParameterError("assembled system contains non-finite entries")

    @property
    def n_queries(self) -> int:
        return self.G.shape[0]

    @cached_property
    def condition_number(self) -> float:
        return float(np.linalg.cond(self.G))


def assemble(
    grid: FieldGrid,
    basis: TestFunctionBasis,
    scales: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> WeakSystem:
    """Build the weak-form system of the library table at the query points.

    The query points are the strided grid of every ``s_x``-th x-centre
    and ``s_t``-th t-centre whose support lies inside the field, listed
    x-major.

    Column j of G belongs to ``TERMS[j]`` and b to :data:`LHS`; each is
    the discrete inner product of the field term with the appropriately
    differentiated test function at every query point, carrying the
    integration-by-parts sign ``(-1)^(dx + dt)``.

    x stage: the x-kernels of the ``#dx`` spatial orders, stacked into
    one ``(#dx, 2 m_x + 1)`` matrix and scaled by ``gamma_w``, multiply
    the field rows under each of the ``n_qx`` query x-centres,
    at ``O(n_qx * (2 m_x + 1) * n_t)`` per order.  t stage: for each live
    term, the window of ``2 m_t + 1`` samples from ``ts - m_t`` of its
    x-stage row, one per query t-centre ``ts`` (a strided view, not a
    copy), times the t-kernel of the term's temporal order, at
    ``O(n_qx * n_qt * (2 m_t + 1))`` per term.  The constant term is the
    product of the kernel sums.  This is direct summation over each
    support window, factored by axis.

    ``scales = (gamma_w, gamma_x, gamma_t)`` multiplies the field and the
    axes before assembly; pass :func:`rescale` output for conditioning,
    or leave the default for raw units.
    """
    gw, gx, gt = scales
    if gw <= 0 or gx <= 0 or gt <= 0:
        raise ParameterError(f"scale factors must be positive, got {scales}")
    if basis.p_x < _MAX_DX + 1:
        raise ParameterError(
            f"p_x={basis.p_x} too low for spatial order {_MAX_DX} (need >= {_MAX_DX + 1})"
        )
    if basis.p_t < _MAX_DT + 1:
        raise ParameterError(
            f"p_t={basis.p_t} too low for temporal order {_MAX_DT} (need >= {_MAX_DT + 1})"
        )
    n_x, n_t = grid.n_x, grid.n_t
    m_x, m_t = basis.m_x, basis.m_t
    if 2 * m_x + 1 > n_x or 2 * m_t + 1 > n_t:
        raise ParameterError(
            f"support ({2 * m_x + 1} x {2 * m_t + 1}) exceeds grid ({n_x} x {n_t})"
        )

    xs = np.arange(m_x, n_x - m_x, basis.s_x)
    ts = np.arange(m_t, n_t - m_t, basis.s_t)

    hx, ht = gx * grid.dx, gt * grid.dt
    weight = (gx * grid.x_extent / n_x) * (gt * grid.t_extent / n_t)
    kx = _testfn_rows(basis.p_x, m_x, _MAX_DX, hx)
    kt = _testfn_rows(basis.p_t, m_t, _MAX_DT, ht)

    # x stage: one product per query x-centre; gamma_w scales the kernel
    # rows, not a copy of the field
    live = [t for t in TERMS + (LHS,) if t.power == 1]
    dx_orders = sorted({t.dx_order for t in live})
    kx_live = gw * kx[dx_orders]
    xrows = np.empty((xs.size, len(dx_orders), n_t))
    for r, c in enumerate(xs):
        xrows[r] = kx_live @ grid.values[c - m_x : c + m_x + 1]

    # t stage: a view of the 2 m_t + 1 samples from ts - m_t of every
    # x-stage row, one window per query t-centre; each term multiplies its
    # row's windows by the t-kernel of its dt order
    windows = sliding_window_view(xrows, 2 * m_t + 1, axis=-1)[:, :, :: basis.s_t]

    def column(term: TermSpec) -> np.ndarray:
        sign = -1.0 if (term.dx_order + term.dt_order) % 2 else 1.0
        if term.power == 0:
            return np.full(xs.size * ts.size, sign * weight * (kx[0].sum() * kt[0].sum()))
        rows = windows[:, dx_orders.index(term.dx_order)]
        return sign * weight * (rows @ kt[term.dt_order]).ravel()

    G = np.column_stack([column(t) for t in TERMS])
    return WeakSystem(
        G=G,
        b=column(LHS),
        query_points=np.column_stack([np.repeat(xs, ts.size), np.tile(ts, xs.size)]),
        basis=basis,
        gamma_w=gw,
        gamma_x=gx,
        gamma_t=gt,
    )


def unscale_coefficients(system: WeakSystem, c_scaled: np.ndarray) -> np.ndarray:
    """Map coefficients of the scaled system back to original units.

    Exact inverse of the column scaling induced by the gamma factors:
    relative to the lhs term, each candidate coefficient picks up
    ``gamma_w^(q - q_lhs) * gamma_x^(i_lhs - i) * gamma_t^(k_lhs - k)``.
    The powers are NumPy floats, so none raises.  An active term whose
    coefficient, factor or any of the factor's three powers is not a
    finite normal float comes out NaN: its value cannot be written in
    the data's units.  An inactive term stays 0.0.
    """
    c_scaled = np.asarray(c_scaled, dtype=float)
    if c_scaled.shape != (len(TERMS),):
        raise ParameterError("coefficient vector length must match the library")
    exponents = [
        (t.power - LHS.power, LHS.dx_order - t.dx_order, LHS.dt_order - t.dt_order)
        for t in TERMS
    ]
    gammas = np.array([system.gamma_w, system.gamma_x, system.gamma_t])
    with np.errstate(all="ignore"):
        powers = np.array([[g**k for g, k in zip(gammas, ks)] for ks in exponents])
        factors = powers[:, 0] * powers[:, 1] * powers[:, 2]
        out = c_scaled * np.where(c_scaled == 0.0, 0.0, factors)
    parts = np.column_stack([powers, factors, out])
    normal = np.all(np.isfinite(parts) & (np.abs(parts) >= np.finfo(float).tiny), axis=1)
    return np.where((c_scaled == 0.0) | normal, out, np.nan)
