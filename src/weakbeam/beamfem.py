"""Euler-Bernoulli beam FEM: Hermite elements, Newmark time stepping,
boundary-history extraction, and measured-vs-simulated comparison.

Each node carries two dofs (deflection w, rotation w_x); cubic Hermite
shape functions give the classical 4x4 element stiffness and consistent
mass matrices.  Measured fields drive the model through their two edge
columns: deflections are taken raw, rotations come from a truncated
Fourier fit over the near-edge samples, and accelerations from second
differences in time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateDataError, DimensionError, ParameterError, _allocate
from .errors import _require_count, _require_pair, _require_positive
from .grid import FieldGrid, _all_finite, _check_axis, _window_columns
from .material import BeamModel
from .weakform import mean_power_spectrum

__all__ = [
    "FemMesh",
    "BoundaryHistory",
    "SimulationResult",
    "SweepResult",
    "assemble_matrices",
    "extract_boundaries",
    "newmark_march",
    "newmark_solve",
    "compare",
    "simulate_measured",
    "sweep_modulus",
]

# Hermite elements couple dofs of adjacent nodes only: |i - j| <= 3.
_HALF_BANDWIDTH = 3

# Bytes that the modal replay gives one chunk of steps: the trials' modal
# loads and deflections and their rebuilt interior fields.  On 195- and
# 400-point rods, 1 MiB ran 10-30 % slower and 16 MiB raised peak RSS.
_SWEEP_CHUNK_BYTES = 4 << 20

# extract_boundaries fits this many samples nearest each edge with a
# Fourier series of this order, each capped by the field's size
_EDGE_FIT_SAMPLES = 25
_EDGE_FIT_ORDER = 3

# The Hermite element tables with rotations in units of dx: the element
# stiffness is EI / dx^3 * _K_HAT and the consistent mass rho A dx / 420 *
# _M_HAT, where entry (i, j) takes a factor dx for each rotation dof among
# i and j, which _DX_POWER counts.
_K_HAT = np.array([[12, 6, -12, 6], [6, 4, -6, 2], [-12, -6, 12, -6], [6, 2, -6, 4]])
_M_HAT = np.array(
    [[156, 22, 54, -13], [22, 4, 13, -3], [54, 13, 156, -22], [-13, -3, -22, 4]]
)
_DX_POWER = np.add.outer([0, 1, 0, 1], [0, 1, 0, 1])


@dataclass(frozen=True)
class FemMesh:
    """Uniform 1-d mesh of two-node Hermite beam elements."""

    n_elements: int
    dx: float

    def __post_init__(self):
        _require_count("n_elements", self.n_elements, 2)
        _require_positive("dx", self.dx)
        # the element matrices scale as dx**-3 .. dx**3: both must be finite and positive
        with np.errstate(all="ignore"):
            powers = np.float64(self.dx) ** np.array([-3.0, 3.0])
        if not np.all((powers > 0) & (powers < np.inf)):
            raise ParameterError(f"the element matrices leave the float range at dx = {self.dx:g}")
        try:
            finite = self.length < np.inf
        except OverflowError:  # an element count past the float range
            finite = False
        if not finite:
            raise ParameterError(
                f"the mesh's length, n_elements * dx, leaves the float range at dx = {self.dx:g}"
            )

    @property
    def n_nodes(self) -> int:
        return self.n_elements + 1

    @property
    def n_dof(self) -> int:
        return 2 * self.n_nodes

    @property
    def length(self) -> float:
        return self.n_elements * self.dx

    @property
    def node_positions(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.dx


def _element_matrices(mesh: FemMesh, beam: BeamModel):
    """4x4 Hermite consistent mass and (EI-scaled) stiffness of one element."""
    stiffness = beam.require_modulus() * beam.section.second_moment
    mass = beam.density * beam.section.area
    ell = mesh.dx
    powers = np.array([1.0, ell, ell**2])[_DX_POWER]
    k = stiffness / ell**3 * (_K_HAT * powers)
    m = mass * ell / 420.0 * (_M_HAT * powers)
    return m, k


def _dt_squared(dt: float) -> float:
    """``dt**2``, as the Newmark rule and the edge accelerations use it; a
    square that is not a finite normal float (dt outside about
    [1.5e-154, 1.3e154]) raises :class:`DegenerateDataError` naming dt."""
    with np.errstate(over="ignore", under="ignore"):
        dt2 = float(np.float64(dt) ** 2)
    if not np.finfo(float).tiny <= dt2 < np.inf:
        raise DegenerateDataError(
            f"time step dt = {dt:g} is outside the replay's range: dt**2 is {dt2:g}"
        )
    return dt2


def _finite(compute, message: str):
    """``compute()``, with NumPy's overflow and invalid warnings off; a value
    that is not all finite raises :class:`DegenerateDataError` with
    ``message``.  The FEM's one float-range guard."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = compute()
    if not _all_finite(np.asarray(value)):
        raise DegenerateDataError(message)
    return value


def _at(mesh: FemMesh, bc: BoundaryHistory) -> str:
    """The ending of a replay's range error: the grid that met it."""
    return f" at spacing dx = {mesh.dx:g} and time step dt = {bc.dt:g}"


def _element_dofs(mesh: FemMesh) -> np.ndarray:
    """``(n_elements, 4)`` global dofs of each element's local ones: element
    e puts its local dof i on global dof 2e + i."""
    return 2 * np.arange(mesh.n_elements)[:, None] + np.arange(4)


def assemble_matrices(mesh: FemMesh, beam: BeamModel) -> tuple[np.ndarray, np.ndarray]:
    """(M, K) global consistent mass and stiffness in LAPACK upper banded
    storage, shape ``(_HALF_BANDWIDTH + 1, n_dof)``.

    Entry ``(i, j)`` with ``i <= j <= i + _HALF_BANDWIDTH`` sits at
    ``[_HALF_BANDWIDTH + i - j, j]``; the top-left triangle of the band,
    which LAPACK and BLAS never read, is zero.  A mesh NumPy cannot hold
    raises :class:`ParameterError`.
    """
    me, ke = _element_matrices(mesh, beam)
    M = _allocate(
        lambda: np.zeros((_HALF_BANDWIDTH + 1, mesh.n_dof)),
        f"a mesh of {mesh.n_elements} elements",
    )
    K = np.zeros_like(M)
    dofs = _element_dofs(mesh)
    for i in range(4):
        for j in range(i, 4):
            row, cols = _HALF_BANDWIDTH + i - j, dofs[:, j]
            M[row, cols] += me[i, j]
            K[row, cols] += ke[i, j]
    return M, K


@dataclass(frozen=True)
class BoundaryHistory:
    """Prescribed edge motion: deflections and rotations over ``t``.

    ``displacement`` holds finite values, one row per sample of ``t`` and
    one column per boundary dof, ordered as the mesh numbers them: left w,
    left w_x, then right w, right w_x.  Two columns mean the far end is free.
    ``t`` obeys the axis rule of :class:`FieldGrid`.
    """

    t: np.ndarray
    displacement: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        _check_axis("t", t)
        if t.size < 4:
            raise ParameterError("boundary history needs >= 4 time samples")
        d = np.asarray(self.displacement, dtype=float)
        if d.shape not in ((t.size, 2), (t.size, 4)):
            raise ParameterError(
                f"displacement must be ({t.size}, 2) or ({t.size}, 4), got {d.shape}"
            )
        if not _all_finite(d):
            raise ParameterError("displacement must be finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "displacement", d)

    @cached_property
    def acceleration(self) -> np.ndarray:
        """Second time differences of ``displacement``: centered inside,
        one-sided second order at the first and last samples.  A time step
        whose square is not a finite normal float raises
        :class:`DegenerateDataError`."""
        d, dt2 = self.displacement, _dt_squared(self.dt)
        out = np.empty(d.shape)
        out[1:-1] = (d[2:] - 2.0 * d[1:-1] + d[:-2]) / dt2
        out[0] = (2.0 * d[0] - 5.0 * d[1] + 4.0 * d[2] - d[3]) / dt2
        out[-1] = (2.0 * d[-1] - 5.0 * d[-2] + 4.0 * d[-3] - d[-4]) / dt2
        return out

    @property
    def free_right(self) -> bool:
        return self.displacement.shape[1] == 2

    @property
    def dt(self) -> float:
        return float((self.t[-1] - self.t[0]) / (self.t.size - 1))


def extract_boundaries(data: FieldGrid) -> BoundaryHistory:
    """Edge deflections, rotations, and accelerations from a measured field.

    Deflections are the raw first/last spatial samples.  Rotations come
    from differentiating a least-squares fit of
    ``a0 + sum_k a_k cos(k w0 xi) + b_k sin(k w0 xi)`` (``k = 1..order``)
    over the ``n_edge`` samples nearest each edge.  The fit sizes itself
    from the field: ``n_edge = min(25, n_x)`` and ``order = min(3,
    (n_edge - 1) // 2)``, so it never has more coefficients than samples;
    a field with fewer than 3 x-samples raises :class:`ParameterError`.
    Accelerations are second differences in time.

    The fundamental ``w0`` (rad per unit length) is taken from the
    dominant bin of the spatial power spectrum, so the basis resolves the
    wavelength actually present in the data.  Tying ``w0`` to the fit
    window instead makes the basis periodic across the window, and the
    mismatch between the two window ends then leaks into the edge
    derivative at scale ``w0`` — orders of magnitude above the true
    rotation for smooth long-wavelength fields.
    """
    if data.n_x < 3:
        raise ParameterError(f"the edge fit needs >= 3 spatial samples, got {data.n_x}")
    n_edge = min(_EDGE_FIT_SAMPLES, data.n_x)
    order = min(_EDGE_FIT_ORDER, (n_edge - 1) // 2)
    dx = data.dx
    power = mean_power_spectrum(data, 0)
    k_peak = int(np.argmax(power)) + 1 if power.size and power.max() > 0 else 1
    w0 = 2.0 * np.pi * k_peak / (data.n_x * dx)
    xi = np.arange(n_edge) * dx
    ks = np.arange(1, order + 1)
    design = np.hstack(
        [
            np.ones((n_edge, 1)),
            np.cos(np.outer(xi, ks * w0)),
            np.sin(np.outer(xi, ks * w0)),
        ]
    )
    pinv = np.linalg.pinv(design)

    def slope_row(xi_star: float) -> np.ndarray:
        return np.concatenate(
            [
                [0.0],
                -ks * w0 * np.sin(ks * w0 * xi_star),
                ks * w0 * np.cos(ks * w0 * xi_star),
            ]
        )

    left_coeff = pinv @ data.values[:n_edge, :]
    right_coeff = pinv @ data.values[-n_edge:, :]
    left_rot = slope_row(0.0) @ left_coeff
    right_rot = slope_row(xi[-1]) @ right_coeff
    return BoundaryHistory(
        data.t, np.column_stack([data.values[0], left_rot, data.values[-1], right_rot])
    )


def cholesky_banded(ab: np.ndarray) -> np.ndarray:
    """SciPy's upper banded Cholesky factor of ``ab``.

    ``scipy.linalg`` is imported on the first call, not with the package:
    it is slow to load and only :func:`newmark_march` needs it.
    """
    from scipy.linalg import cholesky_banded as factor

    return factor(ab)


def _check_info(info: int) -> None:
    """Raise on a nonzero ``dpbtrs`` status: only an illegal argument,
    i.e. a bug here, sets it."""
    if info != 0:
        raise ValueError(f"dpbtrs: illegal value in argument {-info}")


def newmark_march(
    M: np.ndarray,
    K: np.ndarray,
    forces: np.ndarray,
    dt: float,
    d0: np.ndarray | None = None,
    v0: np.ndarray | None = None,
    record: slice = slice(None),
    loaded: np.ndarray | None = None,
) -> np.ndarray:
    """Integrate ``M a + K d = f(t)`` with the average-acceleration rule,
    Newmark's ``beta = 1/4``, ``gamma = 1/2``: the unconditionally stable,
    non-dissipative member of the family.

    ``M`` and ``K`` are symmetric, in the upper banded storage that
    :func:`assemble_matrices` returns.  ``forces`` has one row per time
    step (including step 0) and one column per dof that ``loaded``
    names, an array of distinct dof indices (default ``None``: every
    dof).  Every other dof is unloaded, so only the loaded columns
    need be stored.  ``d0`` and ``v0``, the initial state (default:
    rest), have one entry per dof.  Returns the displacement history of
    the dofs ``record`` selects (default: all), shape
    ``(n_steps + 1, len(range(n_dof)[record]))``; no velocity history is
    kept.  Every dof is marched whatever ``record`` is, so the recorded
    columns equal the full history's ``[:, record]`` bit for bit, and
    loads given as columns march bit for bit like their dense scatter.
    For undamped linear systems the discrete energy
    ``(v' M v + d' K d) / 2`` is conserved up to round-off.  A ``dt``
    whose square is not a finite normal float, or an ``M + dt**2/4 K``
    that overflows, raises :class:`DegenerateDataError` naming dt.

    One step costs a scatter of the loaded columns into one zeroed load
    vector, one banded product (BLAS ``dsbmv``, which adds into a copy of
    that vector), one banded solve with the factor of ``M + q K`` (LAPACK
    ``dpbtrs``, in place on the product; ``q = dt**2 / 4``) and the
    in-place update of :func:`_newmark_step`; nothing but the product is
    allocated.
    """
    forces = np.asarray(forces, dtype=float)
    if forces.ndim != 2 or forces.shape[0] < 1:
        raise ParameterError("forces must be (n_steps + 1, n_loaded) with n_steps >= 0")
    n_steps = forces.shape[0] - 1
    n = np.shape(M)[-1] if np.ndim(M) else 0
    band = (_HALF_BANDWIDTH + 1, n)
    if np.shape(M) != band or np.shape(K) != band:
        raise ParameterError(f"M and K must be banded {band}, got {np.shape(M)}, {np.shape(K)}")
    _require_positive("dt", dt)
    if not isinstance(record, slice):
        raise ParameterError(f"record must be a slice of dofs, got {type(record).__name__}")
    loaded = np.arange(n) if loaded is None else np.asarray(loaded)
    if not (
        loaded.ndim == 1
        and loaded.dtype.kind in "iu"
        and np.all((0 <= loaded) & (loaded < n))
        and np.unique(loaded).size == loaded.size
    ):
        raise ParameterError(f"loaded must be distinct dofs in 0 .. {n - 1}, got {loaded}")
    if forces.shape[1] != loaded.size:
        raise ParameterError(
            f"forces must have one column per loaded dof ({loaded.size}), got {forces.shape[1]}"
        )
    d = np.zeros(n) if d0 is None else np.asarray(d0, dtype=float)
    v = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float)
    if d.shape != (n,) or v.shape != (n,):
        raise ParameterError(f"d0 and v0 must have shape ({n},), got {d.shape}, {v.shape}")
    # the per-step solves skip SciPy's finiteness scan, so check once here
    if not all(_all_finite(x) for x in (forces, d, v)):
        raise ParameterError("forces, d0 and v0 must be finite")

    from scipy.linalg.blas import dsbmv
    from scipy.linalg.lapack import dpbtrs

    K = np.asfortranarray(K, dtype=float)  # dsbmv would copy it every step
    dt2 = _dt_squared(dt)
    q = 0.25 * dt2
    effective = _finite(lambda: M + q * K, f"M + dt**2/4 K overflows at time step dt = {dt:g}")
    mass = cholesky_banded(M)
    effective = cholesky_banded(effective)
    # zero off the loaded dofs for good: dsbmv adds into a copy of its y
    f = np.zeros(n)
    f[loaded] = forces[0]
    a, info = dpbtrs(mass, f - dsbmv(_HALF_BANDWIDTH, 1.0, K, d))
    _check_info(info)

    d_hist = np.empty((n_steps + 1, len(range(n)[record])))
    d_hist[0] = d[record]
    p = d + dt * v + q * a
    s = dt * v + 0.5 * dt2 * a
    for k in range(n_steps):
        f[loaded] = forces[k + 1]
        # a' = (M + q K)^-1 (f' - K p), solved in place on the product
        a, info = dpbtrs(
            effective,
            dsbmv(_HALF_BANDWIDTH, -1.0, K, p, beta=1.0, y=f),
            overwrite_b=1,
        )
        _check_info(info)
        _newmark_step(a, p, s, d_hist[k + 1], q, dt2, record)
    return d_hist


def _newmark_step(a, p, s, d, q, dt2, record=slice(None)):
    """One average-acceleration step, in place, given the new acceleration
    ``a``: the predictor ``p = d + dt v + q a`` (``q = dt2 / 4``) and its
    increment ``s = dt v + dt2 a / 2`` give ``d' = p + q a'``, written into
    ``d`` on the entries ``record`` selects, ``s' = s + dt2 a'`` and
    ``p' = p + s'``; ``a`` is left scaled by ``dt2``."""
    np.multiply(a[record], q, out=d)
    d += p[record]
    a *= dt2
    s += a
    p += s


def _edge_loads(bc: BoundaryHistory, me: np.ndarray, ke: np.ndarray, n_inner: int):
    """``(loaded, f_mass, f_stiff)``: the interior dofs that the prescribed
    ends load, and the mass and stiffness parts ``-M_ib a_b`` and
    ``-K_ib d_b`` of their load columns, from the element blocks ``me``
    and ``ke``; the loads are ``f_mass + f_stiff``.

    Each prescribed end belongs to one element, so it loads only the two
    interior dofs next to it, through that element's off-diagonal block:
    the first and the last two loaded columns, one pair on two elements,
    where both ends load the same dofs and sum there.
    """
    loaded = np.unique([0, 1] if bc.free_right else [0, 1, n_inner - 2, n_inner - 1])
    parts = []
    for history, block in ((bc.acceleration, me), (bc.displacement, ke)):
        part = np.zeros((bc.t.size, loaded.size))
        part[:, :2] -= history[:, :2] @ block[:2, 2:]
        if not bc.free_right:
            part[:, -2:] -= history[:, 2:] @ block[2:, :2]
        parts.append(part)
    return loaded, *parts


def newmark_solve(
    mesh: FemMesh,
    beam: BeamModel,
    bc: BoundaryHistory,
    n_nodes: int | None = None,
) -> FieldGrid:
    """Simulate the beam driven by prescribed edge motion, from rest.

    The boundary dofs follow ``bc`` exactly; interior dofs obey the
    semidiscrete equations with the prescribed motion moved to the load:
    ``f_i = -M_ib a_b - K_ib d_b``.  Only the interior dofs next to a
    prescribed end are loaded, so the march is given just those load
    columns (its ``loaded`` dofs): two for a free far end, four when both
    ends are prescribed, and two on a two-element mesh, whose ends load
    the same dofs and sum there.  Returns the deflection field over
    ``bc.t`` on the leading ``n_nodes`` mesh nodes (default: all), shape
    ``(n_nodes, bc.t.size)``.  The whole mesh is marched either way, but
    only those nodes' deflections are recorded, so the rows equal the
    leading rows of the full field bit for bit.  A stiffness, mass, loads
    or deflections that are not finite (extreme spacings, densities or time
    steps overflow them) raise :class:`DegenerateDataError`.
    """
    if n_nodes is None:
        n_nodes = mesh.n_nodes
    _require_count("n_nodes", n_nodes, 1, mesh.n_nodes)
    # the interior dofs are contiguous: all but the first node's, and the
    # last node's unless the far end is free
    n_inner = mesh.n_dof - bc.displacement.shape[1]
    inner = slice(2, 2 + n_inner)
    # interior deflections are the even interior dofs, on nodes 1 .. n_inner/2;
    # record those of the nodes returned
    n_recorded = min(n_nodes - 1, n_inner // 2)
    message = "the simulated deflections are not finite" + _at(mesh, bc)

    def march():
        M, K = assemble_matrices(mesh, beam)
        loaded, f_mass, f_stiff = _edge_loads(bc, *_element_matrices(mesh, beam), n_inner)
        # the march would refuse a stiffness, mass or loads past the float
        # range with an error of its own, blaming dt
        _finite(lambda: K, message)
        _finite(lambda: M, (
            f"the consistent mass overflows at density rho = {beam.density:g}, "
            f"area A = {beam.section.area:g} and spacing dx = {mesh.dx:g}"
        ))
        forces = _finite(lambda: f_mass + f_stiff, message)
        record = slice(0, 2 * n_recorded, 2)
        return newmark_march(M[:, inner], K[:, inner], forces, bc.dt, record=record, loaded=loaded)

    w_hist = _finite(march, message)

    deflection = np.empty((n_nodes, bc.t.size))
    deflection[1 : 1 + n_recorded] = w_hist.T
    deflection[0] = bc.displacement[:, 0]
    if n_recorded < n_nodes - 1:  # the prescribed far end is returned too
        deflection[-1] = bc.displacement[:, 2]
    return FieldGrid(mesh.node_positions[:n_nodes], bc.t, deflection)


def compare(measured: FieldGrid, simulated: FieldGrid) -> float:
    """Relative Frobenius error of a simulation; one that is not finite
    raises :class:`DegenerateDataError`."""
    if measured.values.shape != simulated.values.shape:
        raise DimensionError(
            f"shape mismatch: {measured.values.shape} vs {simulated.values.shape}"
        )
    for a, b in ((measured.x, simulated.x), (measured.t, simulated.t)):
        scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
        if not np.allclose(a, b, rtol=0.0, atol=1e-9 * scale):
            raise DimensionError("fields are not sampled on the same grid")
    denom = float(np.linalg.norm(measured.values))
    if denom == 0.0:
        raise DegenerateDataError("measured field is identically zero")
    # a simulation far larger than the data overflows the sum of squares
    return _finite(
        lambda: float(np.linalg.norm(measured.values - simulated.values) / denom),
        "the simulation error is not finite",
    )


def _replay_setup(data: FieldGrid, window: tuple[float, float] | None):
    """Both replays' set-up, checks first: the field scaled by ``2^-e``
    (:meth:`FieldGrid.unit_scaled`), ``e``, its columns inside ``window``,
    their norm, which must not be 0, a mesh of one element per sample gap,
    and the edge history."""
    data, e = data.unit_scaled()
    cols = slice(None) if window is None else _window_columns(data.t, *window)
    norm = float(np.linalg.norm(data.values[:, cols]))
    if norm == 0.0:
        raise DegenerateDataError("measured field is identically zero")
    mesh = FemMesh(data.n_x - 1, data.dx)
    return data, e, cols, norm, mesh, extract_boundaries(data)


@dataclass(frozen=True)
class SimulationResult:
    field: FieldGrid
    frobenius_rel: float


def simulate_measured(
    data: FieldGrid,
    beam: BeamModel,
    window: tuple[float, float] | None = None,
) -> SimulationResult:
    """Drive a mesh matching the data grid by its own edges and compare.

    One element per sample gap, so nodes coincide with measurement
    points, and the simulated field is returned on the data's own ``x``
    and ``t``, wherever its x axis starts.  If ``window`` is given, both
    fields are restricted to it before comparison (the simulation always
    starts from rest at the data's first sample); a bad window, or one
    of zeros, fails before the march.  The error is :func:`compare`'s,
    over the norm the set-up took; one that is not finite raises
    :class:`DegenerateDataError` naming the grid.  A field far from unit
    scale is replayed times a power of two (:meth:`FieldGrid.unit_scaled`)
    and its simulation scaled back, so the error does not depend on the
    field's units.
    """
    data, e, cols, norm, mesh, bc = _replay_setup(data, window)
    sim = newmark_solve(mesh, beam, bc).values[:, cols]
    # a simulation far larger than the data overflows the sum of squares
    error = _finite(
        lambda: float(np.linalg.norm(data.values[:, cols] - sim) / norm),
        "the simulation error is not finite" + _at(mesh, bc),
    )
    if e:
        message = "the simulated deflections overflow the data's units"
        sim = _finite(lambda: np.ldexp(sim, e), message)
    return SimulationResult(field=FieldGrid(data.x, data.t[cols], sim), frobenius_rel=error)


@dataclass(frozen=True)
class SweepResult:
    moduli: np.ndarray
    errors: np.ndarray

    @property
    def best_modulus(self) -> float:
        return float(self.moduli[np.argmin(self.errors)])

    @property
    def best_error(self) -> float:
        return float(self.errors.min())

    @property
    def bracketed(self) -> bool:
        """Whether the smallest error lies strictly inside the grid: an
        optimum at either end may lie past it."""
        return 0 < int(np.argmin(self.errors)) < len(self.errors) - 1

    def as_report(self) -> dict:
        """JSON-ready summary: every trial, the best one, and whether it is bracketed."""
        return {
            "moduli": self.moduli.tolist(),
            "errors": self.errors.tolist(),
            "best_modulus": self.best_modulus,
            "best_error": self.best_error,
            "bracketed": self.bracketed,
        }


def sweep_modulus(
    data: FieldGrid,
    beam: BeamModel,
    e_lo: float,
    e_hi: float,
    n_values: int,
    window: tuple[float, float] | None = None,
) -> SweepResult:
    """Forward-simulation error over a linear grid of trial moduli.

    Each error is :func:`simulate_measured`'s ``frobenius_rel`` at that
    modulus, on the same scaled field (:meth:`FieldGrid.unit_scaled`), but what does
    not depend on E is done once per sweep: the window check, the edges,
    the edge loads split as ``f(E) = f_M + E f_K``, and the modes
    ``K_1 Phi = M Phi Lambda`` with ``Phi' M Phi = I`` of the interior
    ``M`` and ``K_1`` at E = 1, from two half-size eigensolves, one per
    mirror parity (:func:`_modal_basis`).  As ``K = E K_1``, the
    average-acceleration rule is diagonal in that basis, so one step loop
    marches every trial and mode at once (:func:`_march_modes`).  Chunk by
    chunk of steps inside the window, each parity's modes rebuild every
    trial's deflections in that parity's mirror coordinates
    (:func:`_mirror_split`), where they meet the measured rows' own; the
    edge rows are the data's own and add no error.
    Cost: two O((n_dof / 2)^3) eigensolves, then O(n_x n_dof / 2) per
    trial-step.
    The trial grid is built first, so a count NumPy cannot hold raises
    :class:`ParameterError` before any of that work.  A failed eigensolve,
    or a modal rate ``lam``, a stiffest ``q E lam`` (q = dt**2 / 4) or an
    error that is not finite (they overflow the float range on very fine
    spacings or long time steps), raises :class:`DegenerateDataError`.
    """
    moduli = _trial_moduli(e_lo, e_hi, n_values)
    return SweepResult(moduli=moduli, errors=_replay_errors(data, beam, moduli, window))


def _trial_moduli(e_lo: float, e_hi: float, n_values: int) -> np.ndarray:
    """:func:`sweep_modulus`'s linear grid of trial moduli, checks first; a
    count NumPy cannot hold raises :class:`ParameterError`."""
    _require_pair("e_lo, e_hi", (e_lo, e_hi))
    _require_count("n_values", n_values, 2)
    return _allocate(lambda: np.linspace(e_lo, e_hi, n_values), f"{n_values} trial moduli")


def _replay_errors(
    data: FieldGrid,
    beam: BeamModel,
    moduli: np.ndarray,
    window: tuple[float, float] | None,
) -> np.ndarray:
    """The replay error at each of ``moduli`` (positive, in any order), in
    one modal march, as :func:`sweep_modulus` describes; ``beam``'s own
    modulus is not read.  Each is :func:`simulate_measured`'s
    ``frobenius_rel`` at that modulus to the two marches' rounding."""
    data, _, cols, norm, mesh, bc = _replay_setup(data, window)
    start, stop, _ = cols.indices(data.n_t)
    unit = replace(beam, youngs_modulus=1.0)
    n_inner = mesh.n_dof - bc.displacement.shape[1]
    lam, phi = _modal_basis(mesh, unit, n_inner)

    measured = data.values[1:-1, cols]  # the interior nodes' rows
    # each mirror half's modes to the deflections' coordinates of that half
    n_modes, n_w = phi.shape[1], n_inner // 2
    halves = (slice(0, n_w), slice(n_w, n_modes))
    rebuilds = [
        np.ascontiguousarray(split[:, half].T)
        for split, half in zip(_mirror_split(phi[0:n_inner:2]), halves)
    ]
    n_values = len(moduli)
    chunk = max(1, _SWEEP_CHUNK_BYTES // (8 * n_values * 2 * (n_modes + n_w)))
    dt2, at = _dt_squared(bc.dt), _at(mesh, bc)
    # past the float range the stiffest mode's gain 1 / (1 + q E lam) is 0
    stiffest = "the stiffest mode's q E lam overflows" + at
    _finite(lambda: 0.25 * dt2 * moduli.max() * lam.max(), stiffest)

    def errors():
        loaded, f_mass, f_stiff = _edge_loads(bc, *_element_matrices(mesh, unit), n_inner)
        sq = np.zeros(n_values)
        for k0, y in _march_modes(lam, phi[loaded], f_mass, f_stiff, moduli, dt2, stop - 1, chunk):
            lo, hi = max(k0, start), min(k0 + len(y), stop)
            if lo < hi:
                y = y[lo - k0 : hi - k0].reshape(-1, n_modes)
                parts = _mirror_split(measured[:, lo - start : hi - start])
                for half, rebuild, part in zip(halves, rebuilds, parts):
                    w = (y[:, half] @ rebuild).reshape(hi - lo, n_values, -1)
                    w -= part.T[:, None]
                    sq += np.einsum("kvi,kvi->v", w, w)
        return np.sqrt(sq) / norm

    # loads or a march that overflow show in the errors
    return _finite(errors, "the modal replay's simulation error is not finite" + at)


def _modal_basis(mesh: FemMesh, beam: BeamModel, n_inner: int):
    """``(lam, phi)`` with ``K phi = M phi diag(lam)`` and ``phi' M phi = I``,
    for ``beam``'s ``M`` and ``K`` on the ``n_inner = mesh.n_dof - 4``
    interior dofs of a mesh with both ends prescribed, which alternate
    deflection and rotation.  The first ``n_inner / 2`` modes are even
    under the mirror ``x -> L - x`` (which keeps w and flips w_x), the
    rest odd.

    The eigenproblem is solved on the pure-number matrices assembled from
    the Hermite tables, with rotations in units of dx: ``M = rho A dx S
    M_hat S`` and ``K = EI / dx^3 S K_hat S``, ``S = diag(1, dx, ...)``.
    Both commute with the mirror ``J`` bit for bit, so the even and the
    odd modes solve two half-size problems: on the columns ``e_a + p J e_a``
    (parity ``p = 1`` or ``-1``) of the dofs ``a`` up to the middle node,
    ``M_hat`` becomes ``(M_hat + p M_hat J)[a, a]``, and so does ``K_hat``.
    Each half is solved in flexibility form: with the Cholesky factor
    ``R`` of its ``K_hat``, the eigenvalues ``nu = 1 / mu`` of
    ``R^-1 M_hat R^-T`` carry an error of about eps times the largest
    ``nu``, so the slow modes, which set the replay's dynamics, get their
    rates to about eps relative (the stiffness form, ``L^-1 K_hat L^-T``
    with ``L L' = M_hat``, would give them eps times ``mu_max / mu``, near
    1e-10 on a 40-point rod).  The rates scale by ``EI / (rho A dx^4)``
    and the modes by ``S^-1 / sqrt(2 rho A dx)``.  A failed factorisation
    or eigensolve, or a rate that overflows the float range (dx below about
    1e-77), raises :class:`DegenerateDataError`.
    """
    inner = slice(2, 2 + n_inner)
    dofs = _element_dofs(mesh)
    hats = []
    for table in (_M_HAT / 420.0, _K_HAT):
        full = np.zeros((mesh.n_dof, mesh.n_dof))
        np.add.at(full, (dofs[:, :, None], dofs[:, None, :]), table)
        hats.append(full[inner, inner])
    # J e_d = sign_d e_image_d: node j <-> node n_nodes - 1 - j, w kept, w_x flipped
    d = np.arange(n_inner)
    image = n_inner - 2 - d + 2 * (d % 2)
    sign = 1.0 - 2.0 * (d % 2)
    mus, modes = [], []
    for parity in (1.0, -1.0):
        # a middle node keeps the one dof that its parity does not cancel
        keep = (d < image) | ((d == image) & (parity * sign > 0))
        a, b, pj = d[keep], image[keep], parity * sign[keep]
        half_m, half_k = (h[np.ix_(a, a)] + h[np.ix_(a, b)] * pj for h in hats)
        try:
            r_inv = np.linalg.inv(np.linalg.cholesky(half_k))
            nu, v = np.linalg.eigh(r_inv @ half_m @ r_inv.T)
        except np.linalg.LinAlgError as exc:
            raise DegenerateDataError(f"no modal basis of the interior dofs: {exc}") from exc
        # ascending rates, and modes scaled from u' K u = 1 to u' M u = 1
        mu = 1.0 / nu[::-1]
        u = (r_inv.T @ v[:, ::-1]) * np.sqrt(mu)
        mode = np.zeros((n_inner, u.shape[1]))
        mode[a] = u
        mode[b] += pj[:, None] * u
        mus.append(mu)
        modes.append(mode)
    stiffness = beam.require_modulus() * beam.section.second_moment
    mass = beam.density * beam.section.area
    dx = mesh.dx
    lam = _finite(
        lambda: np.concatenate(mus) * (stiffness / mass / dx**2 / dx**2),
        f"the modal rates overflow at spacing dx = {dx:g}",
    )
    s = np.tile([1.0, 1.0 / dx], n_inner // 2) / np.sqrt(2.0 * mass * dx)
    return lam, s[:, None] * np.hstack(modes)


def _mirror_split(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd coordinates of ``rows`` (one per interior node) under the
    mirror that swaps rows ``j`` and ``n - 1 - j``, in orthonormal bases:
    ``(rows[j] +- rows[n - 1 - j]) / sqrt(2)`` for ``j < n // 2``, and the
    middle row of an odd ``n`` as the last even one.  Squared distances
    are the sums of the two halves'."""
    h = len(rows) // 2
    mirrored = rows[::-1][:h]
    even = np.empty((len(rows) - h,) + rows.shape[1:])
    np.add(rows[:h], mirrored, out=even[:h])
    even[:h] *= np.sqrt(0.5)
    even[h:] = rows[h : len(rows) - h]
    return even, (rows[:h] - mirrored) * np.sqrt(0.5)


def _march_modes(lam, phi_loaded, f_mass, f_stiff, moduli, dt2, n_steps, chunk):
    """March every trial modulus from rest in the modal basis of
    :func:`sweep_modulus`, yielding ``(k0, y)`` chunk by chunk: ``y``
    holds the modal deflections of steps ``k0, k0 + 1, ...``, shape
    ``(n_chunk_steps, n_trials, n_modes)``, up to step ``n_steps``.

    Mode ``i`` of trial ``E`` obeys ``y'' + E lam_i y = phi_i' f(E)``: each
    step takes ``a' = (phi' f' - E lam p) / (1 + q E lam)`` and advances by
    :func:`_newmark_step`, as :func:`newmark_march` does.  One product
    of ``[f_M | f_K]`` with a pattern that holds ``phi' gain`` and
    ``E phi' gain`` forms a chunk's ``gain phi' f'`` for every trial, so
    no ``(n_steps, n_modes)`` array is held.  ``dt2`` is ``dt**2``
    (:func:`_dt_squared`).
    """
    q = 0.25 * dt2
    e = moduli[:, None]
    gain = 1.0 / (1.0 + q * e * lam)
    stiff = e * lam * gain
    pattern = np.concatenate([phi_loaded[:, None] * gain, phi_loaded[:, None] * (e * gain)])
    pattern = pattern.reshape(len(pattern), -1)
    forces = np.hstack([f_mass, f_stiff])

    a = f_mass[0] @ phi_loaded + e * (f_stiff[0] @ phi_loaded)  # M a = f at rest, Phi' M Phi = I
    p = q * a
    s = 0.5 * dt2 * a
    yield 0, np.zeros((1,) + a.shape)
    for k0 in range(1, n_steps + 1, chunk):
        k1 = min(k0 + chunk, n_steps + 1)
        y = (forces[k0:k1] @ pattern).reshape((k1 - k0,) + gain.shape)
        for row in y:
            # a' = gain phi' f' - stiff p, then the row becomes d'
            np.multiply(stiff, p, out=a)
            np.subtract(row, a, out=a)
            _newmark_step(a, p, s, row, q, dt2)
        yield k0, y
