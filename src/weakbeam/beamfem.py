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
from scipy.linalg import cholesky_banded
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrs

from .errors import DegenerateDataError, DimensionError, ParameterError
from .grid import FieldGrid, _all_finite, _check_axis, _window_columns, window_time
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

# Bytes that sweep_modulus gives one chunk of steps: the trials' modal
# loads and deflections and their rebuilt interior fields.  On 195- and
# 400-point rods, 1 MiB ran 10-30 % slower and 16 MiB raised peak RSS.
_SWEEP_CHUNK_BYTES = 4 << 20

# extract_boundaries fits this many samples nearest each edge with a
# Fourier series of this order, each capped by the field's size
_EDGE_FIT_SAMPLES = 25
_EDGE_FIT_ORDER = 3


@dataclass(frozen=True)
class FemMesh:
    """Uniform 1-d mesh of two-node Hermite beam elements."""

    n_elements: int
    dx: float

    def __post_init__(self):
        if self.n_elements < 2 or self.n_elements != int(self.n_elements):
            raise ParameterError(
                f"n_elements must be an integer >= 2, got {self.n_elements}"
            )
        # the element matrices scale as dx**-3 .. dx**3: both ends must be
        # finite positive floats (this also rejects dx <= 0 and NaN)
        with np.errstate(all="ignore"):
            powers = np.float64(self.dx) ** np.array([-3.0, 3.0])
        if not np.all((powers > 0) & (powers < np.inf)):
            raise ParameterError(
                f"dx must be positive with finite element matrices, got {self.dx}"
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
    k = stiffness / ell**3 * np.array(
        [
            [12.0, 6.0 * ell, -12.0, 6.0 * ell],
            [6.0 * ell, 4.0 * ell**2, -6.0 * ell, 2.0 * ell**2],
            [-12.0, -6.0 * ell, 12.0, -6.0 * ell],
            [6.0 * ell, 2.0 * ell**2, -6.0 * ell, 4.0 * ell**2],
        ]
    )
    m = mass * ell / 420.0 * np.array(
        [
            [156.0, 22.0 * ell, 54.0, -13.0 * ell],
            [22.0 * ell, 4.0 * ell**2, 13.0 * ell, -3.0 * ell**2],
            [54.0, 13.0 * ell, 156.0, -22.0 * ell],
            [-13.0 * ell, -3.0 * ell**2, -22.0 * ell, 4.0 * ell**2],
        ]
    )
    return m, k


def assemble_matrices(mesh: FemMesh, beam: BeamModel) -> tuple[np.ndarray, np.ndarray]:
    """(M, K) global consistent mass and stiffness in LAPACK upper banded
    storage, shape ``(_HALF_BANDWIDTH + 1, n_dof)``.

    Entry ``(i, j)`` with ``i <= j <= i + _HALF_BANDWIDTH`` sits at
    ``[_HALF_BANDWIDTH + i - j, j]``; the top-left triangle of the band,
    which LAPACK and BLAS never read, is zero.
    """
    me, ke = _element_matrices(mesh, beam)
    M = np.zeros((_HALF_BANDWIDTH + 1, mesh.n_dof))
    K = np.zeros_like(M)
    # element e puts its (i, j) entry on global dofs (2e + i, 2e + j)
    span = 2 * mesh.n_elements
    for i in range(4):
        for j in range(i, 4):
            row, cols = _HALF_BANDWIDTH + i - j, slice(j, j + span, 2)
            M[row, cols] += me[i, j]
            K[row, cols] += ke[i, j]
    return M, K


def _dense(band: np.ndarray) -> np.ndarray:
    """A symmetric matrix from the banded storage of :func:`assemble_matrices`,
    dense."""
    n = band.shape[1]
    full = np.zeros((n, n))
    for off in range(_HALF_BANDWIDTH + 1):
        i = np.arange(n - off)
        full[i, i + off] = full[i + off, i] = band[_HALF_BANDWIDTH - off, off:]
    return full


@dataclass(frozen=True)
class BoundaryHistory:
    """Prescribed edge motion: deflections and rotations over ``t``.

    ``displacement`` holds one row per sample of ``t`` and one column per
    boundary dof, ordered as the mesh numbers them: left w, left w_x,
    then right w, right w_x.  Two columns mean the far end is free.
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
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "displacement", d)

    @cached_property
    def acceleration(self) -> np.ndarray:
        """Second time differences of ``displacement``: centered inside,
        one-sided second order at the first and last samples."""
        d, dt2 = self.displacement, self.dt**2
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
    power = mean_power_spectrum(data.values, axis=0)
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
    loaded: slice | np.ndarray = slice(None),
) -> np.ndarray:
    """Integrate ``M a + K d = f(t)`` with the average-acceleration rule,
    Newmark's ``beta = 1/4``, ``gamma = 1/2``: the unconditionally stable,
    non-dissipative member of the family.

    ``M`` and ``K`` are symmetric, in the upper banded storage that
    :func:`assemble_matrices` returns.  ``forces`` has one row per time
    step (including step 0) and one column per dof that ``loaded``
    names: a slice of dofs or an array of distinct dof indices (default:
    all dofs).  Every other dof is unloaded, so only the loaded columns
    need be stored.  ``d0`` and ``v0``, the initial state (default:
    rest), have one entry per dof.  Returns the displacement history of
    the dofs ``record`` selects (default: all), shape
    ``(n_steps + 1, len(range(n_dof)[record]))``; no velocity history is
    kept.  Every dof is marched whatever ``record`` is, so the recorded
    columns equal the full history's ``[:, record]`` bit for bit, and
    loads given as columns march bit for bit like their dense scatter.
    For undamped linear systems the discrete energy
    ``(v' M v + d' K d) / 2`` is conserved up to round-off.

    The state is carried as the predictor ``p = d + dt v + q a`` with
    ``q = dt**2 / 4`` and its increment ``s``, which advances by
    ``dt**2 a`` each step, so one step costs a scatter of the loaded
    columns into one zeroed load vector, one banded product (BLAS
    ``dsbmv``, which adds into a copy of that vector), one banded solve
    with the factor of ``M + q K`` (LAPACK ``dpbtrs``, in place on the
    product) and five in-place vector operations; nothing but the
    product is allocated.  A step writes ``q a[record] + p[record]`` into
    its row of the history.
    """
    forces = np.asarray(forces, dtype=float)
    if forces.ndim != 2 or forces.shape[0] < 1:
        raise ParameterError("forces must be (n_steps + 1, n_loaded) with n_steps >= 0")
    n_steps = forces.shape[0] - 1
    n = np.shape(M)[-1] if np.ndim(M) else 0
    band = (_HALF_BANDWIDTH + 1, n)
    if np.shape(M) != band or np.shape(K) != band:
        raise ParameterError(f"M and K must be banded {band}, got {np.shape(M)}, {np.shape(K)}")
    if not (dt > 0):
        raise ParameterError(f"dt must be positive, got {dt}")
    if not isinstance(record, slice):
        raise ParameterError(f"record must be a slice of dofs, got {type(record).__name__}")
    if isinstance(loaded, slice):
        n_loaded = len(range(n)[loaded])
    else:
        loaded = np.asarray(loaded)
        if not (
            loaded.ndim == 1
            and loaded.dtype.kind in "iu"
            and np.all((0 <= loaded) & (loaded < n))
            and np.unique(loaded).size == loaded.size
        ):
            raise ParameterError(f"loaded must be distinct dofs in 0 .. {n - 1}, got {loaded}")
        n_loaded = loaded.size
    if forces.shape[1] != n_loaded:
        raise ParameterError(
            f"forces must have one column per loaded dof ({n_loaded}), got {forces.shape[1]}"
        )
    d = np.zeros(n) if d0 is None else np.asarray(d0, dtype=float)
    v = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float)
    if d.shape != (n,) or v.shape != (n,):
        raise ParameterError(f"d0 and v0 must have shape ({n},), got {d.shape}, {v.shape}")
    # the per-step solves skip SciPy's finiteness scan, so check once here
    if not all(_all_finite(x) for x in (forces, d, v)):
        raise ParameterError("forces, d0 and v0 must be finite")

    K = np.asfortranarray(K, dtype=float)  # dsbmv would copy it every step
    q = 0.25 * dt**2
    mass = cholesky_banded(M)
    effective = cholesky_banded(M + q * K)
    # zero off the loaded dofs for good: dsbmv adds into a copy of its y
    f = np.zeros(n)
    f[loaded] = forces[0]
    a, info = dpbtrs(mass, f - dsbmv(_HALF_BANDWIDTH, 1.0, K, d))
    _check_info(info)

    d_hist = np.empty((n_steps + 1, len(range(n)[record])))
    d_hist[0] = d[record]
    # d' = p + q a', s' = s + dt^2 a', p' = p + s'
    p = d + dt * v + q * a
    s = dt * v + 0.5 * dt**2 * a
    for k in range(n_steps):
        f[loaded] = forces[k + 1]
        # a' = (M + q K)^-1 (f' - K p), solved in place on the product
        a, info = dpbtrs(
            effective,
            dsbmv(_HALF_BANDWIDTH, -1.0, K, p, beta=1.0, y=f),
            overwrite_b=1,
        )
        _check_info(info)
        row = np.multiply(a[record], q, out=d_hist[k + 1])
        row += p[record]
        a *= dt**2
        s += a
        p += s
    return d_hist


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
    leading rows of the full field bit for bit.
    """
    if n_nodes is None:
        n_nodes = mesh.n_nodes
    if not isinstance(n_nodes, (int, np.integer)) or not 1 <= n_nodes <= mesh.n_nodes:
        raise ParameterError(
            f"n_nodes must be an integer in 1 .. {mesh.n_nodes}, got {n_nodes!r}"
        )
    M, K = assemble_matrices(mesh, beam)
    # the interior dofs are contiguous: all but the first node's, and the
    # last node's unless the far end is free
    n_inner = mesh.n_dof - bc.displacement.shape[1]
    inner = slice(2, 2 + n_inner)
    loaded, f_mass, f_stiff = _edge_loads(bc, *_element_matrices(mesh, beam), n_inner)

    # interior deflections are the even interior dofs, on nodes 1 .. n_inner/2;
    # record those of the nodes returned
    n_recorded = min(n_nodes - 1, n_inner // 2)
    w_hist = newmark_march(
        M[:, inner], K[:, inner], f_mass + f_stiff, bc.dt,
        record=slice(0, 2 * n_recorded, 2), loaded=loaded,
    )

    deflection = np.empty((n_nodes, bc.t.size))
    deflection[1 : 1 + n_recorded] = w_hist.T
    deflection[0] = bc.displacement[:, 0]
    if n_recorded < n_nodes - 1:  # the prescribed far end is returned too
        deflection[-1] = bc.displacement[:, 2]
    return FieldGrid(mesh.node_positions[:n_nodes], bc.t, deflection)


def compare(measured: FieldGrid, simulated: FieldGrid) -> float:
    """Relative Frobenius error of a simulation."""
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
    return float(np.linalg.norm(measured.values - simulated.values) / denom)


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
    starts from rest at the data's first sample); a bad window fails
    before the march.
    """
    data_c = data if window is None else window_time(data, *window)
    mesh = FemMesh(data.n_x - 1, data.dx)
    bc = extract_boundaries(data)
    sim = FieldGrid(data.x, data.t, newmark_solve(mesh, beam, bc).values)
    sim_c = sim if window is None else window_time(sim, *window)
    return SimulationResult(field=sim_c, frobenius_rel=compare(data_c, sim_c))


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
    modulus, but what does not depend on E is done once per sweep: the
    window check, the edges, the interior ``M`` and ``K_1`` at E = 1,
    the edge loads split as ``f(E) = f_M + E f_K``, and one dense
    generalized eigensolve ``K_1 Phi = M Phi Lambda`` with
    ``Phi' M Phi = I``.  As ``K = E K_1``, the average-acceleration rule
    is diagonal in that basis, so one step loop marches every trial and
    mode at once (:func:`_march_modes`).  Chunk by chunk of steps inside
    the window, one matrix product rebuilds every trial's interior
    deflections; the edge rows are the data's own and add no error.
    Cost: one O(n_dof^3) eigensolve, then O(n_x n_dof) per trial-step.
    The trial grid is built first, so a count NumPy cannot hold raises
    :class:`ParameterError` before any of that work.  A failed eigensolve,
    or an error that is not finite (``E lam`` overflows the float range on
    very fine spacings), raises :class:`DegenerateDataError`.
    """
    if not (0 < e_lo < e_hi < np.inf):
        raise ParameterError(f"need finite 0 < e_lo < e_hi, got [{e_lo}, {e_hi}]")
    if not (isinstance(n_values, (int, np.integer)) and n_values >= 2):
        raise ParameterError(f"n_values must be an integer >= 2, got {n_values!r}")
    try:
        moduli = np.linspace(e_lo, e_hi, n_values)
    except (ValueError, IndexError, MemoryError):
        # NumPy refuses a count it cannot index or allocate in each of these ways
        raise ParameterError(f"cannot hold {n_values} trial moduli") from None
    cols = slice(None) if window is None else _window_columns(data.t, *window)
    start, stop, _ = cols.indices(data.n_t)
    norm = float(np.linalg.norm(data.values[:, cols]))
    if norm == 0.0:
        raise DegenerateDataError("measured field is identically zero")

    mesh = FemMesh(data.n_x - 1, data.dx)
    bc = extract_boundaries(data)
    unit = replace(beam, youngs_modulus=1.0)
    M, K = assemble_matrices(mesh, unit)
    me, ke = _element_matrices(mesh, unit)
    n_inner = mesh.n_dof - bc.displacement.shape[1]
    inner = slice(2, 2 + n_inner)
    loaded, f_mass, f_stiff = _edge_loads(bc, me, ke, n_inner)
    lam, phi = _modal_basis(M[:, inner], K[:, inner], mesh.dx)

    measured = data.values[1:-1, cols]  # the interior nodes' rows
    rebuild = np.ascontiguousarray(phi[0:n_inner:2].T)  # modes to their deflections
    n_modes, n_w = rebuild.shape
    chunk = max(1, _SWEEP_CHUNK_BYTES // (8 * n_values * 2 * (n_modes + n_w)))
    sq = np.zeros(n_values)
    marches = _march_modes(lam, phi[loaded], f_mass, f_stiff, moduli, bc.dt, stop - 1, chunk)
    # a march that overflows is reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, y in marches:
            lo, hi = max(k0, start), min(k0 + len(y), stop)
            if lo < hi:
                w = y[lo - k0 : hi - k0].reshape(-1, n_modes) @ rebuild
                w = w.reshape(hi - lo, n_values, n_w)
                w -= measured[:, lo - start : hi - start].T[:, None]
                sq += np.einsum("kvi,kvi->v", w, w)
        errors = np.sqrt(sq) / norm
    if not np.all(np.isfinite(errors)):
        raise DegenerateDataError(
            f"the modulus sweep's simulation error is not finite at spacing dx = {mesh.dx:g}"
        )
    return SweepResult(moduli=moduli, errors=errors)


def _modal_basis(M: np.ndarray, K: np.ndarray, dx: float):
    """``(lam, phi)`` with ``K phi = M phi diag(lam)`` and ``phi' M phi = I``,
    for banded ``M`` and ``K`` on dofs that alternate deflection and rotation.

    Rotations are scaled by ``1 / dx`` into length units first, which
    takes the mass matrix's condition number from about 1e9 to about 1e2
    on the reference rod, so the Cholesky factor ``L`` of ``M`` inverts
    accurately and the problem becomes the standard symmetric one of
    ``L^-1 K L^-T``.  A failed factorisation or eigensolve raises
    :class:`DegenerateDataError`.
    """
    s = np.tile([1.0, 1.0 / dx], M.shape[1] // 2)
    scale = np.outer(s, s)
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(_dense(M) * scale))
        lam, v = np.linalg.eigh(l_inv @ (_dense(K) * scale) @ l_inv.T)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError(f"no modal basis of the interior dofs: {exc}") from exc
    return lam, s[:, None] * (l_inv.T @ v)


def _march_modes(lam, phi_loaded, f_mass, f_stiff, moduli, dt, n_steps, chunk):
    """March every trial modulus from rest in the modal basis of
    :func:`sweep_modulus`, yielding ``(k0, y)`` chunk by chunk: ``y``
    holds the modal deflections of steps ``k0, k0 + 1, ...``, shape
    ``(n_chunk_steps, n_trials, n_modes)``, up to step ``n_steps``.

    Mode ``i`` of trial ``E`` obeys ``y'' + E lam_i y = phi_i' f(E)``.  The
    rule and its recurrence are those of :func:`newmark_march`, one mode
    at a time: ``a' = (phi' f' - E lam p) / (1 + q E lam)``.  Loads are
    projected onto the modes one chunk at a time, so no
    ``(n_steps, n_modes)`` array is held.
    """
    q = 0.25 * dt**2
    e = moduli[:, None]
    gain = 1.0 / (1.0 + q * e * lam)
    stiff = e * lam * gain

    def loads(k0, k1):
        return (f_mass[k0:k1] @ phi_loaded)[:, None] + e * (f_stiff[k0:k1] @ phi_loaded)[:, None]

    a = loads(0, 1)[0]  # M a = f at rest, and Phi' M Phi = I
    p = q * a
    s = 0.5 * dt**2 * a
    yield 0, np.zeros((1,) + a.shape)
    for k0 in range(1, n_steps + 1, chunk):
        y = loads(k0, min(k0 + chunk, n_steps + 1))
        y *= gain
        for row in y:
            # a' = gain phi' f' - stiff p, then the row becomes d' = p + q a'
            np.multiply(stiff, p, out=a)
            np.subtract(row, a, out=a)
            np.multiply(a, q, out=row)
            row += p
            a *= dt**2
            s += a
            p += s
        yield k0, y
