"""Independent reference implementations used to cross-check the package.

Everything here is written from the defining formulas, deliberately
avoiding the package's own computational shortcuts (FFT convolution,
banded storage and solves, closed-form spectra) so agreement is
meaningful.
"""

import math

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as poly
from scipy.linalg import eigh

from weakbeam.beamfem import assemble_matrices
from weakbeam.errors import DegenerateDataError, ParameterError, SelectionError
from weakbeam.grid import FieldGrid
from weakbeam.weakform import (
    _TARGET_QUERIES_PER_AXIS,
    LHS,
    TERMS,
    CornerDiagnostic,
    mean_power_spectrum,
)

BETA_L = {
    # characteristic roots beta_n * L of the Euler-Bernoulli frequency
    # equations, standard tabulated values
    "pinned-pinned": lambda n: n * np.pi,
    "clamped-free": lambda n: (1.8751040687119611, 4.6940911329741746,
                               7.8547574382376126)[n - 1],
    "clamped-clamped": lambda n: (4.7300407448627040, 7.8532046240958376,
                                  10.995607838001671)[n - 1],
}


def analytic_beam_frequencies(modulus, inertia, density, area, length,
                              boundary="pinned-pinned", n_modes=3):
    """f_n = (beta_n L)^2 / (2 pi L^2) * sqrt(EI / rho A)."""
    root = BETA_L[boundary]
    c = np.sqrt(modulus * inertia / (density * area)) / (2.0 * np.pi * length**2)
    return np.array([root(n) ** 2 * c for n in range(1, n_modes + 1)])


def alpha_from_modulus(modulus, beam):
    """alpha = E I / (rho A), the inverse of ``material.modulus_from_alpha``."""
    return modulus * beam.section.second_moment / (beam.density * beam.section.area)


def testfn_poly(p, m, deriv, h):
    """Sampled derivative of (1 - (y/c)^2)^p via expanded polynomials."""
    poly = Polynomial([1.0, 0.0, -1.0]) ** p
    for _ in range(deriv):
        poly = poly.deriv()
    u = np.arange(-m, m + 1, dtype=float) / m
    return poly(u) / (m * h) ** deriv


def reference_testfn_1d(p, m, deriv, h):
    """Sample the deriv-th derivative of ``(1 - (y/c)^2)^p`` on its support,
    with no cache: the ``Q_r`` recurrence is run afresh up to ``deriv``.

    The support is ``[-c, c]`` with ``c = m * h``; samples are taken at
    ``y_j = j * h`` for ``j = -m .. m`` (2m + 1 points).  The profile has
    unit peak, and every derivative of order below ``p`` vanishes exactly
    at the endpoints; that exactness is preserved by evaluating the
    factored form ``(1 - u^2)^(p - r) * Q_r(u)`` where ``Q_r`` follows the
    recurrence ``Q_{r+1} = (1 - u^2) Q_r' - 2 (p - r) u Q_r``.
    """
    if p < 1 or p != int(p):
        raise ParameterError(f"p must be a positive integer, got {p}")
    if m < 1 or m != int(m):
        raise ParameterError(f"m must be a positive integer, got {m}")
    if h <= 0 or not math.isfinite(h):
        raise ParameterError(f"h must be positive and finite, got {h}")
    if deriv < 0 or deriv != int(deriv):
        raise ParameterError(f"deriv must be a non-negative integer, got {deriv}")
    if deriv > p:
        raise ParameterError(
            f"derivative order {deriv} exceeds polynomial degree parameter {p}"
        )
    u = np.arange(-m, m + 1, dtype=float) / m
    q = np.array([1.0])  # coefficients of Q_r, ascending powers of u
    for r in range(deriv):
        q = poly.polysub(
            poly.polymul([1.0, 0.0, -1.0], poly.polyder(q)),
            poly.polymul(2.0 * (p - r) * np.array([0.0, 1.0]), q),
        )
    return (1.0 - u * u) ** (p - deriv) * poly.polyval(u, q) / (m * h) ** deriv


def _segment_ssr_prefix(x, y):
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


def reference_changepoint(y, hi):
    """Two-segment line fit over ``y[:hi]`` vs bin index, both segments'
    prefix SSRs rebuilt for this window; the 1-based breakpoint bin."""
    if hi < 3:
        return max(1, hi // 2)
    yv = y[:hi]
    k = np.arange(1, hi + 1, dtype=float)
    ssr_left = _segment_ssr_prefix(k, yv)
    ssr_right = _segment_ssr_prefix(k[::-1], yv[::-1])[::-1]
    b_candidates = np.arange(1, hi - 1)
    total = ssr_left[b_candidates] + ssr_right[b_candidates]
    return int(b_candidates[int(np.argmin(total))]) + 1


def cumulative_log_power(values, axis):
    """Cumulative sum of the log10 mean power over bins 1 .. n // 2, with
    exact zeros floored at 1e-30 of the peak."""
    grid = FieldGrid(np.arange(len(values)), np.arange(np.shape(values)[1]), values)
    power = mean_power_spectrum(grid, axis)
    if power.size == 0 or power.max() <= 0.0:
        raise DegenerateDataError("field has no spectral content along axis")
    return power, np.cumsum(np.log10(np.maximum(power, power.max() * 1e-30)))


def reference_spectral_corner(values, axis):
    """The changepoint corner with every zoom pass fitting its window
    from scratch (:func:`reference_changepoint`).  Same spectrum, floor,
    zoom and peak guard as ``weakform.spectral_corner``."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ParameterError("expected a 2-d field array")
    if axis not in (0, 1):
        raise ParameterError(f"axis must be 0 or 1, got {axis}")
    power, y = cumulative_log_power(values, axis)
    n_bins = values.shape[axis] // 2
    if n_bins < 3:
        corner = max(1, n_bins // 2)
        return CornerDiagnostic(corner, n_bins)
    b = reference_changepoint(y, n_bins)
    seen = {b}
    for _ in range(32):
        b_next = reference_changepoint(y, min(n_bins, 2 * b))
        if b_next == b or b_next in seen:
            b = b_next
            break
        seen.add(b_next)
        b = b_next
    k_peak = int(np.argmax(power)) + 1
    b = max(b, min(4 * k_peak, n_bins - 1))
    return CornerDiagnostic(b, n_bins)


def dense_weak_system(grid, basis, scales=(1.0, 1.0, 1.0)):
    """Direct-summation weak-form assembly of the library table
    (``weakform.TERMS`` onto ``weakform.LHS``).

    Every entry is an explicit windowed sum
        (-1)^(i+k) * (X/N_x) * (T/N_t) * sum_ab W^q[ix+a, it+b]
                     * phi_x^(i)(a h_x) * phi_t^(k)(b h_t)
    on the scaled field and axes.  No convolution theorems involved.
    """
    gw, gx, gt = scales
    w = gw * grid.values
    h_x = gx * grid.dx
    h_t = gt * grid.dt
    n_x, n_t = grid.values.shape
    m_x, m_t = basis.m_x, basis.m_t
    weight = (gx * grid.x_extent / n_x) * (gt * grid.t_extent / n_t)

    xs = np.arange(m_x, n_x - m_x, basis.s_x)
    ts = np.arange(m_t, n_t - m_t, basis.s_t)
    query_points = np.array([(ix, it) for ix in xs for it in ts])

    # one sampled test-function row per derivative order, built once a call
    terms = (LHS, *TERMS)
    phix = {i: testfn_poly(basis.p_x, m_x, i, h_x) for i in {t.dx_order for t in terms}}
    phit = {k: testfn_poly(basis.p_t, m_t, k, h_t) for k in {t.dt_order for t in terms}}

    def inner(term, ix, it):
        window = w[ix - m_x : ix + m_x + 1, it - m_t : it + m_t + 1] ** term.power
        fx = phix[term.dx_order]
        ft = phit[term.dt_order]
        sign = (-1.0) ** (term.dx_order + term.dt_order)
        return sign * weight * np.einsum("ab,a,b->", window, fx, ft)

    K = len(query_points)
    b = np.array([inner(LHS, ix, it) for ix, it in query_points])
    G = np.empty((K, len(TERMS)))
    for j, term in enumerate(TERMS):
        G[:, j] = [inner(term, ix, it) for ix, it in query_points]
    return G, b, np.asarray(query_points)


def reference_query_strides(n_x, n_t, m_x, m_t):
    """The stride rule with its stride-halving loop, as the library had it
    before the loop was shown unreachable: halve the larger stride while
    an ``n_x`` by ``n_t`` grid under half-widths ``m_x`` and ``m_t`` has
    fewer than ``2 * len(TERMS)`` query points."""
    min_rows = 2 * len(TERMS)
    sizes = (n_x, n_t)
    ms = (m_x, m_t)
    s = [
        max(1, int(round((n - 2 * m) / _TARGET_QUERIES_PER_AXIS)))
        for n, m in zip(sizes, ms)
    ]

    def count(n, m, stride):
        interior = n - 2 * m
        if interior < 1:
            raise SelectionError(
                f"support half-width {m} leaves no interior on {n} samples"
            )
        return (interior - 1) // stride + 1

    def total():
        return count(sizes[0], ms[0], s[0]) * count(sizes[1], ms[1], s[1])

    while total() < min_rows and (s[0] > 1 or s[1] > 1):
        i = 0 if s[0] >= s[1] else 1
        if s[i] == 1:
            i = 1 - i
        s[i] = max(1, s[i] // 2)
    if total() < min_rows:
        raise SelectionError(f"only {total()} query points available, need {min_rows}")
    return s[0], s[1]


def dense_from_band(band):
    """Symmetric n x n matrix from LAPACK upper banded storage, entry by
    entry: ``a[i, j] = a[j, i] = band[u + i - j, j]`` for ``0 <= j - i <= u``."""
    u = band.shape[0] - 1
    n = band.shape[1]
    a = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - u), j + 1):
            a[i, j] = a[j, i] = band[u + i - j, j]
    return a


def dense_beam_matrices(mesh, beam):
    """Dense global (M, K) of a uniform Hermite-cubic beam, element by
    element from the textbook 4x4 consistent mass and stiffness."""
    ell = mesh.dx
    ei = beam.youngs_modulus * beam.section.second_moment
    rho_a = beam.density * beam.section.area
    ke = ei / ell**3 * np.array(
        [
            [12, 6 * ell, -12, 6 * ell],
            [6 * ell, 4 * ell**2, -6 * ell, 2 * ell**2],
            [-12, -6 * ell, 12, -6 * ell],
            [6 * ell, 2 * ell**2, -6 * ell, 4 * ell**2],
        ]
    )
    me = rho_a * ell / 420 * np.array(
        [
            [156, 22 * ell, 54, -13 * ell],
            [22 * ell, 4 * ell**2, 13 * ell, -3 * ell**2],
            [54, 13 * ell, 156, -22 * ell],
            [-13 * ell, -3 * ell**2, -22 * ell, 4 * ell**2],
        ]
    )
    n = mesh.n_dof
    M = np.zeros((n, n))
    K = np.zeros((n, n))
    for e in range(mesh.n_elements):
        sl = slice(2 * e, 2 * e + 4)
        M[sl, sl] += me
        K[sl, sl] += ke
    return M, K


def beam_eigenfrequencies(mesh, beam, boundary="pinned-pinned", n_modes=5):
    """Lowest bending natural frequencies (Hz) of the package's assembled
    model, from a dense generalized eigensolve with the fixed dofs of
    ``boundary`` removed."""
    if n_modes < 1:
        raise ParameterError(f"n_modes must be >= 1, got {n_modes}")
    n = mesh.n_dof
    fixed = {
        "pinned-pinned": [0, n - 2],
        "clamped-free": [0, 1],
        "clamped-clamped": [0, 1, n - 2, n - 1],
    }
    if boundary not in fixed:
        raise ParameterError(f"unknown boundary {boundary!r}")
    keep = np.ones(n, dtype=bool)
    keep[fixed[boundary]] = False
    if n_modes > keep.sum():
        raise ParameterError(f"mesh supports at most {keep.sum()} modes")
    M, K = (dense_from_band(a)[keep][:, keep] for a in assemble_matrices(mesh, beam))
    vals = eigh(K, M, eigvals_only=True, subset_by_index=[0, n_modes - 1])
    return np.sqrt(np.maximum(vals, 0.0)) / (2.0 * np.pi)


def dense_newmark_solve(mesh, beam, bc):
    """Edge-driven deflection field (n_nodes, n_t) on the dense system, from rest.

    The boundary dofs (first node, and last node unless ``bc`` leaves the
    far end free) are partitioned off; the interior obeys
    ``M_ii a_i + K_ii d_i = -M_ib a_b - K_ib d_b``, marched with the
    average-acceleration Newmark rule and ``np.linalg.solve`` each step.
    """
    M, K = dense_beam_matrices(mesh, beam)
    n = mesh.n_dof
    bdofs = np.array([0, 1] if bc.free_right else [0, 1, n - 2, n - 1])
    idofs = np.setdiff1d(np.arange(n), bdofs)
    Mii, Kii = M[np.ix_(idofs, idofs)], K[np.ix_(idofs, idofs)]
    Mib, Kib = M[np.ix_(idofs, bdofs)], K[np.ix_(idofs, bdofs)]
    forces = -bc.acceleration @ Mib.T - bc.displacement @ Kib.T

    dt = (bc.t[-1] - bc.t[0]) / (bc.t.size - 1)
    d_hist, _ = state_newmark_march(Mii, Kii, forces, dt)

    deflection = np.empty((mesh.n_nodes, bc.t.size))
    deflection[bdofs[::2] // 2] = bc.displacement[:, ::2].T
    deflection[idofs[::2] // 2] = d_hist[:, ::2].T
    return deflection


def state_newmark_march(M, K, forces, dt, d0=None, v0=None):
    """Average-acceleration Newmark on dense ``M``, ``K``, carrying the
    full state ``(d, v, a)``: ``(d_hist, v_hist)``, one row per row of
    ``forces``.  Each step predicts ``d + dt v + dt^2/4 a`` and
    ``v + dt/2 a``, solves ``(M + dt^2/4 K) a' = f' - K d_pred`` with
    ``np.linalg.solve``, and corrects both by ``a'``.
    """
    beta, gamma = 0.25, 0.5
    n = forces.shape[1]
    d = np.zeros(n) if d0 is None else np.array(d0, dtype=float)
    v = np.zeros(n) if v0 is None else np.array(v0, dtype=float)
    a = np.linalg.solve(M, forces[0] - K @ d)
    effective = M + beta * dt**2 * K
    d_hist, v_hist = [d], [v]
    for f in forces[1:]:
        d_pred = d + dt * v + (0.5 - beta) * dt**2 * a
        v_pred = v + (1 - gamma) * dt * a
        a = np.linalg.solve(effective, f - K @ d_pred)
        d = d_pred + beta * dt**2 * a
        v = v_pred + gamma * dt * a
        d_hist.append(d)
        v_hist.append(v)
    return np.array(d_hist), np.array(v_hist)


def newmark_velocities(d_hist, dt, v0):
    """Velocities of an average-acceleration march from its displacements.

    The rule gives ``d_{k+1} - d_k = dt (v_k + v_{k+1}) / 2``, so
    ``v_{k+1} = 2 (d_{k+1} - d_k) / dt - v_k``.  With
    ``w_k = (-1)^k v_k`` that is ``w_{k+1} = w_k + (-1)^(k+1) 2 (d_{k+1} -
    d_k) / dt``: one cumulative sum.
    """
    sign = np.where(np.arange(d_hist.shape[0]) % 2 == 0, 1.0, -1.0)[:, None]
    w = np.empty_like(d_hist)
    w[0] = v0
    w[1:] = sign[1:] * (2.0 / dt) * np.diff(d_hist, axis=0)
    return sign * np.cumsum(w, axis=0)


def uncached_optimize_lambda(G, b, lambda_grid):
    """The threshold sweep written out with no shared state.

    Every threshold recomputes the column norms and bounds, starts from a
    fresh full least-squares fit, and refits each active set it meets
    with ``np.linalg.lstsq``; the smallest loss minimizer over the sorted
    grid wins.  Returns ``(coefficients, lambda_hat, loss_curve)``.
    """
    grid = np.sort(np.asarray(lambda_grid, dtype=float))
    n = G.shape[1]

    def lstsq(A):
        return np.linalg.lstsq(A, b, rcond=None)[0]

    def mstls(lam):
        col_norms = np.linalg.norm(G, axis=0)
        with np.errstate(over="ignore"):
            ratio = np.where(col_norms > 0,
                             np.linalg.norm(b) / np.maximum(col_norms, 1e-300), np.inf)
        lower = lam * np.maximum(1.0, ratio)
        upper = (1.0 / lam) * np.minimum(1.0, ratio)
        c = lstsq(G)
        active = np.ones(n, dtype=bool)
        for _ in range(n + 1):
            keep = active & (np.abs(c) >= lower) & (np.abs(c) <= upper)
            if not keep.any():
                return np.zeros(n)
            if np.array_equal(keep, active):
                break
            active = keep
            c = np.zeros(n)
            c[active] = lstsq(G[:, active])
        return np.where(active, c, 0.0)

    c_ls = lstsq(G)
    denom = np.linalg.norm(G @ c_ls)
    solutions = [mstls(lam) for lam in grid]
    losses = np.array([
        (np.linalg.norm(G @ (c - c_ls)) / denom if denom > 0 else 0.0)
        + np.count_nonzero(c) / n
        for c in solutions
    ])
    best = int(np.argmin(losses))
    return solutions[best], float(grid[best]), np.column_stack([grid, losses])
