import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import AL_FC, AL_MESH, make_beam
from oracles import (
    analytic_beam_frequencies,
    beam_eigenfrequencies,
    dense_beam_matrices,
    dense_from_band,
    dense_newmark_solve,
    newmark_velocities,
    state_newmark_march,
)
from weakbeam import beamfem
from weakbeam.beamfem import (
    BoundaryHistory,
    FemMesh,
    assemble_matrices,
    compare,
    extract_boundaries,
    newmark_march,
    newmark_solve,
    simulate_measured,
    sweep_modulus,
)
from weakbeam.errors import (
    DegenerateDataError,
    DimensionError,
    GridError,
    ParameterError,
    WindowError,
)
from weakbeam.grid import FieldGrid
from weakbeam.material import CrossSection, modulus_from_alpha, natural_frequencies, percent_error
from weakbeam.synth import burst, generate_beam_data


def beam_frequencies(beam, length, boundary, n_modes):
    return analytic_beam_frequencies(
        beam.youngs_modulus,
        beam.section.second_moment,
        beam.density,
        beam.section.area,
        length,
        boundary,
        n_modes,
    )


def mesh_for(n_elements):
    """A mesh of ``n_elements`` on the reference rod's span."""
    return FemMesh(n_elements, AL_MESH.length / n_elements)


# ----------------------------------------------------------------------- mesh

def test_mesh_properties():
    mesh = FemMesh(10, 0.01)
    assert mesh.n_nodes == 11
    assert mesh.n_dof == 22
    assert mesh.length == pytest.approx(0.1, rel=1e-15)
    assert np.allclose(mesh.node_positions, np.arange(11) * 0.01, rtol=1e-15)


def test_mesh_validation():
    with pytest.raises(ParameterError):
        FemMesh(1, 0.01)
    with pytest.raises(ParameterError):
        FemMesh(10, 0.0)
    for dx in (1e-200, 1e150):  # dx**3 underflows, dx**2 overflows
        with pytest.raises(ParameterError, match="dx"):
            FemMesh(10, dx)
    # an element count past the float range has no length
    with pytest.raises(ParameterError, match="length"):
        FemMesh(10**400, 5e-4)


# ------------------------------------------------------------ global matrices

def test_assembly_matches_textbook_element_overlap():
    beam = make_beam()
    mesh = FemMesh(2, 0.03)
    ell = 0.03
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
    K_want = np.zeros((6, 6))
    M_want = np.zeros((6, 6))
    for e in (0, 1):
        sl = slice(2 * e, 2 * e + 4)
        K_want[sl, sl] += ke
        M_want[sl, sl] += me
    M, K = map(dense_from_band, assemble_matrices(mesh, beam))
    assert np.allclose(K, K_want, rtol=1e-15, atol=0)
    assert np.allclose(M, M_want, rtol=1e-15, atol=0)


def test_matrices_are_symmetric():
    beam = make_beam()
    M, K = map(dense_from_band, assemble_matrices(mesh_for(7), beam))
    assert np.array_equal(M, M.T)
    assert np.array_equal(K, K.T)


def test_mass_is_positive_definite():
    beam = make_beam()
    M = dense_from_band(assemble_matrices(mesh_for(8), beam)[0])
    np.linalg.cholesky(M)  # raises if not SPD


def test_stiffness_has_exactly_two_rigid_body_modes():
    beam = make_beam()
    mesh = mesh_for(8)
    K = dense_from_band(assemble_matrices(mesh, beam)[1])
    x = mesh.node_positions
    translation = np.zeros(mesh.n_dof)
    translation[0::2] = 1.0
    tilt = np.zeros(mesh.n_dof)
    tilt[0::2] = x
    tilt[1::2] = 1.0
    scale = np.abs(K).max()
    assert np.abs(K @ translation).max() <= 1e-12 * scale
    assert np.abs(K @ tilt).max() <= 1e-12 * scale * max(1.0, x.max())
    vals = np.linalg.eigvalsh(K)
    assert vals[2] > 1e-8 * scale  # third mode is genuinely stiff


def test_banded_assembly_matches_the_dense_oracle():
    beam = make_beam()
    mesh = mesh_for(9)
    M, K = assemble_matrices(mesh, beam)
    assert M.shape == K.shape == (4, mesh.n_dof)
    for band, want in zip((M, K), dense_beam_matrices(mesh, beam)):
        assert np.allclose(dense_from_band(band), want, rtol=1e-15, atol=0)
        # the top-left triangle of the band lies outside the matrix
        assert all(not band[3 - k, :k].any() for k in (1, 2, 3))


def test_matrices_require_modulus():
    with pytest.raises(ParameterError):
        assemble_matrices(FemMesh(4, 0.01), make_beam(modulus=None))


# ------------------------------------------------------------- eigensolutions

@pytest.mark.parametrize(
    "boundary", ["pinned-pinned", "clamped-free", "clamped-clamped"]
)
def test_eigenfrequencies_match_analytic(boundary):
    beam = make_beam()
    got = beam_eigenfrequencies(mesh_for(60), beam, boundary=boundary, n_modes=3)
    want = beam_frequencies(beam, AL_MESH.length, boundary, 3)
    assert np.all(np.abs(got - want) / want < 1e-5)
    assert np.all(np.diff(got) > 0)


def test_eigenfrequency_convergence_is_high_order():
    # Hermite cubics converge eigenvalues at O(dx^4): halving dx should
    # shrink the fundamental's error by about 16x; insist on at least 8x
    beam = make_beam()
    want = beam_frequencies(beam, AL_MESH.length, "pinned-pinned", 1)[0]
    errs = [
        abs(beam_eigenfrequencies(mesh_for(n), beam, n_modes=1)[0] - want) / want
        for n in (10, 20)
    ]
    assert errs[1] < errs[0]
    assert errs[0] / errs[1] >= 8.0


def test_eigenfrequency_validation():
    beam = make_beam()
    mesh = mesh_for(4)
    with pytest.raises(ParameterError):
        beam_eigenfrequencies(mesh, beam, boundary="free-free")
    with pytest.raises(ParameterError):
        beam_eigenfrequencies(mesh, beam, n_modes=0)
    with pytest.raises(ParameterError):
        beam_eigenfrequencies(mesh, beam, n_modes=99)


# ------------------------------------------------------------- time stepping

def reduced_free_vibration(beam, n_elements=20):
    # clamped-clamped: the interior dofs are all but the first and last
    # node's, a contiguous block of the band
    M, K = assemble_matrices(mesh_for(n_elements), beam)
    return M[:, 2:-2], K[:, 2:-2]


def march_energy(M, K, d_hist, dt, v0=0.0):
    v_hist = newmark_velocities(d_hist, dt, v0)
    M, K = dense_from_band(M), dense_from_band(K)
    kinetic = np.einsum("ti,ij,tj->t", v_hist, M, v_hist)
    elastic = np.einsum("ti,ij,tj->t", d_hist, K, d_hist)
    return 0.5 * (kinetic + elastic)


def test_newmark_conserves_energy():
    beam = make_beam()
    M, K = reduced_free_vibration(beam)
    rng = np.random.default_rng(0)
    d0 = 1e-4 * rng.standard_normal(M.shape[1])
    forces = np.zeros((1001, M.shape[1]))
    d_hist = newmark_march(M, K, forces, dt=1e-6, d0=d0)
    energy = march_energy(M, K, d_hist, dt=1e-6)
    assert np.abs(energy - energy[0]).max() / energy[0] < 1e-8


def test_newmark_is_stable_over_long_runs():
    beam = make_beam()
    M, K = reduced_free_vibration(beam)
    rng = np.random.default_rng(1)
    d0 = 1e-4 * rng.standard_normal(M.shape[1])
    forces = np.zeros((10001, M.shape[1]))
    d_hist = newmark_march(M, K, forces, dt=1e-6, d0=d0)
    energy = march_energy(M, K, d_hist, dt=1e-6)
    assert energy.max() <= energy[0] * (1.0 + 1e-6)


def driven_loads(n_steps, n, dt):
    # two edge-like point loads, smooth in time, on the first and last dof
    t = np.arange(n_steps + 1)[:, None] * dt
    forces = np.zeros((n_steps + 1, n))
    forces[:, :1] = 50.0 * np.sin(2 * np.pi * 2e4 * t)
    forces[:, -1:] = -20.0 * np.cos(2 * np.pi * 3e4 * t)
    return forces


@pytest.mark.parametrize("n_steps", [0, 1, 400])
@pytest.mark.parametrize("loaded, moving_start", [(False, True), (True, False), (True, True)])
def test_newmark_march_matches_the_state_oracle(n_steps, loaded, moving_start):
    beam = make_beam()
    M, K = reduced_free_vibration(beam)
    n, dt = M.shape[1], 1e-6
    rng = np.random.default_rng(n_steps)
    forces = driven_loads(n_steps, n, dt) if loaded else np.zeros((n_steps + 1, n))
    start = {}
    if moving_start:
        start = dict(d0=1e-4 * rng.standard_normal(n), v0=1e-1 * rng.standard_normal(n))
    got = newmark_march(M, K, forces, dt, **start)
    want, want_v = state_newmark_march(dense_from_band(M), dense_from_band(K), forces, dt, **start)
    assert got.shape == want.shape == forces.shape
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
    # the velocity oracle the energy tests read recovers the state's velocities
    v = newmark_velocities(got, dt, start.get("v0", 0.0))
    assert np.abs(v - want_v).max() <= 1e-9 * np.abs(want_v).max()


@pytest.mark.parametrize("record", [slice(0, None, 2), slice(1, 7), slice(5, None, 9), slice(3, 3)])
@pytest.mark.parametrize("loaded, moving_start", [(False, True), (True, False), (True, True)])
def test_newmark_march_records_the_selected_dofs(record, loaded, moving_start):
    beam = make_beam()
    M, K = reduced_free_vibration(beam)
    n, dt = M.shape[1], 1e-6
    rng = np.random.default_rng(3)
    forces = driven_loads(200, n, dt) if loaded else np.zeros((201, n))
    start = {}
    if moving_start:
        start = dict(d0=1e-4 * rng.standard_normal(n), v0=1e-1 * rng.standard_normal(n))
    full = newmark_march(M, K, forces, dt, **start)
    got = newmark_march(M, K, forces, dt, record=record, **start)
    assert got.shape == (201, len(range(n)[record]))
    assert np.array_equal(got, full[:, record])


@pytest.mark.parametrize(
    "n_elements, loaded",
    [(20, slice(0, 2)), (20, [0, 1]), (20, [0, 1, 36, 37]), (20, [37, 0]), (2, [0, 1])],
    ids=["left-slice", "left", "both-ends", "both-ends-unsorted", "two-elements"],
)
def test_newmark_march_loads_columns_like_their_dense_scatter(n_elements, loaded):
    # the left end alone, both ends (in any order) of the 38 interior dofs,
    # and a two-element mesh whose ends load the same two interior dofs
    beam = make_beam()
    M, K = reduced_free_vibration(beam, n_elements)
    n, dt = M.shape[1], 1e-6
    rng = np.random.default_rng(n_elements)
    columns = driven_loads(300, np.arange(n)[loaded].size, dt)
    dense = np.zeros((301, n))
    dense[:, loaded] = columns
    start = dict(d0=1e-4 * rng.standard_normal(n), v0=1e-1 * rng.standard_normal(n))
    got = newmark_march(M, K, columns, dt, loaded=loaded, record=slice(1, None, 3), **start)
    assert np.array_equal(got, newmark_march(M, K, dense, dt, record=slice(1, None, 3), **start))


def test_newmark_validation():
    beam = make_beam()
    M, K = reduced_free_vibration(beam, n_elements=4)
    n = M.shape[1]
    forces = np.zeros((10, n))
    for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((n, 1))):
        with pytest.raises(ParameterError):
            newmark_march(M, K, forces, dt=1e-6, d0=bad)
        with pytest.raises(ParameterError):
            newmark_march(M, K, forces, dt=1e-6, v0=bad)
    with pytest.raises(ParameterError):
        newmark_march(M, K, forces, dt=1e-6, record=[0, 2])
    # n_nodes counts leading mesh nodes: 1 .. 5 on four elements
    t = np.arange(10) * 1e-6
    bc = BoundaryHistory(t, np.zeros((t.size, 2)))
    for n_nodes in (0, -1, 6, 2.0, 2.5):
        with pytest.raises(ParameterError):
            newmark_solve(mesh_for(4), beam, bc, n_nodes=n_nodes)
    with pytest.raises(ParameterError):
        newmark_march(M, K, np.zeros((10, M.shape[1] + 1)), dt=1e-6)
    with pytest.raises(ParameterError):
        newmark_march(M, K, np.zeros((0, M.shape[1])), dt=1e-6)
    # loaded names distinct dofs in range, one per column of forces
    for loaded, width in ((slice(0, 2), 3), ([0, 1], 3), ([0, 1, n - 1], 2)):
        with pytest.raises(ParameterError):
            newmark_march(M, K, np.zeros((10, width)), dt=1e-6, loaded=loaded)
    for loaded in ([0, n], [-1, 0], [1, 1], [[0, 1]], [0.0, 1.0]):
        with pytest.raises(ParameterError):
            newmark_march(M, K, np.zeros((10, 2)), dt=1e-6, loaded=loaded)
    with pytest.raises(ParameterError):
        newmark_march(M, K, np.zeros((10, M.shape[1])), dt=0.0)
    # dense n x n matrices are not the banded operators the march reads
    dense_M, dense_K = dense_from_band(M), dense_from_band(K)
    with pytest.raises(ParameterError):
        newmark_march(dense_M, dense_K, np.zeros((10, M.shape[1])), dt=1e-6)
    with pytest.raises(ParameterError):
        newmark_march(M, dense_K, np.zeros((10, M.shape[1])), dt=1e-6)


@pytest.mark.parametrize("bad", ["forces", "d0", "v0"])
def test_newmark_rejects_non_finite_input(bad):
    beam = make_beam()
    M, K = reduced_free_vibration(beam, n_elements=4)
    n = M.shape[1]
    given = {"forces": np.zeros((10, n)), "d0": np.zeros(n), "v0": np.zeros(n)}
    given[bad].flat[-1] = np.nan
    with pytest.raises(ParameterError):
        newmark_march(M, K, given["forces"], dt=1e-6, d0=given["d0"], v0=given["v0"])


def test_quiet_boundaries_leave_the_beam_at_rest():
    beam = make_beam()
    mesh = mesh_for(10)
    t = np.arange(50) * 1e-6
    bc = BoundaryHistory(t, np.zeros((t.size, 2)))
    sol = newmark_solve(mesh, beam, bc)
    assert np.array_equal(sol.values, np.zeros((mesh.n_nodes, t.size)))


def test_driven_fundamental_mode_tracks_analytic_solution():
    # prescribe the exact end rotations of the first pinned-pinned mode
    # and start the interior from its shape: it must follow sin(kx) cos(wt);
    # the ends load the interior through the coupling blocks of M and K
    beam = make_beam()
    mesh = mesh_for(100)
    length = mesh.length
    x = mesh.node_positions
    k = np.pi / length
    f1 = beam_frequencies(beam, length, "pinned-pinned", 1)[0]
    omega = 2 * np.pi * f1
    dt = 1.0 / (200.0 * f1)
    t = np.arange(101) * dt
    rot = k * np.cos(omega * t)
    zeros = np.zeros_like(t)
    bc = BoundaryHistory(t, np.column_stack([zeros, rot, zeros, -rot]))
    d0 = np.zeros(mesh.n_dof)
    d0[0::2] = np.sin(k * x)
    d0[1::2] = k * np.cos(k * x)
    M, K = assemble_matrices(mesh, beam)
    inner, ends = slice(2, -2), [0, 1, mesh.n_dof - 2, mesh.n_dof - 1]
    M_ib, K_ib = (dense_from_band(a)[inner, ends] for a in (M, K))
    forces = -bc.acceleration @ M_ib.T - bc.displacement @ K_ib.T
    d_hist = newmark_march(M[:, inner], K[:, inner], forces, dt, d0=d0[inner])
    want = np.sin(k * x)[1:-1, None] * np.cos(omega * t)[None, :]
    err = np.abs(d_hist[:, 0::2].T - want).max() / np.abs(want).max()
    assert err < 5e-3


@pytest.mark.parametrize("n_elements, free_right", [(12, True), (12, False), (2, False)])
def test_newmark_solve_matches_the_dense_oracle(n_elements, free_right):
    beam = make_beam()
    mesh = mesh_for(n_elements)
    t = np.arange(301) * 2e-7
    ends = [1e-3 * np.sin(2 * np.pi * 2e4 * t), 0.02 * np.sin(2 * np.pi * 3e4 * t)]
    if not free_right:
        ends += [-5e-4 * np.sin(2 * np.pi * 1e4 * t), 0.01 * np.cos(2 * np.pi * 4e4 * t)]
    bc = BoundaryHistory(t, np.column_stack(ends))
    full = newmark_solve(mesh, beam, bc).values
    want = dense_newmark_solve(mesh, beam, bc)
    assert np.abs(full - want).max() <= 1e-9 * np.abs(want).max()
    # the leading nodes alone: the same rows, bit for bit
    for k in sorted({1, 2, mesh.n_nodes // 2, mesh.n_nodes}):
        got = newmark_solve(mesh, beam, bc, n_nodes=k)
        assert np.array_equal(got.x, mesh.node_positions[:k])
        assert np.array_equal(got.values, full[:k])
        assert np.abs(got.values - want[:k]).max() <= 1e-9 * np.abs(want[:k]).max()


def test_newmark_solve_allocates_the_loads_and_the_recorded_nodes_only():
    beam = make_beam()
    mesh = mesh_for(200)
    t = np.arange(2501) * 2e-7
    drive = 1e-3 * np.sin(2 * np.pi * 2e4 * t)
    bc = BoundaryHistory(t, np.column_stack([drive, np.zeros_like(t)]))
    n_nodes = 21
    # the march takes the two edge load columns, never a dense load matrix
    dense_loads = t.size * (mesh.n_dof - 2) * 8
    recorded = t.size * n_nodes * 8
    tracemalloc.start()
    try:
        newmark_solve(mesh, beam, bc, n_nodes=n_nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * recorded + 0.5e6 < dense_loads / 4


def test_solver_rejects_nonuniform_history():
    t = np.array([0.0, 1e-6, 2e-6, 4e-6, 8e-6])
    zeros = np.zeros((t.size, 2))
    with pytest.raises(GridError):
        BoundaryHistory(t=t, displacement=zeros)
    with pytest.raises(GridError):  # the same rule as a field's
        FieldGrid(np.arange(2.0), t, zeros.T)


def test_replay_accepts_every_time_axis_the_grid_accepts():
    # steps of dt (1 + 0.9e-9), then dt (1 - 0.9e-9): each within the grid's
    # 1e-9 spacing rule, while the drift from t0 + k dt reaches 9e-7 dt
    beam = make_beam()
    dt, half = 8e-7, 1000
    clean = generate_beam_data(
        beam, FemMesh(39, 5e-4), AL_FC, dt=dt, t_end=2 * half * dt, margin_frac=0.5
    )
    steps = np.repeat([dt * (1 + 0.9e-9), dt * (1 - 0.9e-9)], half)
    t = np.concatenate([[0.0], np.cumsum(steps)])
    skewed = FieldGrid(clean.x, t, clean.values)
    assert skewed.values.shape == (40, 2001)
    replay = simulate_measured(skewed, beam)
    assert replay.frobenius_rel == pytest.approx(
        simulate_measured(clean, beam).frobenius_rel, rel=1e-6
    )


# -------------------------------------------------------- boundary extraction

def second_difference(series, dt):
    """The per-column reference: the three stencils written out on one series."""
    out = np.empty_like(series)
    out[1:-1] = (series[2:] - 2.0 * series[1:-1] + series[:-2]) / dt**2
    out[0] = (2.0 * series[0] - 5.0 * series[1] + 4.0 * series[2] - series[3]) / dt**2
    out[-1] = (2.0 * series[-1] - 5.0 * series[-2] + 4.0 * series[-3] - series[-4]) / dt**2
    return out


def test_second_difference_is_exact_on_quadratics():
    dt = 0.1
    t = np.arange(12) * dt
    series = 3.0 * t**2 - 2.0 * t + 1.0
    acc = BoundaryHistory(t, np.column_stack([series, -series])).acceleration
    assert np.allclose(acc[:, 0], 6.0, rtol=1e-10, atol=0)
    assert np.allclose(acc[:, 1], -6.0, rtol=1e-10, atol=0)


@pytest.mark.parametrize("n_columns", [2, 4])
def test_acceleration_equals_the_per_column_stencils_bit_for_bit(n_columns):
    rng = np.random.default_rng(n_columns)
    t = np.arange(200) * 8e-7
    d = rng.standard_normal((t.size, n_columns))
    bc = BoundaryHistory(t, d)
    want = np.column_stack([second_difference(s, bc.dt) for s in d.T])
    assert np.array_equal(bc.acceleration, want)


def test_second_difference_validation():
    # the stencils need four samples on a uniform, increasing time axis
    with pytest.raises(ParameterError):
        BoundaryHistory(np.arange(3) * 0.1, np.ones((3, 2)))
    with pytest.raises(GridError):
        BoundaryHistory(np.zeros(10), np.ones((10, 2)))
    with pytest.raises(GridError, match="past the float range"):  # finite samples
        BoundaryHistory(np.array([-1.5, -0.5, 0.5, 1.5]) * 1e308, np.ones((4, 2)))
    with pytest.raises(ParameterError):
        BoundaryHistory(np.arange(5) * 0.1, np.ones((5, 5)))


def test_boundary_history_validation():
    t = np.arange(10) * 1e-6
    zeros = np.zeros_like(t)
    with pytest.raises(ParameterError):
        BoundaryHistory(t[:3], np.zeros((3, 2)))
    with pytest.raises(ParameterError):
        BoundaryHistory(t, np.zeros((5, 2)))
    with pytest.raises(ParameterError):
        BoundaryHistory(
            t=t,
            displacement=np.zeros((t.size, 3)),  # right rotation missing
        )
    bc = BoundaryHistory(t, np.column_stack([zeros, zeros]))
    assert bc.free_right
    both = BoundaryHistory(t, np.zeros((t.size, 4)))
    assert not both.free_right
    assert both.dt == pytest.approx(1e-6, rel=1e-12)


def test_extract_constant_field_has_flat_edges():
    g = FieldGrid(np.arange(30) * 1e-3, np.arange(40) * 1e-6, np.full((30, 40), 2.5))
    bc = extract_boundaries(g)
    left_w, left_rot, right_w, right_rot = bc.displacement.T
    assert np.allclose(left_w, 2.5, rtol=1e-15, atol=0)
    assert np.allclose(right_w, 2.5, rtol=1e-15, atol=0)
    assert np.abs(left_rot).max() <= 1e-10
    assert np.abs(right_rot).max() <= 1e-10
    assert np.abs(bc.acceleration[:, 0]).max() <= 1e-10


def test_extract_recovers_sinusoid_rotation():
    # an on-bin spatial sinusoid is exactly representable by the fit
    # basis, so the edge slope comes back to within round-off scales
    n_x, n_t = 50, 12
    dx = 1e-3
    x = np.arange(n_x) * dx
    k = 2 * np.pi * 2 / (n_x * dx)
    c = np.linspace(1.0, 2.0, n_t)
    g = FieldGrid(x, np.arange(n_t) * 1e-6, np.sin(k * x)[:, None] * c[None, :])
    bc = extract_boundaries(g)
    want_left = k * c
    want_right = k * np.cos(k * x[-1]) * c
    assert np.allclose(bc.displacement[:, 1], want_left, rtol=1e-8, atol=0)
    assert np.allclose(bc.displacement[:, 3], want_right, rtol=1e-6, atol=1e-8 * k)


def test_extract_linear_in_time_has_zero_acceleration():
    n_x, n_t = 30, 20
    x = np.arange(n_x) * 1e-3
    t = np.arange(n_t) * 1e-6
    g = FieldGrid(x, t, np.outer(np.cos(5 * x), 2.0 + 3e4 * t))
    bc = extract_boundaries(g)
    scale = np.abs(g.values[0]).max() / g.dt**2
    assert np.abs(bc.acceleration[:, 0]).max() <= 1e-10 * scale


def test_extract_validation():
    # the edge fit needs 3 samples for its smallest basis, order 1
    t = np.arange(10) * 1e-6
    for n_x in (1, 2):
        g = FieldGrid(np.arange(n_x) * 1e-3, t, np.ones((n_x, 10)))
        with pytest.raises(ParameterError, match="3 spatial samples"):
            extract_boundaries(g)
    three = FieldGrid(np.arange(3) * 1e-3, t, np.ones((3, 10)))
    assert np.abs(extract_boundaries(three).displacement[:, [1, 3]]).max() <= 1e-10


# ------------------------------------------------------------------ compare

def grid_pair(n_x=8, n_t=10, seed=0):
    rng = np.random.default_rng(seed)
    x = np.arange(n_x) * 1e-3
    t = np.arange(n_t) * 1e-6
    return FieldGrid(x, t, rng.standard_normal((n_x, n_t)))


def test_compare_identity_is_zero_error():
    g = grid_pair()
    assert compare(g, g) == 0.0


def test_compare_zero_simulation_scores_one():
    g = grid_pair()
    zero = FieldGrid(g.x, g.t, np.zeros_like(g.values))
    assert compare(g, zero) == pytest.approx(1.0, rel=1e-14)


def test_compare_validation():
    g = grid_pair()
    with pytest.raises(DimensionError):
        compare(g, grid_pair(n_x=9))
    shifted = FieldGrid(g.x + 1e-3, g.t, g.values)
    with pytest.raises(DimensionError):
        compare(g, shifted)
    zero = FieldGrid(g.x, g.t, np.zeros_like(g.values))
    with pytest.raises(DegenerateDataError):
        compare(zero, g)


# -------------------------------------------------- measured-field simulation

def test_simulation_reproduces_generated_data(edge_field):
    result = simulate_measured(edge_field, make_beam())
    assert result.frobenius_rel < 1e-3
    assert result.field.values.shape == edge_field.values.shape
    assert np.array_equal(result.field.x, edge_field.x)
    assert extract_boundaries(edge_field).free_right is False


def corner_at(edge_field, x0, dx=5e-4):
    """The 10x200 corner of the edge field, its x axis moved to ``x0 + k dx``."""
    return FieldGrid(x0 + dx * np.arange(10), edge_field.t[:200], edge_field.values[:10, :200])


def test_simulation_keeps_the_data_positions(edge_field):
    # a scan stored with its true positions replays like the same samples at 0
    offset = corner_at(edge_field, 0.01)
    result = simulate_measured(offset, make_beam())
    assert np.array_equal(result.field.x, offset.x)
    assert np.array_equal(result.field.t, offset.t)
    at_zero = simulate_measured(corner_at(edge_field, 0.0), make_beam())
    assert result.frobenius_rel == pytest.approx(at_zero.frobenius_rel, rel=1e-9)


@pytest.mark.parametrize("dx", [1e-200, 1e150])
def test_replay_rejects_a_dx_without_finite_element_matrices(edge_field, dx):
    data = corner_at(edge_field, 0.0, dx=dx)
    beam = make_beam()
    with pytest.raises(ParameterError, match="dx"):
        simulate_measured(data, beam)
    with pytest.raises(ParameterError, match="dx"):
        sweep_modulus(data, beam, 6e10, 8e10, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "dx, field",
    [
        pytest.param(1e-76, "tapered", id="1e-76"),
        pytest.param(1e-100, "tapered", id="1e-100"),
        pytest.param(1e-60, "random", id="random-1e-60"),
        pytest.param(1e-76, "random", id="random-1e-76"),
        pytest.param(1e-100, "random", id="random-1e-100"),
        pytest.param(2e-103, "random", id="random-2e-103"),
    ],
)
def test_sweep_without_a_finite_error_is_degenerate_data(dx, field):
    # E lam overflows at 1e-76 and the march reads inf * 0; at 1e-100 the
    # modal rates lam overflow already, before the march.  Either way the
    # sweep raises, never returns NaN, and warns of nothing.  On the random
    # field the simulation's own march overflows too, and it raises as well;
    # on the tapered one it still answers.  At 2e-103 the mesh accepts dx,
    # but the element stiffness EI / dx^3 overflows
    t = np.arange(200) * 1e-6
    x = np.arange(10) * dx
    if field == "tapered":
        data = FieldGrid(x, t, np.linspace(1.0, 0.5, 10)[:, None] * np.sin(2e4 * t))
    else:
        data = FieldGrid(x, t, np.random.default_rng(0).normal(size=(10, 200)))
        with pytest.raises(DegenerateDataError, match="dx"):
            simulate_measured(data, make_beam())
    with pytest.raises(DegenerateDataError):
        sweep_modulus(data, make_beam(), 6e10, 8e10, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_with_an_overflowing_stiffness_is_degenerate_data():
    # at 8e-103 the mesh accepts dx and one element's EI / dx^3 is finite,
    # but the sum of two at a shared node overflows; edges at rest leave
    # the loads finite, so only the stiffness shows it
    bc = BoundaryHistory(np.arange(200) * 1e-6, np.zeros((200, 4)))
    with pytest.raises(DegenerateDataError, match="dx"):
        newmark_solve(FemMesh(9, 8e-103), make_beam(), bc)


def noise_field(dx, dt, scale=1.0):
    """A 3x20 field of seeded white noise at spacing ``dx`` and step ``dt``."""
    values = np.random.default_rng(0).standard_normal((3, 20))
    return FieldGrid(np.arange(3) * dx, np.arange(20) * dt, scale * values)


def wave_field(dt):
    """The noisy 40x60 standing wave at dx 5e-4 that the acceptance test
    of extreme time steps replays."""
    x = np.arange(40) * 5e-4
    values = np.sin(2 * np.pi * x / 0.01)[:, None] * np.cos(2 * np.pi * np.arange(60) / 12)
    noise = 0.01 * np.random.default_rng(0).standard_normal(values.shape)
    return FieldGrid(x, np.arange(60) * dt, values + noise)


def simulated(data):
    return lambda: simulate_measured(data, make_beam())


def swept(data):
    return lambda: sweep_modulus(data, make_beam(), 6.9e10, 7.59e10, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "error, call, message",
    [
        pytest.param(
            DegenerateDataError, simulated(wave_field(1e-200)),
            "time step dt = 1e-200 is outside the replay's range: dt**2 is 0",
            id="dt-squared-simulated",
        ),
        pytest.param(
            DegenerateDataError, swept(wave_field(1e155)),
            "time step dt = 1e+155 is outside the replay's range: dt**2 is inf",
            id="dt-squared-swept",
        ),
        pytest.param(
            DegenerateDataError, simulated(wave_field(1e150)),
            "M + dt**2/4 K overflows at time step dt = 1e+150",
            id="effective-matrix",
        ),
        pytest.param(
            DegenerateDataError, simulated(noise_field(1e-100, 1e-150)),
            "the simulated deflections are not finite at spacing dx = 1e-100 "
            "and time step dt = 1e-150",
            id="deflections-loads",
        ),
        pytest.param(
            DegenerateDataError, lambda: newmark_solve(
                FemMesh(9, 8e-103),
                make_beam(),
                BoundaryHistory(np.arange(200) * 1e-6, np.zeros((200, 4))),
            ),
            "the simulated deflections are not finite at spacing dx = 8e-103 "
            "and time step dt = 1e-06",
            id="deflections-stiffness",
        ),
        pytest.param(
            DegenerateDataError, simulated(noise_field(1e-100, 1e-100)),
            "the simulated deflections are not finite at spacing dx = 1e-100 "
            "and time step dt = 1e-100",
            id="deflections-march",
        ),
        pytest.param(
            DegenerateDataError, simulated(noise_field(1e-36, 1e20)),
            "the simulation error is not finite at spacing dx = 1e-36 and time step dt = 1e+20",
            id="simulation-error",
        ),
        pytest.param(
            DegenerateDataError,
            lambda: compare(noise_field(1.0, 1.0), noise_field(1.0, 1.0, 1e300)),
            "the simulation error is not finite",
            id="compare",
        ),
        pytest.param(
            DegenerateDataError, simulated(noise_field(1e-60, 1e-100, 2.0**1000)),
            "the simulated deflections overflow the data's units",
            id="scale-back",
        ),
        pytest.param(
            DegenerateDataError, swept(noise_field(1e-76, 1e10)),
            "the stiffest mode's q E lam overflows at spacing dx = 1e-76 and time step dt = 1e+10",
            id="q-e-lam",
        ),
        pytest.param(
            DegenerateDataError, swept(noise_field(1e-100, 1e-150)),
            "the modal rates overflow at spacing dx = 1e-100",
            id="modal-rates",
        ),
        pytest.param(
            DegenerateDataError, swept(noise_field(1e-76, 1e-150)),
            "the modal replay's simulation error is not finite at spacing dx = 1e-76 "
            "and time step dt = 1e-150",
            id="modal-replay",
        ),
        # a value that is not finite and positive names itself
        pytest.param(
            ParameterError, lambda: modulus_from_alpha(0.0, make_beam(modulus=None)),
            "alpha must be finite and positive, got 0.0",
            id="alpha",
        ),
        pytest.param(
            ParameterError, lambda: percent_error(1.0, -1.0),
            "nominal modulus must be finite and positive, got -1.0",
            id="nominal",
        ),
        pytest.param(
            ParameterError, lambda: natural_frequencies(make_beam(), -0.1),
            "length must be finite and positive, got -0.1",
            id="length",
        ),
        pytest.param(
            ParameterError, lambda: burst(np.zeros(3), np.nan),
            "center frequency must be finite and positive, got nan",
            id="burst-fc",
        ),
        # noise past the float range names its scale
        pytest.param(
            ParameterError,
            lambda: generate_beam_data(
                make_beam(), FemMesh(4, 5e-4), AL_FC, dt=1e-6, t_end=3e-4, sigma_rel=1e308
            ),
            "the noise of sigma_rel = 1e+308 leaves the float range",
            id="noise",
        ),
        # and a section's dimensions name their kind
        pytest.param(
            ParameterError, lambda: CrossSection.circle(0.0),
            "circle needs a finite diameter > 0, got 0.0",
            id="circle",
        ),
        pytest.param(
            ParameterError, lambda: CrossSection.rectangle(1e-3, math.inf),
            "rectangle needs finite width, thickness > 0, got 0.001, inf",
            id="rectangle",
        ),
        pytest.param(
            ParameterError, lambda: CrossSection.circle(1e-160),
            "the circle section's area or second moment leaves the float range at d = 1e-160",
            id="circle-float-range",
        ),
        pytest.param(
            ParameterError, lambda: CrossSection.rectangle(1e200, 1e200),
            "the rectangle section's area or second moment leaves the float range "
            "at w = 1e+200, t = 1e+200",
            id="rectangle-float-range",
        ),
    ],
)
def test_float_range_errors_keep_their_messages(error, call, message):
    # each value that leaves the float range raises DegenerateDataError
    # with this exact text, naming the grid where a replay meets it; an
    # input out of range raises ParameterError
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("density", [3.6e305, 7.3e305])
def test_overflowing_mass_names_the_mass_not_dt(density):
    # rho A dx**3 leaves the float range while K and the loads (edges at
    # rest) stay finite: no time step would help, so dt goes unnamed
    beam = replace(make_beam(), density=density)
    bc = BoundaryHistory(np.arange(200) * 1e-6, np.zeros((200, 2)))
    with pytest.raises(DegenerateDataError) as info:
        newmark_solve(FemMesh(9, 1000.0), beam, bc)
    assert str(info.value) == (
        f"the consistent mass overflows at density rho = {density:g}, "
        f"area A = {beam.section.area:g} and spacing dx = 1000"
    )


def test_simulation_error_grows_with_wrong_modulus(edge_field):
    good = simulate_measured(edge_field, make_beam())
    bad = simulate_measured(edge_field, make_beam(modulus=0.5 * 6.9e10))
    assert bad.frobenius_rel > 10 * good.frobenius_rel


def test_sweep_prefers_the_true_modulus(edge_field):
    true_e = 6.9e10
    sweep = sweep_modulus(edge_field, make_beam(), 0.95 * true_e, 1.05 * true_e, 3)
    assert sweep.moduli.shape == (3,) and sweep.errors.shape == (3,)
    assert int(np.argmin(sweep.errors)) == 1
    assert sweep.best_modulus == pytest.approx(true_e, rel=1e-12)
    assert sweep.best_error == sweep.errors.min()
    assert sweep.bracketed


@pytest.mark.parametrize("side", [0.9, 1.1])
def test_sweep_on_one_side_of_the_modulus_is_not_bracketed(edge_field, side):
    # the smallest error sits at the grid's end nearest the true modulus,
    # which the grid does not reach
    true_e = 6.9e10
    lo, hi = sorted((side * true_e, (2 * side - 1) * true_e))
    sweep = sweep_modulus(edge_field, make_beam(), lo, hi, 3)
    assert int(np.argmin(sweep.errors)) == (2 if side < 1 else 0)
    assert not sweep.bracketed


def test_sweep_validation(edge_field):
    beam = make_beam()
    with pytest.raises(ParameterError):
        sweep_modulus(edge_field, beam, 2.0, 1.0, 5)
    with pytest.raises(ParameterError):
        sweep_modulus(edge_field, beam, 0.0, 1.0, 5)
    # the count is an integer >= 2: a float would be truncated or fail in NumPy
    for n_values in (1, 2.7, 3.0, np.nan, True):
        with pytest.raises(ParameterError, match="n_values"):
            sweep_modulus(edge_field, beam, 1.0, 2.0, n_values)


@pytest.mark.parametrize("n_values", [10**18, 2**63 - 1, 2**63, 10**30])
def test_sweep_refuses_a_count_numpy_cannot_hold(edge_field, monkeypatch, n_values):
    # counts no machine can allocate; NumPy refuses each a different way,
    # and the refusal comes before the edges are extracted
    def extract(*args, **kwargs):
        raise AssertionError("the sweep extracted edges")

    monkeypatch.setattr(beamfem, "extract_boundaries", extract)
    with pytest.raises(ParameterError, match="trial moduli"):
        sweep_modulus(edge_field, make_beam(), 6.5e10, 7.3e10, n_values)


def three_point_field():
    """The smallest mesh: two elements, so both ends load the same two dofs."""
    t = np.arange(400) * 1e-6
    phase = np.array([[0.0], [0.4], [0.7]])
    return FieldGrid(np.arange(3) * 1e-3, t, np.sin(2e4 * t + phase) * [[1.0], [0.8], [1.1]])


def sweep_and_per_trial(data, **kwargs):
    """The sweep's errors over 7 moduli, and simulate_measured's at each."""
    sweep = sweep_modulus(data, make_beam(), 0.9 * 6.9e10, 1.1 * 6.9e10, 7, **kwargs)
    per_trial = np.array(
        [
            simulate_measured(data, make_beam(modulus=float(e)), **kwargs).frobenius_rel
            for e in sweep.moduli
        ]
    )
    return sweep, per_trial


@pytest.fixture(scope="module")
def edge_field_sweep(edge_field):
    return sweep_and_per_trial(edge_field)


@pytest.mark.parametrize(
    "case", ["edge-field", "windowed", "three-points", "times-2^600", "times-2^-600"]
)
def test_sweep_matches_per_trial_simulation(edge_field, edge_field_sweep, case):
    data, kwargs = {
        "edge-field": (edge_field, {}),
        "windowed": (edge_field, {"window": (2e-4, 1.5e-3)}),
        "three-points": (three_point_field(), {}),
        "times-2^600": (FieldGrid(edge_field.x, edge_field.t, 2.0**600 * edge_field.values), {}),
        "times-2^-600": (FieldGrid(edge_field.x, edge_field.t, 2.0**-600 * edge_field.values), {}),
    }[case]
    sweep, per_trial = (
        edge_field_sweep if case == "edge-field" else sweep_and_per_trial(data, **kwargs)
    )
    assert np.abs(sweep.errors - per_trial).max() <= 1e-6
    assert sweep.best_modulus == sweep.moduli[np.argmin(per_trial)]
    if case.startswith("times"):
        # a power-of-two scale is exact: the errors are the unscaled field's
        assert np.array_equal(sweep.errors, edge_field_sweep[0].errors)
        assert np.array_equal(per_trial, edge_field_sweep[1])


def test_replay_sweep_stays_within_the_per_trial_gap(edge_field):
    # the benchmark's replay sweep: 21 moduli over +-5 % on the 195 x 2501
    # field.  One full-size basis in stiffness form is 3.2e-8 from
    # simulate_measured here, the mirror halves in flexibility form 1.5e-10
    sweep = sweep_modulus(edge_field, make_beam(), 0.95 * 6.9e10, 1.05 * 6.9e10, 21)
    per_trial = [
        simulate_measured(edge_field, make_beam(modulus=float(e))).frobenius_rel
        for e in sweep.moduli
    ]
    assert np.abs(sweep.errors - per_trial).max() <= 3e-9
    assert sweep.best_modulus == sweep.moduli[10] == 6.9e10


@pytest.mark.parametrize("n_x", [3, 4, 40, 195])
def test_modal_basis_solves_the_mirror_halves(n_x):
    # with both ends prescribed the mirror x -> L - x maps the interior onto
    # itself, keeping w and flipping w_x: the first half of the modes is even
    # under it and the rest odd, bit for bit, and together they diagonalise
    # M and K.  In flexibility form the slow modes are M-orthonormal to
    # about eps and the stiffest to about eps lam_max / lam_min
    mesh = FemMesh(n_x - 1, 5e-4)
    beam = make_beam(modulus=1.0)
    n_inner = mesh.n_dof - 4
    lam, phi = beamfem._modal_basis(mesh, beam, n_inner)
    mirror = np.arange(n_inner).reshape(-1, 2)[::-1].ravel()
    flip = np.tile([1.0, -1.0], n_inner // 2)[:, None]
    half = n_inner // 2
    assert np.array_equal(flip * phi[mirror, :half], phi[:, :half])
    assert np.array_equal(flip * phi[mirror, half:], -phi[:, half:])
    M, K = (dense_from_band(a)[2:-2, 2:-2] for a in assemble_matrices(mesh, beam))
    eps = np.finfo(float).eps
    scale = np.sqrt(np.outer(lam, lam)) / lam.min()
    assert np.all(np.abs(phi.T @ M @ phi - np.eye(n_inner)) <= 64 * eps * scale)
    assert np.all(np.abs(phi.T @ K @ phi - np.diag(lam)) <= 64 * eps * lam.max())


def test_sweep_failed_eigensolve_is_degenerate_data(edge_field, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(DegenerateDataError, match="modal basis") as info:
        sweep_modulus(edge_field, make_beam(), 1.0, 2.0, 3)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"window": (1e-3, 0.0)}, WindowError),
        ({"window": (1.0, 2.0)}, WindowError),
    ],
    ids=["reversed-window", "window-past-the-data"],
)
def test_sweep_fails_before_any_march(edge_field, monkeypatch, kwargs, error):
    from weakbeam import beamfem

    def never(*_, **__):
        raise AssertionError("marched")

    for name in ("_modal_basis", "_march_modes", "newmark_march"):
        monkeypatch.setattr(beamfem, name, never)
    with pytest.raises(error):
        sweep_modulus(edge_field, make_beam(), 1.0, 2.0, 3, **kwargs)


def test_replays_refuse_a_window_of_zeros_before_any_march(edge_field, monkeypatch):
    from weakbeam import beamfem

    def never(*_, **__):
        raise AssertionError("marched")

    for name in ("_modal_basis", "_march_modes", "newmark_march"):
        monkeypatch.setattr(beamfem, name, never)
    values = edge_field.values.copy()
    values[:, :100] = 0.0
    quiet = FieldGrid(edge_field.x, edge_field.t, values)
    window = (edge_field.t[10], edge_field.t[60])
    with pytest.raises(DegenerateDataError) as simulated:
        simulate_measured(quiet, make_beam(), window=window)
    with pytest.raises(DegenerateDataError) as swept:
        sweep_modulus(quiet, make_beam(), 1.0, 2.0, 3, window=window)
    assert str(simulated.value) == str(swept.value) == "measured field is identically zero"


def test_simulate_checks_the_window_before_the_march(edge_field, monkeypatch):
    from weakbeam import beamfem

    def never(*_, **__):
        raise AssertionError("marched")

    monkeypatch.setattr(beamfem, "newmark_march", never)
    for window in ((1e-3, 0.0), (np.nan, np.nan)):
        with pytest.raises(WindowError):
            simulate_measured(edge_field, make_beam(), window=window)
