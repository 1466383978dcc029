import numpy as np
import pytest

from conftest import AL_FC, AL_MESH, make_beam
from weakbeam.beamfem import FemMesh
from weakbeam.errors import ParameterError
from weakbeam.sparse import optimize_lambda
from weakbeam.synth import burst, generate_beam_data
from weakbeam.weakform import (
    TERM_NAMES,
    assemble,
    mean_power_spectrum,
    rescale,
    select_support,
    spectral_corner,
    unscale_coefficients,
)

SMALL_MESH = FemMesh(40, 5e-4)


def small_field(sigma_rel=0.0, seed=0, margin_frac=0.5):
    return generate_beam_data(
        make_beam(),
        SMALL_MESH,
        AL_FC,
        dt=8e-7,
        t_end=4e-4,
        sigma_rel=sigma_rel,
        seed=seed,
        margin_frac=margin_frac,
    )


# ----------------------------------------------------------------- the burst

def test_burst_is_gated_outside_its_window():
    end = 5 / AL_FC
    t = np.array([-1.0, -1e-12, 0.0, end, end + 1e-12, 1.0])
    assert np.array_equal(burst(t, AL_FC), np.zeros(6))


def test_burst_center_is_a_carrier_zero():
    mid = 2.5 / AL_FC
    assert abs(burst(np.array([mid]), AL_FC)[0]) <= 1e-12


def test_burst_matches_its_formula():
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 5 / AL_FC, size=64)
    want = np.sin(0.2 * np.pi * 1e4 * t) * np.sin(2 * np.pi * 1e4 * t)
    assert np.allclose(burst(t, AL_FC), want, rtol=0, atol=1e-15)


def test_burst_respects_amplitude_bound():
    t = np.linspace(-1e-4, 5 / 2e3 + 1e-4, 5001)
    assert np.abs(burst(t, 2e3)).max() <= 1.0


def test_burst_spec_validation():
    # the burst is fixed but for its center frequency, finite and positive
    for fc in (0.0, -1e4, np.inf, np.nan):
        with pytest.raises(ParameterError):
            burst(np.linspace(0.0, 1e-3, 11), fc)
        with pytest.raises(ParameterError):
            generate_beam_data(make_beam(), SMALL_MESH, fc, dt=8e-7, t_end=1e-3)


# ----------------------------------------------------------- field generation

def test_generated_axes_match_request():
    g = small_field()
    assert g.n_x == SMALL_MESH.n_nodes
    assert np.array_equal(g.x, SMALL_MESH.node_positions)
    assert g.n_t == 501
    assert g.dt == pytest.approx(8e-7, rel=1e-12)
    assert g.t[0] == 0.0


def test_same_seed_reproduces_the_field():
    a = small_field(sigma_rel=0.02, seed=3)
    b = small_field(sigma_rel=0.02, seed=3)
    assert np.array_equal(a.values, b.values)


def test_different_seeds_differ():
    a = small_field(sigma_rel=0.02, seed=0)
    b = small_field(sigma_rel=0.02, seed=1)
    assert not np.array_equal(a.values, b.values)


def test_tiny_noise_stays_tiny():
    clean = small_field(sigma_rel=0.0)
    dusted = small_field(sigma_rel=1e-12, seed=2)
    peak = np.abs(clean.values).max()
    diff = np.abs(dusted.values - clean.values).max()
    assert 0 < diff <= 1e-11 * peak


def test_noise_statistics():
    clean = small_field()
    noisy = small_field(sigma_rel=0.02, seed=0)
    noise = noisy.values - clean.values
    sigma = 0.02 * np.abs(clean.values).max()
    assert abs(noise.mean()) <= 3.0 * sigma / np.sqrt(noise.size)
    assert noise.std() == pytest.approx(sigma, rel=0.1)


def test_margin_changes_late_time_response():
    # reflections from the artificial truncation differ with margin length
    a = small_field(margin_frac=0.0)
    b = small_field(margin_frac=1.0)
    assert not np.allclose(a.values, b.values, rtol=1e-3, atol=0)


def test_generation_validation():
    beam = make_beam()
    with pytest.raises(ParameterError):
        generate_beam_data(beam, SMALL_MESH, AL_FC, dt=1e-5, t_end=1e-3)
    with pytest.raises(ParameterError):
        generate_beam_data(beam, SMALL_MESH, AL_FC, dt=0.0, t_end=1e-3)
    with pytest.raises(ParameterError):
        generate_beam_data(beam, SMALL_MESH, AL_FC, dt=8e-7, t_end=1e-7)
    with pytest.raises(ParameterError):
        generate_beam_data(beam, SMALL_MESH, AL_FC, dt=8e-7, t_end=1e-3, sigma_rel=-0.1)
    with pytest.raises(ParameterError):
        generate_beam_data(beam, SMALL_MESH, AL_FC, dt=8e-7, t_end=1e-3, margin_frac=-1.0)
    # step counts NumPy refuses outright: 1e197 steps, and 1e200 steps
    # where fc * dt underflows to 0
    with pytest.raises(ParameterError, match="time steps"):
        generate_beam_data(beam, SMALL_MESH, AL_FC, dt=1e-200, t_end=1e-3)
    with pytest.raises(ParameterError, match="time steps"):
        generate_beam_data(beam, SMALL_MESH, 1e-200, dt=1e-200, t_end=1.0)


def test_clean_field_satisfies_planted_weak_form():
    # the planted stiffness alpha = E I / rho A should nearly annihilate
    # the weak residual; what remains is FEM and time-march discretization
    beam = make_beam()
    field = generate_beam_data(
        beam, AL_MESH, AL_FC, dt=1.6e-7, t_end=1e-3, margin_frac=4.0
    )
    alpha = beam.youngs_modulus * beam.section.second_moment / (
        beam.density * beam.section.area
    )
    bins = tuple(
        spectral_corner(mean_power_spectrum(field, axis)).corner_bin for axis in (0, 1)
    )
    basis = select_support(field, bins)
    system = assemble(field, basis, scales=rescale(field, basis))
    c_raw = np.zeros(len(TERM_NAMES))
    c_raw[TERM_NAMES.index("w_xxxx")] = -alpha
    c_scaled = c_raw / unscale_coefficients(system, np.ones(len(TERM_NAMES)))
    resid = np.linalg.norm(system.b - system.G @ c_scaled) / np.linalg.norm(system.b)
    assert resid < 1e-4
