"""Acceptance gate: one test per headline requirement.

Each test name is the pass/fail line for one acceptance criterion; run

    pytest tests/test_acceptance.py -v

to see the per-criterion verdicts.  The final test exercises measured
data and skips unless the environment points at the field file.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import AL_DENSITY, AL_FC, AL_MESH, AL_MODULUS, make_beam
from weakbeam.beamfem import (
    FemMesh,
    assemble_matrices,
    newmark_march,
    simulate_measured,
    sweep_modulus,
)
from weakbeam.discovery import discover
from weakbeam.ensemble import run_ensemble
from weakbeam.grid import FieldGrid, load_field
from weakbeam.material import BeamModel, CrossSection, modulus_from_alpha
from weakbeam.sparse import optimize_lambda
from weakbeam.synth import generate_beam_data
from weakbeam.weakform import TestFunctionBasis, assemble


def true_alpha():
    beam = make_beam()
    return (
        beam.youngs_modulus
        * beam.section.second_moment
        / (beam.density * beam.section.area)
    )


def test_clean_synthetic_roundtrip():
    # noise-free generate + discover: support exactly {w_xxxx}, stiffness
    # within 1%, all inside 30 s
    start = time.perf_counter()
    field = generate_beam_data(
        make_beam(), AL_MESH, AL_FC, dt=4e-7, t_end=2e-3, margin_frac=4.0
    )
    result = discover(field)
    elapsed = time.perf_counter() - start
    assert result.support == ("w_xxxx",)
    alpha = -result.coefficient("w_xxxx")
    assert abs(alpha - true_alpha()) / true_alpha() < 0.01
    assert elapsed < 30.0


def test_noisy_synthetic_roundtrip(noisy_fields):
    # 2% noise, 5 seeds: support right in at least 4, and every successful
    # seed recovers the modulus within 10%
    beam = make_beam(modulus=None)
    successes = 0
    for field in noisy_fields:
        result = discover(field)
        if result.support != ("w_xxxx",):
            continue
        successes += 1
        modulus = modulus_from_alpha(-result.coefficient("w_xxxx"), beam)
        assert abs(modulus - AL_MODULUS) / AL_MODULUS < 0.10
    assert successes >= 4


def test_ensemble_consistency(noisy_fields):
    field = noisy_fields[0]
    ensemble = run_ensemble(field, max_ds=10)
    assert len(ensemble.runs) == 55  # 1 + 2 + ... + 10 decimation subsets
    assert ensemble.modal_support == ("w_xxxx",)
    stats = ensemble.stats["w_xxxx"]
    alpha_full = discover(field).coefficient("w_xxxx")
    assert stats.min <= alpha_full <= stats.max
    # E is proportional to alpha, so the spread carries over directly
    assert abs(stats.std / stats.mean) < 0.05


def test_weakform_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_x = int(rng.integers(24, 65))
        n_t = int(rng.integers(24, 65))
        field = FieldGrid(
            np.arange(n_x) * 1e-3,
            np.arange(n_t) * 1e-6,
            rng.standard_normal((n_x, n_t)),
        )
        m_x = int(rng.integers(4, min(9, (n_x - 2) // 2)))
        m_t = int(rng.integers(4, min(9, (n_t - 2) // 2)))
        basis = TestFunctionBasis(
            p_x=int(rng.integers(5, 9)),
            p_t=int(rng.integers(5, 9)),
            m_x=m_x,
            m_t=m_t,
            s_x=int(rng.integers(1, 4)),
            s_t=int(rng.integers(1, 4)),
        )
        system = assemble(field, basis)
        G, b, pts = oracles.dense_weak_system(field, basis)
        assert np.array_equal(system.query_points, pts)
        assert np.linalg.norm(system.G - G) <= 1e-10 * np.linalg.norm(G)
        assert np.linalg.norm(system.b - b) <= 1e-10 * np.linalg.norm(b)


def test_mstls_exact_recovery():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(100):
        G = rng.standard_normal((200, 7))
        G /= np.linalg.norm(G, axis=0)
        j = int(rng.integers(0, 7))
        c = np.zeros(7)
        c[j] = rng.uniform(1.0, 100.0) * rng.choice([-1.0, 1.0])
        clean = G @ c
        noise = rng.standard_normal(200)
        noise *= np.linalg.norm(clean) / (1e3 * np.linalg.norm(noise))
        solution = optimize_lambda(G, clean + noise)
        if solution.support == (j,) and np.count_nonzero(solution.coefficients) == 1:
            hits += 1
    assert hits == 100


def test_fem_eigenfrequency_accuracy():
    beam = make_beam()

    def mesh_for(n):
        return FemMesh(n, beam.length / n)

    want = oracles.analytic_beam_frequencies(
        beam.youngs_modulus,
        beam.section.second_moment,
        beam.density,
        beam.section.area,
        beam.length,
        "pinned-pinned",
        3,
    )
    got = oracles.beam_eigenfrequencies(mesh_for(100), beam, n_modes=3)
    assert np.all(np.abs(got - want) / want < 1e-3)
    # mesh-halving convergence is measured on coarse meshes where the
    # discretization error still dominates the eigensolver's round-off
    errs = [
        abs(oracles.beam_eigenfrequencies(mesh_for(n), beam, n_modes=1)[0] - want[0])
        / want[0]
        for n in (10, 20)
    ]
    assert errs[0] / errs[1] >= 8.0


def test_newmark_energy_conservation():
    beam = make_beam()
    mesh = FemMesh(20, beam.length / 20)
    M, K = assemble_matrices(mesh, beam)
    # clamped-clamped interior: every dof but the first and last node's
    Mr, Kr = M[:, 2:-2], K[:, 2:-2]
    n_inner = Mr.shape[1]
    rng = np.random.default_rng(0)
    d0 = 1e-4 * rng.standard_normal(n_inner)
    d_hist = newmark_march(Mr, Kr, np.zeros((1001, n_inner)), 1e-6, d0=d0)
    v_hist = oracles.newmark_velocities(d_hist, 1e-6, np.zeros(n_inner))
    Mr, Kr = oracles.dense_from_band(Mr), oracles.dense_from_band(Kr)
    energy = 0.5 * (
        np.einsum("ti,ij,tj->t", v_hist, Mr, v_hist)
        + np.einsum("ti,ij,tj->t", d_hist, Kr, d_hist)
    )
    assert np.abs(energy - energy[0]).max() / energy[0] < 1e-8


def test_modulus_golden_values():
    # the published inputs are themselves 6-figure roundings, so the
    # reference outputs are honored to 1e-4 relative rather than by
    # re-rounding to 5 significant figures
    al = BeamModel(
        section=CrossSection.circle(6.35e-3), length=0.097, density=AL_DENSITY
    )
    assert modulus_from_alpha(58.5218, al) == pytest.approx(6.3206e10, rel=1e-4)
    ie = BeamModel(
        section=CrossSection.rectangle(4.18e-3, 2.84e-3), length=0.5, density=1301.4
    )
    assert modulus_from_alpha(0.497308, ie) == pytest.approx(9.6292e8, rel=1e-4)


def test_sweep_self_consistency(edge_field):
    sweep = sweep_modulus(
        edge_field, make_beam(), 0.95 * AL_MODULUS, 1.05 * AL_MODULUS, 21
    )
    step = sweep.moduli[1] - sweep.moduli[0]
    assert abs(sweep.best_modulus - AL_MODULUS) <= step + 1e-6 * AL_MODULUS


AL_FIELD_VAR = "WEAKBEAM_AL_FIELD"


@pytest.mark.skipif(
    AL_FIELD_VAR not in os.environ,
    reason=f"set {AL_FIELD_VAR} to the measured aluminum field file to enable",
)
def test_al_field_conditional():
    """Golden numbers for the measured aluminum rod scan.

    Expects the preprocessed field: 195 spatial samples at 0.5 mm pitch,
    band-passed around the burst and windowed to the 1501-sample analysis
    interval, stored in the text field format.  The discovered stiffness,
    sparse-regression residual, and forward-simulation error must land on
    the published values.
    """
    field = load_field(os.environ[AL_FIELD_VAR])
    result = discover(field)
    assert result.support == ("w_xxxx",)
    alpha = -result.coefficient("w_xxxx")
    assert alpha == pytest.approx(58.5218, rel=0.02)
    assert result.relative_residual == pytest.approx(0.171, abs=0.01)
    beam = BeamModel(
        section=CrossSection.circle(6.35e-3),
        length=field.x_extent,
        density=AL_DENSITY,
    )
    recovered = replace(beam, youngs_modulus=modulus_from_alpha(alpha, beam))
    sim = simulate_measured(field, recovered)
    assert sim.frobenius_rel == pytest.approx(0.1847, abs=0.01)
