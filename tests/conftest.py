"""Shared fixtures: reference beam configurations and synthetic fields.

The expensive fields are session-scoped; everything here is deterministic
(seeded generators, fixed geometry) so cached fixtures cannot leak state
between tests.
"""

import numpy as np
import pytest
from hypothesis import settings

from weakbeam.beamfem import FemMesh
from weakbeam.grid import save_field
from weakbeam.material import BeamModel, CrossSection
from weakbeam.synth import generate_beam_data

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

# aluminum cylinder test article: 97 mm span at 0.5 mm pitch, nominal
# modulus 6.9e10 Pa, driven by a 5-cycle 10 kHz burst at the base
AL_SECTION = CrossSection.circle(6.35e-3)
AL_DENSITY = 2721.9
AL_MODULUS = 6.9e10
AL_MESH = FemMesh(194, 5e-4)
AL_FC = 1e4  # burst center frequency, Hz


def make_beam(modulus: float = AL_MODULUS) -> BeamModel:
    return BeamModel(section=AL_SECTION, density=AL_DENSITY, youngs_modulus=modulus)


@pytest.fixture(scope="session")
def al_beam():
    return make_beam()


@pytest.fixture(scope="session")
def edge_field(al_beam):
    """Cheap noise-free field: short margin, coarse dt, still identifiable."""
    return generate_beam_data(
        al_beam, AL_MESH, AL_FC, dt=8e-7, t_end=2e-3, margin_frac=0.5
    )


@pytest.fixture(scope="session")
def edge_field_file(edge_field, tmp_path_factory):
    path = tmp_path_factory.mktemp("fields") / "edge.field"
    save_field(edge_field, path)
    return path


@pytest.fixture(scope="session")
def noisy_fields(al_beam):
    """Five noisy realizations of the identifiable long-margin configuration."""
    return tuple(
        generate_beam_data(
            al_beam,
            AL_MESH,
            AL_FC,
            dt=4e-7,
            t_end=2e-3,
            sigma_rel=0.02,
            seed=seed,
            margin_frac=4.0,
        )
        for seed in range(5)
    )


def uniform_grid_field(n_x, n_t, seed=0, dx=1e-3, dt=1e-6):
    """Random finite field on a uniform grid, for structural tests."""
    rng = np.random.default_rng(seed)
    from weakbeam.grid import FieldGrid

    return FieldGrid(
        np.arange(n_x) * dx,
        np.arange(n_t) * dt,
        rng.standard_normal((n_x, n_t)),
    )
