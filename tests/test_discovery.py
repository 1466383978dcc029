import numpy as np
import pytest

from conftest import AL_DENSITY, AL_MODULUS, make_beam
from weakbeam.beamfem import FemMesh
from weakbeam.discovery import discover, render_pde
from weakbeam.grid import FieldGrid
from weakbeam.preprocess import condition
from weakbeam.synth import generate_beam_data
from weakbeam.weakform import TERM_NAMES, mean_power_spectrum


# ------------------------------------------------------------------ rendering

def render(**terms) -> str:
    """render_pde of the library coefficients named by ``terms`` ("one" for
    the constant), every other one zero."""
    coefficients = np.zeros(len(TERM_NAMES))
    for name, c in terms.items():
        coefficients[TERM_NAMES.index("1" if name == "one" else name)] = c
    return render_pde(coefficients)


def test_render_empty_model():
    assert render() == "w_tt = 0"


def test_render_single_negative_term():
    assert render(w_xxxx=-58.5218) == "w_tt = -58.5218 w_xxxx"


def test_render_sign_joining():
    assert render(w_x=1.5, w=-2.0) == "w_tt = 1.5 w_x - 2 w"
    assert render(w_x=-1.5, w=2.0) == "w_tt = -1.5 w_x + 2 w"


def test_render_bare_constant():
    assert render(one=-3.5) == "w_tt = -3.5"


def test_render_sig_figs():
    assert render(w=np.pi) == "w_tt = 3.14159 w"
    assert render(w_xxxx=-58.52184) == "w_tt = -58.5218 w_xxxx"


def test_render_skips_zeros_between_terms():
    assert render(w_x=1.0, w_xx=0.0, w=-1.0) == "w_tt = 1 w_x - 1 w"


# ----------------------------------------------------------------- discovery

def test_discovery_on_clean_beam_data(edge_field):
    result = discover(edge_field)
    assert result.support == ("w_xxxx",)
    alpha = -result.coefficient("w_xxxx")
    beam = make_beam()
    want = AL_MODULUS * beam.section.second_moment / (AL_DENSITY * beam.section.area)
    assert alpha == pytest.approx(want, rel=1e-2)
    assert result.pde_text.startswith("w_tt = -")
    assert result.pde_text.endswith("w_xxxx")
    # the field's units change nothing: at 2^700 its power overflows, at
    # 2^-700 it underflows, and a power-of-two scale is exact
    for scale in (2.0**700, 2.0**-700):
        scaled = discover(FieldGrid(edge_field.x, edge_field.t, scale * edge_field.values))
        assert scaled.support == result.support
        assert (scaled.corner_x, scaled.corner_t) == (result.corner_x, result.corner_t)
        assert -scaled.coefficient("w_xxxx") == alpha


def test_discovery_result_accessors(edge_field):
    result = discover(edge_field)
    assert result.as_report()["terms"] == list(TERM_NAMES)
    assert result.coefficient("w_x") == 0.0  # inactive term reads as zero
    with pytest.raises(KeyError):
        result.coefficient("w_xxxxx")
    assert result.lambda_hat > 0
    assert 0 <= result.relative_residual < 1
    assert result.condition_number >= 1.0
    system = result.system
    gw, gx, gt = system.gamma_w, system.gamma_x, system.gamma_t
    assert gw == pytest.approx(1.0 / np.abs(edge_field.values).max(), rel=1e-12)
    assert gx > 0 and gt > 0


def test_discovery_report_is_json_ready(edge_field):
    import json

    result = discover(edge_field)
    report = result.as_report()
    assert set(report) == {
        "pde",
        "terms",
        "coefficients",
        "coefficients_scaled",
        "support",
        "lambda_hat",
        "relative_residual",
        "condition_number",
        "n_queries",
        "gamma",
        "basis",
        "corner",
    }
    assert report["support"] == ["w_xxxx"]
    assert report["terms"] == list(TERM_NAMES)
    assert report["corner"]["x"] is not None and report["corner"]["t"] is not None
    parsed = json.loads(json.dumps(report))
    assert parsed["basis"]["m_x"] == result.basis.m_x


def test_reported_tau_hat_reproduces_the_selected_basis(edge_field):
    # discover turns tau_hat into bins by round(10 ** tau_hat), the inverse
    # of the log10 a corner reports, for every bin up to 200,000
    bins = np.arange(1, 200_001)
    assert np.array_equal(np.round(10.0 ** np.log10(bins.astype(float))), bins)
    auto = discover(edge_field)
    pinned = discover(edge_field, tau_hat=(auto.corner_x.tau_hat, auto.corner_t.tau_hat))
    assert pinned.basis == auto.basis
    assert np.array_equal(pinned.coefficients, auto.coefficients)
    # a pinned corner is not a measured one, so none is reported
    assert pinned.as_report()["corner"] == {"x": None, "t": None}


def test_band_passed_rod_takes_the_changepoint_corner_over_the_peak_floor():
    # on the noise-free 100-point rod band-passed to 2-40 kHz the
    # changepoint finds corners above the peak floor min(4 k_peak, n_bins - 1),
    # and discovery is right there; pinned to the floor's bins it adds a constant
    rod = generate_beam_data(make_beam(), FemMesh(99, 5e-4), 5e3, 1e-6, 2e-3, margin_frac=4)
    band = condition(rod, 1, (2e3, 4e4))
    floor = []
    for axis in (0, 1):
        power = mean_power_spectrum(band, axis)
        floor.append(min(4 * (int(np.argmax(power)) + 1), power.size - 1))
    assert floor == [4, 32]
    result = discover(band)
    assert (result.corner_x.corner_bin, result.corner_t.corner_bin) == (5, 86)
    assert result.support == ("w_xxxx",)
    pinned = discover(band, tau_hat=tuple(np.log10(floor)))
    assert pinned.support == ("w_xxxx", "1")


def test_discovery_rejects_identically_zero_field():
    from weakbeam.errors import DegenerateDataError

    g = FieldGrid(np.arange(40) * 1e-3, np.arange(60) * 1e-6, np.zeros((40, 60)))
    with pytest.raises(DegenerateDataError):
        discover(g)
