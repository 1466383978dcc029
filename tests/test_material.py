import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import AL_DENSITY, AL_MESH, AL_SECTION, make_beam
from oracles import BETA_L, alpha_from_modulus, analytic_beam_frequencies
from weakbeam.errors import ParameterError
from weakbeam.material import (
    BeamModel,
    CrossSection,
    frequency_roots,
    modulus_from_alpha,
    natural_frequencies,
    smape,
)


# ------------------------------------------------------------- cross sections

def test_circular_section_properties():
    sec = CrossSection.circle(6.35e-3)
    area, second = sec.area, sec.second_moment
    assert area == pytest.approx(math.pi * 6.35e-3**2 / 4, rel=1e-15)
    assert second == pytest.approx(math.pi * 6.35e-3**4 / 64, rel=1e-15)
    assert area == pytest.approx(3.1669e-5, rel=1e-4)
    assert second == pytest.approx(7.9810e-11, rel=1e-4)


def test_rectangular_section_properties():
    sec = CrossSection.rectangle(4.18e-3, 2.84e-3)
    assert sec.area == pytest.approx(4.18e-3 * 2.84e-3, rel=1e-15)
    assert sec.second_moment == pytest.approx(4.18e-3 * 2.84e-3**3 / 12, rel=1e-15)
    assert sec.area == pytest.approx(1.1871e-5, rel=1e-4)
    assert sec.second_moment == pytest.approx(7.9785e-12, rel=1e-4)
    assert CrossSection.rectangle(1.0, 1.0).second_moment == pytest.approx(1 / 12, rel=1e-15)


def test_diameter_doubling_scales_area_and_inertia():
    a = CrossSection.circle(2e-3)
    b = CrossSection.circle(4e-3)
    assert b.area == pytest.approx(4 * a.area, rel=1e-14)
    assert b.second_moment == pytest.approx(16 * a.second_moment, rel=1e-14)


def test_section_validation():
    with pytest.raises(ParameterError):
        CrossSection.circle(0.0)
    with pytest.raises(ParameterError):
        CrossSection.circle(-1e-3)
    with pytest.raises(ParameterError):
        CrossSection.rectangle(1e-3, 0.0)
    with pytest.raises(ParameterError):
        CrossSection(kind="triangle")
    # a dimension the kind does not take is left unset (NaN)
    with pytest.raises(ParameterError, match="a circle section takes no width, got 1.0"):
        CrossSection(kind="circle", diameter=6.35e-3, width=1.0)
    with pytest.raises(ParameterError, match="a rectangle section takes no diameter"):
        CrossSection(kind="rectangle", diameter=1.0, width=4.18e-3, thickness=2.84e-3)
    # an area or second moment that is not a finite normal float: I
    # underflows to 0, both underflow, d**2 overflows, A and t**3
    # overflow, A is subnormal
    for dims in ((1e-160,), (1e-200,), (1e200,), (1e200, 1e200), (1e-300, 1e-30)):
        make = CrossSection.circle if len(dims) == 1 else CrossSection.rectangle
        with pytest.raises(ParameterError, match="float range"):
            make(*dims)


def test_beam_model_validation():
    sec = CrossSection.circle(1e-3)
    with pytest.raises(ParameterError):
        BeamModel(section=sec, density=-1.0)
    with pytest.raises(ParameterError):
        BeamModel(section=sec, density=1.0, youngs_modulus=0.0)
    beam = BeamModel(section=sec, density=1.0)
    with pytest.raises(ParameterError):
        beam.require_modulus()


def test_beam_model_fields_are_keyword_only():
    # the beam holds no span: a call that still passes one by position
    # fails instead of reading it as the density
    with pytest.raises(TypeError):
        BeamModel(AL_SECTION, 0.097, AL_DENSITY)


# ------------------------------------------------------------ modulus recovery

def test_modulus_from_discovered_stiffness():
    # alpha = 58.5218 on a 6.35 mm rod at 2721.9 kg/m^3 maps to 63.21 GPa,
    # an 8.4% drop from the 69 GPa handbook value
    beam = make_beam(modulus=None)
    e = modulus_from_alpha(58.5218, beam)
    assert e == pytest.approx(6.3206e10, rel=1e-4)
    assert abs(e - 6.9e10) / 6.9e10 == pytest.approx(0.084, abs=2e-3)


def test_modulus_for_rectangular_specimen():
    # for a rectangle only the bending thickness enters: E = alpha rho 12 / t^2
    beam = BeamModel(section=CrossSection.rectangle(4.18e-3, 2.84e-3), density=1301.4)
    e = modulus_from_alpha(0.497308, beam)
    assert e == pytest.approx(9.6292e8, rel=1e-4)
    assert e == pytest.approx(0.497308 * 1301.4 * 12.0 / 2.84e-3**2, rel=1e-14)


def test_modulus_formula_reduces_for_a_circle():
    # for a circular rod A / I = 16 / d^2
    beam = make_beam(modulus=None)
    d = beam.section.diameter
    assert modulus_from_alpha(2.0, beam) == pytest.approx(
        2.0 * AL_DENSITY * 16.0 / d**2, rel=1e-14
    )


@given(
    alpha=st.floats(1e-3, 1e6),
    diameter=st.floats(1e-4, 0.1),
    density=st.floats(100.0, 2e4),
)
def test_modulus_and_alpha_are_inverse_maps(alpha, diameter, density):
    beam = BeamModel(section=CrossSection.circle(diameter), density=density)
    e = modulus_from_alpha(alpha, beam)
    assert alpha_from_modulus(e, beam) == pytest.approx(alpha, rel=1e-12)


def test_modulus_rejects_nonpositive_alpha():
    beam = make_beam(modulus=None)
    with pytest.raises(ParameterError):
        modulus_from_alpha(0.0, beam)
    with pytest.raises(ParameterError):
        modulus_from_alpha(-58.5, beam)


def test_modulus_past_the_float_range_is_an_error():
    with pytest.raises(ParameterError, match="float range"):
        modulus_from_alpha(1e308, make_beam(modulus=None))
    # A / I = 16 / d**2 is 1.6e-151: the modulus underflows to 0
    beam = BeamModel(section=CrossSection.circle(1e76), density=1e-10)
    with pytest.raises(ParameterError, match="float range"):
        modulus_from_alpha(1e-300, beam)


# ------------------------------------------------------- analytic frequencies

def test_characteristic_roots_match_references():
    for boundary, root in BETA_L.items():
        got = frequency_roots(boundary, 3)
        want = [root(n) for n in (1, 2, 3)]
        assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_characteristic_roots_validation():
    with pytest.raises(ParameterError):
        frequency_roots("pinned-pinned", 0)
    with pytest.raises(ParameterError):
        frequency_roots("free-free", 3)


@pytest.mark.parametrize("boundary", ["pinned-pinned", "clamped-free"])
@pytest.mark.parametrize("n_modes", [2**63 - 1, 2**63])
def test_characteristic_roots_refuse_a_count_numpy_returns_empty(boundary, n_modes):
    # np.arange(1, n_modes + 1) is empty for these counts, not an error
    with pytest.raises(ParameterError, match="cannot hold"):
        frequency_roots(boundary, n_modes)


def test_natural_frequencies_match_analytic_form():
    beam = make_beam()
    for boundary in ("clamped-free", "pinned-pinned", "clamped-clamped"):
        got = natural_frequencies(beam, AL_MESH.length, boundary, n_modes=3)
        want = analytic_beam_frequencies(
            beam.youngs_modulus,
            beam.section.second_moment,
            beam.density,
            beam.section.area,
            AL_MESH.length,
            boundary,
            3,
        )
        assert np.allclose(got, want, rtol=1e-12, atol=0)
        assert np.all(np.diff(got) > 0)


def test_pinned_fundamental_closed_form():
    # f1 = (pi / 2 L^2) sqrt(E I / rho A)
    beam = make_beam()
    f1 = natural_frequencies(beam, AL_MESH.length, "pinned-pinned", n_modes=1)[0]
    want = (math.pi / (2 * AL_MESH.length**2)) * math.sqrt(
        beam.youngs_modulus
        * beam.section.second_moment
        / (beam.density * beam.section.area)
    )
    assert f1 == pytest.approx(want, rel=1e-13)


def test_frequencies_scale_inversely_with_length_squared():
    beam = make_beam()
    fs = natural_frequencies(beam, AL_MESH.length, n_modes=2)
    fl = natural_frequencies(beam, 2 * AL_MESH.length, n_modes=2)
    assert np.allclose(fl, fs / 4.0, rtol=1e-12, atol=0)


def test_frequencies_require_modulus():
    with pytest.raises(ParameterError):
        natural_frequencies(make_beam(modulus=None), AL_MESH.length)


@pytest.mark.parametrize(
    "length, modulus",
    [(1e100, 6.9e10), (1e-300, 6.9e10), (1e-5, 1e308)],
    ids=["length**4-overflows", "length**4-underflows", "frequencies-overflow"],
)
def test_frequencies_past_the_float_range_are_an_error(length, modulus):
    with pytest.raises(ParameterError, match="float range"):
        natural_frequencies(make_beam(modulus), length)


@pytest.mark.parametrize("length", [-0.097, 0.0, math.nan, math.inf])
def test_frequencies_refuse_a_span_not_finite_and_positive(length):
    # a negative span would pass through length**4 unnoticed
    with pytest.raises(ParameterError, match="length must be finite and positive"):
        natural_frequencies(make_beam(), length)


# ------------------------------------------------------------------- smape

def test_smape_zero_on_exact_match():
    assert smape(np.array([5.0, 5.0]), 5.0) == 0.0


def test_smape_two_thirds_on_double():
    # |2 - 1| / ((2 + 1) / 2) = 2/3
    assert smape(np.array([2.0]), 1.0) == pytest.approx(200.0 / 3.0, rel=1e-12)


def test_smape_scalar_input_and_empty_rejection():
    assert smape(3.0, 3.0) == 0.0
    with pytest.raises(ParameterError):
        smape(np.array([]), 1.0)


@given(
    value=st.floats(0.1, 1e6),
    nominal=st.floats(0.1, 1e6),
)
def test_smape_is_symmetric_and_bounded(value, nominal):
    a = smape(np.array([value]), nominal)
    b = smape(np.array([nominal]), value)
    assert a == pytest.approx(b, rel=1e-12)
    assert 0.0 <= a <= 200.0
