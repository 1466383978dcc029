import numpy as np
import pytest
from hypothesis import given, strategies as st

from weakbeam.errors import ParameterError
from weakbeam.grid import FieldGrid
from weakbeam.preprocess import bandpass_time, subsample_time


def tone_field(freqs, amps, n_t=1000, dt=1e-6, n_x=4):
    """Rows of summed on-bin cosines (integer cycles, no leakage)."""
    t = np.arange(n_t) * dt
    row = sum(a * np.cos(2 * np.pi * f * t) for f, a in zip(freqs, amps))
    return FieldGrid(np.arange(n_x) * 1e-3, t, np.tile(row, (n_x, 1)))


def interior(values, frac=0.1):
    k = int(values.shape[1] * frac)
    return values[:, k:-k]


# ---------------------------------------------------------------- downsample

def test_downsample_factor_one_is_identity():
    g = tone_field([1e4], [1.0], n_t=64)
    d = subsample_time(g, 1, 1)
    assert np.array_equal(d.values, g.values)
    assert np.array_equal(d.t, g.t)


def test_downsample_keeps_first_sample_of_each_stride():
    g = FieldGrid(
        np.array([0.0, 1.0]),
        np.arange(10) * 1.0,
        np.arange(20, dtype=float).reshape(2, 10),
    )
    d = subsample_time(g, 3, 1)
    assert np.array_equal(d.t, [0.0, 3.0, 6.0, 9.0])
    assert np.array_equal(d.values, g.values[:, ::3])


def test_downsample_ten_of_ten_leaves_one_sample():
    g = FieldGrid(np.array([0.0, 1.0]), np.arange(10) * 1.0, np.ones((2, 10)))
    assert subsample_time(g, 10, 1).n_t == 1


def test_downsample_scales_dt():
    g = FieldGrid(np.array([0.0, 1.0]), np.arange(100) * 1.6e-8, np.ones((2, 100)))
    assert subsample_time(g, 10, 1).dt == pytest.approx(1.6e-7, rel=1e-12)


def test_downsample_composes():
    g = tone_field([1e4], [1.0], n_t=600)
    ab = subsample_time(g, 6, 1)
    a_then_b = subsample_time(subsample_time(g, 2, 1), 3, 1)
    assert np.array_equal(ab.values, a_then_b.values)
    assert np.array_equal(ab.t, a_then_b.t)


@pytest.mark.parametrize("factor", [0, -1])
def test_downsample_bad_factor(factor):
    g = tone_field([1e4], [1.0], n_t=64)
    with pytest.raises(ParameterError):
        subsample_time(g, factor, 1)


# ------------------------------------------------------------------ bandpass

def test_inband_tone_preserved():
    g = tone_field([1e4], [1.0])
    out = bandpass_time(g, 4e3, 16e3)
    rms_in = np.sqrt(np.mean(g.values**2))
    rms_out = np.sqrt(np.mean(out.values**2))
    assert abs(rms_out - rms_in) / rms_in < 0.01


def test_stopband_tone_killed():
    g = tone_field([3e4], [1.0])
    out = bandpass_time(g, 4e3, 16e3)
    assert np.sqrt(np.mean(out.values**2)) < 1e-3 * np.sqrt(np.mean(g.values**2))


def test_tone_pair_separated():
    g = tone_field([3e3, 2e4], [1.0, 1.0])
    want = tone_field([3e3], [1.0])
    out = bandpass_time(g, 1e3, 5e3)
    resid = interior(out.values - want.values)
    assert np.sqrt(np.mean(resid**2)) < 0.01 * np.sqrt(np.mean(interior(want.values) ** 2))


def test_bandpass_is_linear():
    rng = np.random.default_rng(3)
    x = np.arange(4) * 1e-3
    t = np.arange(512) * 1e-6
    v1 = rng.standard_normal((4, 512))
    v2 = rng.standard_normal((4, 512))
    g1, g2 = FieldGrid(x, t, v1), FieldGrid(x, t, v2)
    combo = FieldGrid(x, t, 2.5 * v1 - 1.25 * v2)
    lhs = bandpass_time(combo, 4e3, 16e3).values
    rhs = (
        2.5 * bandpass_time(g1, 4e3, 16e3).values
        - 1.25 * bandpass_time(g2, 4e3, 16e3).values
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))


def test_bandpass_idempotent_on_flat_band_content():
    # tones well inside the flat region pass the mask at exactly unit gain,
    # so a second application must be a near no-op
    g = tone_field([8e3, 11e3], [1.0, 0.5])
    once = bandpass_time(g, 4e3, 16e3)
    twice = bandpass_time(once, 4e3, 16e3)
    num = np.sqrt(np.mean(interior(twice.values - once.values) ** 2))
    den = np.sqrt(np.mean(interior(once.values) ** 2))
    assert num / den < 1e-6


def test_bandpass_removes_dc():
    g = tone_field([1e4], [1.0])
    shifted = FieldGrid(g.x, g.t, g.values + 7.0)
    out = bandpass_time(shifted, 4e3, 16e3)
    assert abs(np.mean(out.values)) < 1e-9


def test_band_above_nyquist_rejected():
    g = tone_field([1e4], [1.0], dt=1e-6)  # Nyquist 500 kHz
    with pytest.raises(ParameterError):
        bandpass_time(g, 4e3, 6e5)


@pytest.mark.parametrize("band", [(-1.0, 1e4), (1e4, 1e4), (2e4, 1e4)])
def test_bad_band_rejected(band):
    g = tone_field([1e4], [1.0])
    with pytest.raises(ParameterError):
        bandpass_time(g, *band)


@given(lo=st.floats(1e3, 1e4), width=st.floats(2e3, 1e5))
def test_bandpass_output_is_valid_grid(lo, width):
    g = tone_field([5e3], [1.0], n_t=256)
    hi = min(lo + width, 0.5 / g.dt)
    out = bandpass_time(g, lo, hi)
    assert out.values.shape == g.values.shape
    assert np.all(np.isfinite(out.values))
    assert np.array_equal(out.t, g.t)
