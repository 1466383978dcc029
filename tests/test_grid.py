import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weakbeam.errors import FieldFormatError, GridError, WindowError
from weakbeam.grid import FieldGrid, load_field, save_field, window_time


def small_grid():
    return FieldGrid(
        np.array([0.0, 0.0005, 0.001]),
        np.array([0.0, 1.6e-7]),
        np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    )


# ---------------------------------------------------------------- construction

def test_properties_of_minimal_grid():
    g = small_grid()
    assert g.n_x == 3 and g.n_t == 2
    assert g.dx == pytest.approx(5e-4, rel=1e-12)
    assert g.dt == pytest.approx(1.6e-7, rel=1e-12)
    assert g.x_extent == pytest.approx(1e-3, rel=1e-12)


def test_al_like_spatial_axis():
    x = np.arange(195) * 5e-4
    g = FieldGrid(x, np.array([0.0, 1e-6]), np.zeros((195, 2)))
    assert g.n_x == 195
    assert g.dx == pytest.approx(5e-4, rel=1e-12)
    assert g.x_extent == pytest.approx(0.097, rel=1e-12)


def test_values_are_immutable():
    g = small_grid()
    with pytest.raises(ValueError):
        g.values[0, 0] = 99.0


@pytest.mark.parametrize(
    "x",
    [
        np.array([0.0, 1.0, 1.0]),           # duplicated sample
        np.array([0.0, 2.0, 1.0]),           # not increasing
        np.array([0.0, 1.0, 2.5]),           # non-uniform
        np.array([0.0, np.nan, 2.0]),        # non-finite
        np.array([]),                        # empty
    ],
)
def test_bad_axis_rejected(x):
    with pytest.raises(GridError):
        FieldGrid(x, np.array([0.0, 1.0]), np.zeros((x.size, 2)))


def test_shape_mismatch_rejected():
    with pytest.raises(GridError):
        FieldGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.zeros((3, 2)))


def test_nonfinite_values_rejected():
    v = np.ones((2, 2))
    v[1, 1] = np.inf
    with pytest.raises(GridError):
        FieldGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]), v)


# ------------------------------------------------------------------- file I/O

def test_minimal_file_parses(tmp_path):
    path = tmp_path / "minimal.field"
    path.write_text(
        "# fieldgrid v1\n"
        "x: 0.0 0.0005 0.001\n"
        "t: 0.0 1.6e-07\n"
        "1.0 2.0\n"
        "3.0 4.0\n"
        "5.0 6.0\n"
    )
    g = load_field(path)
    assert g.n_x == 3 and g.n_t == 2
    assert np.array_equal(g.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_round_trip_is_exact(tmp_path):
    g = small_grid()
    path = tmp_path / "rt.field"
    save_field(g, path)
    back = load_field(path)
    assert np.array_equal(back.x, g.x)
    assert np.array_equal(back.t, g.t)
    assert np.array_equal(back.values, g.values)


def test_round_trip_large_grid(tmp_path):
    rng = np.random.default_rng(7)
    g = FieldGrid(
        np.arange(195) * 5e-4,
        np.arange(1501) * 1.6e-7,
        1e-3 * rng.standard_normal((195, 1501)),
    )
    path = tmp_path / "big.field"
    save_field(g, path)
    back = load_field(path)
    assert np.array_equal(back.x, g.x)
    assert np.array_equal(back.t, g.t)
    assert np.array_equal(back.values, g.values)


def test_save_field_streams_its_rows(tmp_path):
    # the text is written a row at a time, never held whole
    rng = np.random.default_rng(5)
    g = FieldGrid(
        np.arange(200) * 5e-4,
        np.arange(1000) * 4e-7,
        1e-3 * rng.standard_normal((200, 1000)),
    )
    path = tmp_path / "stream.field"
    tracemalloc.start()
    try:
        save_field(g, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * path.stat().st_size
    assert np.array_equal(load_field(path).values, g.values)


@given(
    n_x=st.integers(2, 12),
    n_t=st.integers(2, 12),
    seed=st.integers(0, 2**31 - 1),
    scale_pow=st.integers(-140, 140),
)
def test_round_trip_property(tmp_path_factory, n_x, n_t, seed, scale_pow):
    rng = np.random.default_rng(seed)
    g = FieldGrid(
        np.arange(n_x) * 1e-3,
        np.arange(n_t) * 1e-6,
        10.0**scale_pow * rng.standard_normal((n_x, n_t)),
    )
    path = tmp_path_factory.mktemp("prop") / "g.field"
    save_field(g, path)
    back = load_field(path)
    assert np.array_equal(back.values, g.values)
    assert np.array_equal(back.x, g.x)
    assert np.array_equal(back.t, g.t)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.field"
    path.write_text("# fieldgrid v2\nx: 0 1\nt: 0 1\n1 2\n3 4\n")
    with pytest.raises(FieldFormatError):
        load_field(path)


def test_missing_axis_header_rejected(tmp_path):
    path = tmp_path / "bad.field"
    path.write_text("# fieldgrid v1\ny: 0 1\nt: 0 1\n1 2\n3 4\n")
    with pytest.raises(FieldFormatError):
        load_field(path)


def test_wrong_row_width_rejected(tmp_path):
    path = tmp_path / "bad.field"
    path.write_text("# fieldgrid v1\nx: 0 1\nt: 0 1\n1 2 3\n4 5\n")
    with pytest.raises(FieldFormatError):
        load_field(path)


def test_wrong_row_count_rejected(tmp_path):
    path = tmp_path / "bad.field"
    for rows in ("1 2\n3 4\n", "1 2\n3 4\n5 6\n7 8\n"):  # too few, too many
        path.write_text("# fieldgrid v1\nx: 0 1 2\nt: 0 1\n" + rows)
        with pytest.raises(FieldFormatError):
            load_field(path)


def test_non_numeric_token_rejected(tmp_path):
    path = tmp_path / "bad.field"
    path.write_text("# fieldgrid v1\nx: 0 1\nt: 0 1\n1 2\n3 oops\n")
    with pytest.raises(FieldFormatError, match="line 5"):
        load_field(path)


def bits(a):
    # equal bit patterns: tells -0.0 from 0.0, unlike ==
    return np.asarray(a, dtype=float).view(np.int64)


def test_save_field_writes_each_value_as_its_repr(tmp_path):
    values = np.array([[-0.0, 5e-324, 1e16, 0.1], [3.0, -7.0, 0.0, 123456789.0]])
    g = FieldGrid(np.array([0.0, 0.5]), np.array([0.0, 1e-6, 2e-6, 3e-6]), values)
    path = tmp_path / "g.field"
    save_field(g, path)
    per_value = [" ".join(repr(float(v)) for v in row) for row in (g.x, g.t, *g.values)]
    want = "# fieldgrid v1\nx: {}\nt: {}\n{}\n{}\n".format(*per_value)
    assert path.read_bytes() == want.encode("utf-8")
    back = load_field(path)
    assert np.array_equal(bits(back.values), bits(values))


def test_load_field_parses_tokens_as_float_does(tmp_path):
    tokens = ["-0.0", "5e-324", "2.2250738585072014e-308", "1E5", ".5", "+1.5", "1_000", "7"]
    path = tmp_path / "g.field"
    t_axis = " ".join(str(j) for j in range(len(tokens)))
    path.write_text(f"# fieldgrid v1\nx: 0 1\nt: {t_axis}\n{' '.join(tokens)}\n"
                    f"{' '.join(reversed(tokens))}\n")
    back = load_field(path)
    assert np.array_equal(bits(back.values[0]), bits([float(v) for v in tokens]))
    assert np.array_equal(bits(back.values[1]), bits([float(v) for v in reversed(tokens)]))


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e400"])
def test_non_finite_tokens_parse_and_fail_the_grid_check(tmp_path, token):
    # they are numbers to float(), so the format accepts them and the
    # grid's finiteness invariant rejects them
    path = tmp_path / "g.field"
    path.write_text(f"# fieldgrid v1\nx: 0 1\nt: 0 1\n1 2\n3 {token}\n")
    with pytest.raises(GridError, match="non-finite"):
        load_field(path)


def test_duplicated_time_entry_is_grid_error(tmp_path):
    path = tmp_path / "dup.field"
    path.write_text("# fieldgrid v1\nx: 0 1\nt: 0 1 1\n1 2 3\n4 5 6\n")
    with pytest.raises(GridError):
        load_field(path)


def test_save_to_directory_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        save_field(small_grid(), tmp_path)


# ------------------------------------------------------------------ windowing

def test_window_picks_1501_samples():
    # 0.24 ms window at 0.16 us sampling spans 1501 samples inclusive
    t = np.arange(5001) * 1.6e-7
    g = FieldGrid(np.array([0.0, 1.0, 2.0]), t, np.zeros((3, 5001)))
    w = window_time(g, 5.5984e-4, 7.9984e-4)
    assert w.n_t == 1501
    assert w.t[0] == pytest.approx(5.5984e-4, rel=1e-9)
    assert w.t[-1] == pytest.approx(7.9984e-4, rel=1e-9)
    assert w.dt == pytest.approx(1.6e-7, rel=1e-12)


def test_window_is_idempotent():
    t = np.arange(100) * 0.5
    g = FieldGrid(
        np.array([0.0, 1.0]), t, np.arange(200, dtype=float).reshape(2, 100)
    )
    once = window_time(g, 10.1, 20.3)
    twice = window_time(once, 10.1, 20.3)
    assert np.array_equal(once.t, twice.t)
    assert np.array_equal(once.values, twice.values)


def test_window_full_span_is_identity():
    g = small_grid()
    w = window_time(g, g.t[0], g.t[-1])
    assert np.array_equal(w.t, g.t)
    assert np.array_equal(w.values, g.values)


def test_window_preserves_spacing():
    t = np.arange(50) * 2.0
    g = FieldGrid(np.array([0.0, 1.0]), t, np.zeros((2, 50)))
    w = window_time(g, 10.0, 60.0)
    assert w.dt == pytest.approx(g.dt, rel=1e-12)
    assert w.dx == pytest.approx(g.dx, rel=1e-12)


def test_window_snaps_to_nearest_sample():
    t = np.arange(10) * 1.0
    g = FieldGrid(np.array([0.0, 1.0]), t, np.zeros((2, 10)))
    w = window_time(g, 2.4, 6.6)  # snaps to samples 2 and 7
    assert w.t[0] == 2.0 and w.t[-1] == 7.0


def test_empty_window_rejected():
    g = small_grid()
    with pytest.raises(WindowError):
        window_time(g, 1.0, 2.0)  # beyond the time span
    with pytest.raises(WindowError):
        window_time(g, 1e-7, 0.0)  # reversed bounds
    nan, inf = float("nan"), float("inf")
    for bounds in ((nan, nan), (nan, 1e-7), (0.0, nan), (0.0, inf), (-inf, inf)):
        with pytest.raises(WindowError):
            window_time(g, *bounds)  # every comparison with NaN is false
