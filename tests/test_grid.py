import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakbeam import grid
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
        np.array([-1e308, 1e308, 0.0]),      # not increasing, a gap past the float range
    ],
)
def test_bad_axis_rejected(x):
    with pytest.raises(GridError):
        FieldGrid(x, np.array([0.0, 1.0]), np.zeros((x.size, 2)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, axis",
    [("t", [-1e308, 0.0, 1e308]), ("t", [-1e308, 1e308]), ("x", [-1e308, 0.0, 1e308])],
    ids=["t-3-samples", "t-2-samples", "x-3-samples"],
)
def test_axis_span_past_the_float_range_rejected(name, axis):
    # each sample is finite, their span is not: refused before any
    # difference of samples can overflow with a warning
    other = np.array([0.0, 1.0])
    x, t = (axis, other) if name == "x" else (other, axis)
    with pytest.raises(GridError, match=f"^{name} axis spans .* past the float range"):
        FieldGrid(x, t, np.zeros((len(x), len(t))))


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


@pytest.mark.parametrize("lineno", [1, 2, 3, 5])
def test_non_utf8_byte_names_its_line(tmp_path, lineno):
    lines = [b"# fieldgrid v1", b"x: 0 1", b"t: 0 1", b"1 2", b"3 4"]
    lines[lineno - 1] += b" \xff"
    path = tmp_path / "g.field"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(FieldFormatError, match=f"line {lineno}: byte 0xff .* not UTF-8"):
        load_field(path)


# --------------------------------------------- loadtxt and the line-wise loop

def parse_outcome(path):
    """The bits a load gives, or the class and message of its error."""
    try:
        g = load_field(path)
    except (FieldFormatError, GridError) as exc:
        return type(exc), str(exc)
    return bits(g.x).tolist(), bits(g.t).tolist(), bits(g.values).tolist()


# tokens the format accepts: every float64 (subnormals and -0.0 among
# them), spellings only float() knows, and numbers the grid then rejects
GOOD_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-3e-308, 3e-308).map(repr),
    st.sampled_from(["-0.0", "5e-324", "1E5", ".5", "+1.5", "7", "1_000",
                     "\u0663", "\uff11\uff12", "1e400", "nan"]),
)
BAD_TOKENS = st.sampled_from(["#", "1#", "oops", "0x10", "1,5", "1.5e", "\x00"])
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\x0c", "\u3000"])
PADDING = st.sampled_from(["", " ", "\t", " \t "])
BLANK_LINES = st.lists(PADDING, max_size=2)
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
FAULTS = st.sampled_from([None, None, None, None, "short row", "long row",
                          "missing row", "extra row", "no rows", "bad token", "# in a row",
                          "not UTF-8"])


@st.composite
def field_files(draw):
    """Bytes of a field file with a well-formed header and a value block
    that is padded and spaced at random and has at most one fault."""
    n_x, n_t = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    fault = draw(FAULTS)
    n_rows = {"missing row": n_x - 1, "extra row": n_x + 1, "no rows": 0}.get(fault, n_x)
    nl = draw(NEWLINES)
    lines = ["# fieldgrid v1", "x: " + " ".join(map(str, range(n_x))),
             "t: " + " ".join(map(str, range(n_t)))]
    lines += draw(BLANK_LINES)
    for i in range(n_rows):
        width = n_t + {"short row": -1, "long row": 1}.get(fault, 0) * (i == n_rows - 1)
        tokens = draw(st.lists(GOOD_TOKENS, min_size=width, max_size=width))
        if fault == "bad token" and i == n_rows - 1:
            tokens[-1] = draw(BAD_TOKENS)
        row = draw(PADDING)
        for k, token in enumerate(tokens):
            row += (draw(SEPARATORS) if k else "") + token
        if fault == "# in a row" and i == n_rows - 1:
            # loadtxt's default comments="#" would cut the row here
            row += " #" + draw(st.sampled_from(["", " 1", "#"]))
        lines += [row + draw(PADDING), *draw(BLANK_LINES)]
    data = (nl.join(lines) + draw(st.sampled_from([nl, ""]))).encode("utf-8")
    if fault == "not UTF-8":
        # a byte that is not UTF-8 somewhere in the value block
        start = len(nl.join(lines[:3]).encode("utf-8")) + len(nl)
        at = draw(st.integers(min(start, len(data)), len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@pytest.mark.filterwarnings("error")
@settings(max_examples=300)
@given(data=field_files())
def test_load_field_matches_the_line_wise_loop(tmp_path_factory, data):
    # bit for bit, or the same error: with loadtxt failing, the loop
    # parses every block
    path = tmp_path_factory.mktemp("parse") / "g.field"
    path.write_bytes(data)
    got = parse_outcome(path)
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):
        assert parse_outcome(path) == got


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (5, 7)])
def test_saved_field_is_parsed_by_loadtxt(tmp_path, shape):
    rng = np.random.default_rng(3)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    values.flat[0] = -0.0
    g = FieldGrid(np.arange(shape[0]) * 5e-4, np.arange(shape[1]) * 1e-6, values)
    path = tmp_path / "g.field"
    save_field(g, path)
    with mock.patch.object(grid, "_read_rows", side_effect=AssertionError("line-wise loop ran")):
        back = load_field(path)
    assert np.array_equal(bits(back.values), bits(values))


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


def test_window_overhanging_an_end_by_under_half_a_step_snaps_to_it():
    t = np.arange(10) * 1.0
    g = FieldGrid(np.array([0.0, 1.0]), t, np.arange(20.0).reshape(2, 10))
    assert window_time(g, 9.4, 9.4).t.tolist() == [9.0]
    assert window_time(g, -0.4, -0.4).t.tolist() == [0.0]
    assert np.array_equal(window_time(g, -0.4, 9.4).values, g.values)
    for bounds in ((9.6, 9.6), (9.6, 20.0), (-0.6, -0.6), (-5.0, -0.6)):
        with pytest.raises(WindowError, match="does not intersect"):
            window_time(g, *bounds)
    # a single sample carries no step: the window must reach it
    one = FieldGrid(np.array([0.0, 1.0]), np.array([2.0]), np.ones((2, 1)))
    assert window_time(one, 2.0, 2.0).t.tolist() == [2.0]
    with pytest.raises(WindowError, match="does not intersect"):
        window_time(one, 2.0 + 1e-12, 3.0)


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
