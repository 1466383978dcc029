import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import uniform_grid_field
from oracles import (
    cumulative_log_power,
    dense_weak_system,
    reference_changepoint,
    reference_query_strides,
    reference_spectral_corner,
    reference_testfn_1d,
)
from oracles import testfn_poly as poly_oracle
from weakbeam.discovery import discover
from weakbeam.ensemble import subsample_time
from weakbeam.errors import DegenerateDataError, ParameterError, SelectionError
from weakbeam.grid import FieldGrid
from weakbeam.sparse import optimize_lambda
from weakbeam.weakform import (
    LHS,
    CornerDiagnostic,
    TERM_NAMES,
    TERMS,
    TestFunctionBasis,
    assemble,
    default_query_strides,
    mean_power_spectrum,
    rescale,
    select_support,
    spectral_corner,
    unscale_coefficients,
)
from weakbeam.weakform import (
    _MAX_DT,
    _MAX_DX,
    _changepoint,
    _segment_ssr_prefix,
    _testfn_rows,
)


def corner(values, axis):
    grid = FieldGrid(np.arange(len(values)), np.arange(np.shape(values)[1]), values)
    return spectral_corner(mean_power_spectrum(grid, axis))


def corners(g):
    return tuple(corner(g.values, axis).corner_bin for axis in (0, 1))


def random_field(n_x, n_t, seed, dx=1e-3, dt=1e-6):
    rng = np.random.default_rng(seed)
    return FieldGrid(
        np.arange(n_x) * dx, np.arange(n_t) * dt, rng.standard_normal((n_x, n_t))
    )


# ------------------------------------------------------------- test functions

def test_library_term_names():
    assert TERM_NAMES == ("w_t", "w_x", "w_xx", "w_xxx", "w_xxxx", "w", "1")
    assert LHS.name == "w_tt"
    assert len(TERMS) == 7
    assert (_MAX_DX, _MAX_DT) == (4, 2)


@pytest.mark.parametrize("p", [2, 5, 9])
@pytest.mark.parametrize("m", [1, 5, 17])
@pytest.mark.parametrize("deriv", [0, 1, 2])
def test_testfn_matches_expanded_polynomial(p, m, deriv):
    h = 0.37
    got = reference_testfn_1d(p, m, deriv, h)
    want = poly_oracle(p, m, deriv, h)
    scale = np.abs(want).max()
    assert np.max(np.abs(got - want)) <= 1e-11 * scale


def test_testfn_unit_peak_and_zero_endpoints():
    assert np.array_equal(reference_testfn_1d(2, 1, 0, 1.0), [0.0, 1.0, 0.0])
    vals = reference_testfn_1d(8, 25, 0, 0.5)
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert vals[25] == 1.0


def test_testfn_even_symmetry():
    vals = reference_testfn_1d(8, 13, 0, 0.2)
    assert np.array_equal(vals, vals[::-1])


def test_testfn_first_derivative_sums_to_zero():
    h = 0.1
    vals = reference_testfn_1d(6, 20, 1, h)
    assert abs(np.sum(vals) * h) <= 1e-12 * np.abs(vals).max()


def test_testfn_endpoint_flatness_below_degree():
    # derivatives of order < p vanish exactly at the support ends
    for deriv in range(1, 5):
        vals = reference_testfn_1d(6, 9, deriv, 0.25)
        assert vals[0] == 0.0 and vals[-1] == 0.0


@pytest.mark.parametrize("p, m", [(2, 1), (5, 7), (9, 40)])
def test_one_pass_kernels_equal_single_order_kernels(p, m):
    h = 0.37
    rows = _testfn_rows(p, m, p, h)
    assert rows.shape == (p + 1, 2 * m + 1)
    for deriv in range(p + 1):
        assert np.array_equal(rows[deriv], reference_testfn_1d(p, m, deriv, h))
        want = poly_oracle(p, m, deriv, h)
        assert np.max(np.abs(rows[deriv] - want)) <= 1e-11 * np.abs(want).max()


def test_cached_kernels_equal_the_uncached_reference():
    # the numerators are cached per (p, m, max_deriv) and reused for every
    # h; each call must still give the reference's bits in a fresh array
    for p in range(1, 17):
        for m in (1, 3, 17, 214):
            for max_deriv in sorted({0, min(p, 2), min(p, 4), p}):
                for h in (0.37, 1e-3, 2.5e-7):
                    rows = _testfn_rows(p, m, max_deriv, h)
                    assert rows.shape == (max_deriv + 1, 2 * m + 1)
                    for deriv in range(max_deriv + 1):
                        assert np.array_equal(rows[deriv], reference_testfn_1d(p, m, deriv, h))
                    want = rows.copy()
                    rows *= -3.0
                    assert np.array_equal(_testfn_rows(p, m, max_deriv, h), want)


@pytest.mark.parametrize(
    "bad",
    [
        dict(p=3, m=4, deriv=4, h=1.0),   # deriv > p
        dict(p=0, m=4, deriv=0, h=1.0),
        dict(p=3, m=0, deriv=0, h=1.0),
        dict(p=3, m=4, deriv=-1, h=1.0),
        dict(p=3, m=4, deriv=0, h=0.0),
    ],
)
def test_testfn_rejects_bad_parameters(bad):
    with pytest.raises(ParameterError):
        reference_testfn_1d(**bad)


# ----------------------------------------------------------------- assembly

def test_assembly_matches_dense_oracle():
    basis = TestFunctionBasis(p_x=6, p_t=5, m_x=7, m_t=9, s_x=5, s_t=7)
    for seed in range(3):
        g = random_field(48, 64, seed)
        for scales in ((1.0, 1.0, 1.0), rescale(g, basis)):
            system = assemble(g, basis, scales=scales)
            G, b, pts = dense_weak_system(g, basis, scales=scales)
            assert np.array_equal(system.query_points, pts)
            assert np.linalg.norm(system.G - G) <= 1e-10 * np.linalg.norm(G)
            assert np.linalg.norm(system.b - b) <= 1e-10 * np.linalg.norm(b)


@given(
    n_x=st.integers(18, 30),
    n_t=st.integers(18, 30),
    m_x=st.integers(3, 5),
    m_t=st.integers(3, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_assembly_oracle_property(n_x, n_t, m_x, m_t, seed):
    g = random_field(n_x, n_t, seed)
    basis = TestFunctionBasis(p_x=5, p_t=4, m_x=m_x, m_t=m_t, s_x=3, s_t=3)
    system = assemble(g, basis)
    G, b, _ = dense_weak_system(g, basis)
    scale = max(np.linalg.norm(G), np.linalg.norm(b))
    assert np.linalg.norm(system.G - G) <= 1e-10 * scale
    assert np.linalg.norm(system.b - b) <= 1e-10 * scale


def assert_matches_dense_oracle(g, basis):
    for scales in ((1.0, 1.0, 1.0), rescale(g, basis)):
        system = assemble(g, basis, scales=scales)
        G, b, pts = dense_weak_system(g, basis, scales=scales)
        assert np.array_equal(system.query_points, pts)
        assert np.linalg.norm(system.G - G) <= 1e-10 * np.linalg.norm(G)
        assert np.linalg.norm(system.b - b) <= 1e-10 * np.linalg.norm(b)


def test_unit_strides_match_dense_oracle():
    basis = TestFunctionBasis(p_x=6, p_t=5, m_x=5, m_t=6, s_x=1, s_t=1)
    assert_matches_dense_oracle(random_field(19, 27, seed=21), basis)


def test_single_x_centre_matches_dense_oracle():
    g = random_field(17, 90, seed=22)
    basis = TestFunctionBasis(p_x=6, p_t=5, m_x=8, m_t=12, s_x=1, s_t=5)
    assert np.unique(assemble(g, basis).query_points[:, 0]).size == 1
    assert_matches_dense_oracle(g, basis)


def test_single_t_centre_matches_dense_oracle():
    # 2 m_t + 1 == n_t: one window, the whole record, per row
    g = random_field(30, 25, seed=23)
    basis = TestFunctionBasis(p_x=6, p_t=5, m_x=5, m_t=12, s_x=3, s_t=4)
    assert np.unique(assemble(g, basis).query_points[:, 1]).tolist() == [12]
    assert_matches_dense_oracle(g, basis)


def test_unit_t_stride_matches_dense_oracle():
    # every t-centre is a query: neighbouring windows share all but one sample
    g = random_field(22, 70, seed=24)
    basis = TestFunctionBasis(p_x=6, p_t=5, m_x=6, m_t=15, s_x=4, s_t=1)
    assert assemble(g, basis).n_queries == 3 * 40
    assert_matches_dense_oracle(g, basis)


def test_zero_field_assembles_to_zero_system():
    g = FieldGrid(np.arange(40) * 1e-3, np.arange(50) * 1e-6, np.zeros((40, 50)))
    basis = TestFunctionBasis(p_x=6, p_t=5, m_x=8, m_t=10, s_x=4, s_t=5)
    system = assemble(g, basis)
    j1 = TERM_NAMES.index("1")
    assert np.all(system.b == 0.0)
    for j in range(len(TERMS)):
        if j != j1:
            assert np.all(system.G[:, j] == 0.0)
    col = system.G[:, j1]
    assert np.abs(col).min() > 0
    assert (col.max() - col.min()) <= 1e-12 * np.abs(col).max()


def test_assembly_is_additive_in_the_field():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((40, 50))
    v = rng.standard_normal((40, 50))
    mk = lambda w: FieldGrid(np.arange(40) * 1e-3, np.arange(50) * 1e-6, w)
    basis = TestFunctionBasis(p_x=6, p_t=5, m_x=8, m_t=10, s_x=4, s_t=5)
    a, b, s = (assemble(mk(w), basis) for w in (u, v, u + v))
    live = [j for j, term in enumerate(TERMS) if term.power == 1]
    dG = np.abs(s.G[:, live] - a.G[:, live] - b.G[:, live]).max()
    assert dG <= 1e-12 * np.abs(s.G[:, live]).max()
    assert np.abs(s.b - a.b - b.b).max() <= 1e-12 * np.abs(s.b).max()


def test_constant_offset_shifts_only_the_w_column():
    # odd-derivative test functions are antisymmetric, so a constant field
    # offset cancels from those columns exactly; the w column picks up the
    # offset times the constant column
    g = random_field(40, 50, seed=5)
    shifted = FieldGrid(g.x, g.t, g.values + 3.7)
    basis = TestFunctionBasis(p_x=6, p_t=5, m_x=8, m_t=10, s_x=4, s_t=5)
    a = assemble(g, basis)
    b = assemble(shifted, basis)
    names = TERM_NAMES
    for nm in ("w_t", "w_x", "w_xxx"):
        j = names.index(nm)
        diff = np.abs(a.G[:, j] - b.G[:, j]).max()
        assert diff <= 1e-12 * np.abs(a.G[:, j]).max()
    jw, j1 = names.index("w"), names.index("1")
    got = b.G[:, jw] - a.G[:, jw]
    want = 3.7 * a.G[:, j1]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(a.G[:, jw]).max()


def test_linear_field_column_identities():
    # W = x: the w_x column reduces to the constant column by parts, and
    # the w_xx column integrates to zero; both hold discretely once the
    # support is wide enough for the endpoint corrections to vanish
    n_x, n_t = 280, 40
    x = np.arange(n_x) * 0.01
    g = FieldGrid(x, np.arange(n_t) * 0.02, np.tile(x[:, None], (1, n_t)))
    basis = TestFunctionBasis(p_x=7, p_t=7, m_x=120, m_t=10, s_x=5, s_t=5)
    system = assemble(g, basis)
    names = TERM_NAMES
    jx, jxx, j1 = names.index("w_x"), names.index("w_xx"), names.index("1")
    scale = np.abs(system.G[:, j1]).max()
    assert np.max(np.abs(system.G[:, jx] - system.G[:, j1])) <= 1e-10 * scale
    assert np.abs(system.G[:, jxx]).max() <= 1e-10 * scale


def manufactured_mode(alpha=2.5, n_x=129, n_t=257, waves=3, periods=2):
    x = np.linspace(0.0, 1.0, n_x)
    k = waves * np.pi
    omega = np.sqrt(alpha) * k * k
    t = np.linspace(0.0, periods * 2.0 * np.pi / omega, n_t)
    w = np.sin(k * x)[:, None] * np.cos(omega * t)[None, :]
    return FieldGrid(x, t, w), alpha


def test_manufactured_mode_satisfies_weak_form():
    g, alpha = manufactured_mode()
    basis = TestFunctionBasis(p_x=9, p_t=9, m_x=40, m_t=80, s_x=6, s_t=12)
    system = assemble(g, basis, scales=rescale(g, basis))
    j = TERM_NAMES.index("w_xxxx")
    c_star = np.zeros(len(TERMS))
    c_star[j] = -alpha
    c_star /= unscale_coefficients(system, np.ones(len(TERMS)))
    resid = np.linalg.norm(system.b - system.G @ c_star) / np.linalg.norm(system.b)
    assert resid < 1e-6
    rows = np.abs(system.b) >= 1e-3 * np.abs(system.b).max()
    elementwise = np.abs(system.G[rows, j] * c_star[j] - system.b[rows])
    assert np.max(elementwise / np.abs(system.b[rows])) < 1e-6


def test_single_term_library_recovers_alpha():
    # the w_xxxx column of the library's G, fitted alone
    g, alpha = manufactured_mode()
    basis = TestFunctionBasis(p_x=9, p_t=9, m_x=40, m_t=80, s_x=6, s_t=12)
    system = assemble(g, basis, scales=rescale(g, basis))
    j = TERM_NAMES.index("w_xxxx")
    solution = optimize_lambda(system.G[:, [j]], system.b)
    c = unscale_coefficients(system, np.ones(len(TERMS)))[j] * solution.coefficients[0]
    assert abs(c + alpha) <= 1e-6 * alpha


def test_assemble_validation():
    g = random_field(30, 30, seed=0)
    with pytest.raises(ParameterError):
        assemble(g, TestFunctionBasis(p_x=4, p_t=5, m_x=5, m_t=5))  # p_x < 5
    with pytest.raises(ParameterError):
        assemble(g, TestFunctionBasis(p_x=6, p_t=2, m_x=5, m_t=5))  # p_t < 3
    with pytest.raises(ParameterError):
        assemble(g, TestFunctionBasis(p_x=6, p_t=5, m_x=15, m_t=5))  # 2m+1 > N
    with pytest.raises(ParameterError):
        assemble(g, TestFunctionBasis(p_x=6, p_t=5, m_x=5, m_t=5),
                 scales=(0.0, 1.0, 1.0))


# ------------------------------------------------------------- query strides

def test_al_window_strides_and_row_count():
    g = random_field(195, 1501, seed=1, dx=5e-4, dt=1.6e-7)
    assert default_query_strides(195, 1501, 42, 82) == (3, 30)
    system = assemble(g, TestFunctionBasis(p_x=8, p_t=7, m_x=42, m_t=82, s_x=3, s_t=30))
    assert system.n_queries == 1665  # 37 x-centers times 45 t-centers


def test_unit_strides_tile_whole_interior():
    g = random_field(20, 30, seed=2)
    basis = TestFunctionBasis(p_x=6, p_t=5, m_x=4, m_t=6, s_x=1, s_t=1)
    system = assemble(g, basis)
    assert system.n_queries == (20 - 8) * (30 - 12)


def test_full_width_support_gives_single_spatial_column():
    g = random_field(21, 200, seed=3)
    basis = TestFunctionBasis(p_x=6, p_t=5, m_x=10, m_t=20, s_x=1, s_t=4)
    system = assemble(g, basis)
    assert np.unique(system.query_points[:, 0]).size == 1


def test_too_few_query_points_is_selection_error():
    # an interior of 3 x 3 centers is 9 query points, too few; 3 x 5 is 15
    with pytest.raises(SelectionError):
        default_query_strides(13, 11, 5, 4)
    assert default_query_strides(13, 13, 5, 4) == (1, 1)


def test_stride_rule_meets_the_row_count_on_its_own():
    # a stride of 2 or more leaves at least 33 query centers on its axis,
    # which is what lets default_query_strides skip any stride reduction;
    # a larger library table needs a new stride rule
    assert 2 * len(TERMS) <= 33


def strides_or_error(rule, *case):
    """``rule``'s strides for ``case``, (n_x, n_t, m_x, m_t), or the
    message of the SelectionError it raises."""
    try:
        return rule(*case)
    except SelectionError as exc:
        return str(exc)


@st.composite
def sizes_and_half_widths(draw):
    n_x, n_t = draw(st.integers(1, 20_000)), draw(st.integers(1, 20_000))
    return n_x, n_t, draw(st.integers(1, n_x)), draw(st.integers(1, n_t))


@settings(max_examples=400)
@given(case=sizes_and_half_widths())
@example(case=(68, 3, 1, 1))  # interior 66: the least count a stride of 2 leaves, 33
@example(case=(15, 3, 1, 1))  # unit strides, 13 x 1 query points: one too few
@example(case=(16, 3, 1, 1))  # unit strides, 14 x 1 query points: just enough
def test_strides_match_the_halving_rule(case):
    # the stride-halving loop of the reference never changes an answer
    got = strides_or_error(default_query_strides, *case)
    assert got == strides_or_error(reference_query_strides, *case)


# ---------------------------------------------------------- corner detection

def test_corner_guard_sits_two_octaves_above_peak():
    n_x, n_t = 256, 64
    x = np.arange(n_x) / n_x
    vals = np.sin(2 * np.pi * 5 * x)[:, None] * np.ones((1, n_t))
    diag = corner(vals, 0)
    assert diag.corner_bin == 20
    assert diag.n_bins == 128
    assert diag.tau_hat == pytest.approx(np.log10(20.0))


def test_corner_is_amplitude_invariant():
    # past 1e150 the power overflows and below 1e-160 it underflows, unless
    # the spectrum scales the field first
    g = random_field(128, 200, seed=11)
    for scale in (1e6, 1e-170, 1e160, 1e300):
        for axis in (0, 1):
            a = corner(g.values, axis)
            b = corner(scale * g.values, axis)
            assert a.corner_bin == b.corner_bin, (scale, axis)


def knee_field(n_x, n_t, kx, kt, seed=0):
    """White noise low-passed along each axis, with a 1/k spectrum up to bin
    kx (kt) and a floor 1e-4 below it beyond: its corners sit at the knees,
    well above the peak guard."""
    w = np.random.default_rng(seed).standard_normal((n_x, n_t))
    for axis, n, kc in ((0, n_x, kx), (1, n_t, kt)):
        k = np.arange(n // 2 + 1)
        gain = np.where(k <= kc, 1.0 / np.maximum(k, 1), 1e-4)
        gain = gain[:, None] if axis == 0 else gain[None, :]
        w = np.fft.irfft(np.fft.rfft(w, axis=axis) * gain, n=n, axis=axis)
    return w


def assert_same_corners(values):
    """The corner equals the per-pass oracle's on both axes.  The peak guard
    sets a beam field's corner, so every window the zoom can try is also
    fitted against the oracle's changepoint, and with one shared table."""
    for axis in (0, 1):
        assert corner(values, axis) == reference_spectral_corner(values, axis)
        _, y = cumulative_log_power(values, axis)
        table = _segment_ssr_prefix(np.arange(1, y.size + 1, dtype=float), y)
        for hi in {*range(2, y.size, 2), y.size}:  # n_bins, then 2 b
            assert _changepoint(y, hi, table) == reference_changepoint(y, hi)


def test_corner_matches_the_per_pass_oracle_on_fixture_fields(edge_field, noisy_fields):
    for values in (
        edge_field.values,
        *(f.values for f in noisy_fields),
        uniform_grid_field(64, 300).values,
        knee_field(128, 400, 20, 50),
        knee_field(200, 1000, 15, 150),
    ):
        assert_same_corners(values)


def test_corner_matches_the_per_pass_oracle_on_every_ensemble_subset(noisy_fields):
    for d in range(1, 11):
        for offset in range(1, d + 1):
            assert_same_corners(subsample_time(noisy_fields[0], d, offset).values)


@pytest.mark.parametrize("power", [[1.0], [3.0, 1.0], [1.0, 3.0], [0.0, 1.0]])
def test_one_or_two_bin_spectrum_has_corner_one(power):
    # too short for two segments: the changepoint, its zoom and the peak
    # floor all stay at bin 1
    assert spectral_corner(np.array(power)) == CornerDiagnostic(1, len(power))


def test_corner_rejects_zero_and_bad_axis():
    with pytest.raises(DegenerateDataError):
        corner(np.zeros((32, 32)), 0)
    with pytest.raises(DegenerateDataError):
        spectral_corner(np.zeros(0))
    # the corner takes one 1-d spectrum, with finite bins
    with pytest.raises(ParameterError):
        spectral_corner(np.ones((32, 32)))
    with pytest.raises(ParameterError, match="finite"):
        spectral_corner(np.array([1.0, np.inf, 1.0, 1.0]))
    # a given x spectrum holds the axis' n // 2 bins
    with pytest.raises(ParameterError, match="bins"):
        discover(random_field(32, 32, seed=0), x_power=np.ones(17))


# --------------------------------------------------------- support selection

def test_smooth_field_needs_wider_support_than_broadband():
    rng = np.random.default_rng(0)
    x = np.arange(200) * 1e-3
    t = np.arange(400) * 1e-6
    smooth = FieldGrid(
        x,
        t,
        np.sin(2 * np.pi * 2 * x / x[-1])[:, None]
        * np.cos(2 * np.pi * 3 * t / t[-1])[None, :],
    )
    rough = FieldGrid(x, t, rng.standard_normal((200, 400)))
    bs = select_support(smooth, corners(smooth))
    br = select_support(rough, corners(rough))
    assert bs.m_x > br.m_x
    assert bs.m_t > br.m_t


def test_tau_hat_bypasses_the_spectrum():
    # a zero field has no spectrum to fit, but explicit corners never look
    g = FieldGrid(np.arange(64) * 1e-3, np.arange(128) * 1e-6, np.zeros((64, 128)))
    basis = select_support(g, (3, 10))  # tau_hat (0.5, 1.0)
    other = select_support(random_field(64, 128, seed=8), (3, 10))
    assert basis == other


def test_tau_hat_scalar_broadcasts():
    g = random_field(64, 64, seed=8)
    assert discover(g, tau_hat=1.1).basis == discover(g, tau_hat=(1.1, 1.1)).basis


def test_selected_support_respects_invariants():
    g = random_field(100, 300, seed=12)
    basis = select_support(g, corners(g))
    assert basis.p_x >= _MAX_DX + 1 and basis.p_t >= _MAX_DT + 1
    assert 2 * basis.m_x + 1 <= g.n_x and 2 * basis.m_t + 1 <= g.n_t
    assert basis.s_x >= 1 and basis.s_t >= 1


def test_select_support_rejects_small_grids():
    small = random_field(5, 64, seed=0)
    with pytest.raises(SelectionError):
        select_support(small, corners(small))


# ------------------------------------------------------------------ scaling

def test_rescale_factors():
    g = FieldGrid(
        np.arange(30) * 2e-3, np.arange(40) * 5e-7, np.full((30, 40), -2.0)
    )
    basis = TestFunctionBasis(p_x=6, p_t=5, m_x=5, m_t=8)
    gw, gx, gt = rescale(g, basis)
    assert gw == pytest.approx(0.5, rel=1e-15)
    assert gx == pytest.approx(1.0 / (5 * 2e-3), rel=1e-12)
    assert gt == pytest.approx(1.0 / (8 * 5e-7), rel=1e-12)


def test_rescale_rejects_zero_field():
    g = FieldGrid(np.arange(10) * 1.0, np.arange(10) * 1.0, np.zeros((10, 10)))
    with pytest.raises(DegenerateDataError):
        rescale(g, TestFunctionBasis(p_x=6, p_t=5, m_x=2, m_t=2))


def test_unscale_identity_at_unit_gammas():
    g = random_field(40, 50, seed=5)
    basis = TestFunctionBasis(p_x=6, p_t=5, m_x=8, m_t=10, s_x=4, s_t=5)
    system = assemble(g, basis)  # scales default to 1
    c = np.arange(1.0, 8.0)
    assert np.array_equal(unscale_coefficients(system, c), c)


def test_unscale_dimensional_bookkeeping():
    g = random_field(40, 50, seed=6)
    basis = TestFunctionBasis(p_x=6, p_t=5, m_x=8, m_t=10, s_x=4, s_t=5)
    system = assemble(g, basis, scales=(1.0, 2.0, 1.0))
    c = np.ones(len(TERMS))
    out = unscale_coefficients(system, c)
    names = TERM_NAMES
    # w_tt = c w_xxxx under x -> 2x picks up gamma_x^(0-4)
    assert out[names.index("w_xxxx")] == pytest.approx(1.0 / 16.0, rel=1e-14)
    assert out[names.index("w_xx")] == pytest.approx(1.0 / 4.0, rel=1e-14)
    assert out[names.index("w")] == pytest.approx(1.0, rel=1e-14)
    system = assemble(g, basis, scales=(4.0, 1.0, 1.0))
    out = unscale_coefficients(system, c)
    # the constant term is the only power-0 entry: gamma_w^(0-1)
    assert out[names.index("1")] == pytest.approx(0.25, rel=1e-14)
    assert out[names.index("w_xxxx")] == pytest.approx(1.0, rel=1e-14)


def test_coefficients_invariant_under_rescaling(edge_field):
    basis = select_support(edge_field, corners(edge_field))
    scaled = assemble(edge_field, basis, scales=rescale(edge_field, basis))
    raw = assemble(edge_field, basis)
    c_scaled = unscale_coefficients(scaled, optimize_lambda(scaled.G, scaled.b).coefficients)
    c_raw = unscale_coefficients(raw, optimize_lambda(raw.G, raw.b).coefficients)
    j = TERM_NAMES.index("w_xxxx")
    assert c_scaled[j] != 0.0
    assert abs(c_scaled[j] - c_raw[j]) <= 1e-8 * abs(c_scaled[j])
    assert np.linalg.norm(c_scaled - c_raw) <= 1e-8 * np.linalg.norm(c_scaled)
