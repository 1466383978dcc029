import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import uncached_optimize_lambda
from weakbeam import sparse
from weakbeam.errors import ParameterError
from weakbeam.grid import FieldGrid
from weakbeam.sparse import least_squares, mstls, optimize_lambda
from weakbeam.weakform import TestFunctionBasis, assemble, rescale


def planted_system(seed, n_rows=200, n_cols=7, index=4, value=10.0, noise=0.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n_rows, n_cols))
    G /= np.linalg.norm(G, axis=0)
    c = np.zeros(n_cols)
    c[index] = value
    b = G @ c
    if noise:
        b = b + noise * rng.standard_normal(n_rows)
    return G, b, c


def test_default_grid_is_logspaced():
    grid = sparse._LAMBDA_GRID
    assert np.array_equal(grid, np.logspace(-10, 0, 100))
    assert not grid.flags.writeable
    assert grid[0] == 1e-10 and grid[-1] == 1.0


# -------------------------------------------------------------- least squares

def test_least_squares_identity():
    b = np.array([3.0, -1.0, 2.5])
    assert np.allclose(least_squares(np.eye(3), b), b, rtol=0, atol=1e-14)


def test_least_squares_orthonormal_columns():
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((30, 5)))
    b = rng.standard_normal(30)
    c = least_squares(Q, b)
    assert np.allclose(c, Q.T @ b, rtol=0, atol=1e-12)


def test_least_squares_recovers_planted_solution():
    rng = np.random.default_rng(2)
    G = rng.standard_normal((50, 6))
    c_true = rng.standard_normal(6)
    c = least_squares(G, G @ c_true)
    assert np.linalg.norm(c - c_true) <= 1e-10 * np.linalg.norm(c_true)


def test_least_squares_is_minimum_norm_on_rank_deficiency():
    # a repeated column: the solution splits its weight evenly, silently
    rng = np.random.default_rng(3)
    G = rng.standard_normal((20, 3))
    G = np.column_stack([G, G[:, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = least_squares(G, rng.standard_normal(20))
    assert c[0] == pytest.approx(c[3], rel=1e-12)


def test_least_squares_shape_validation():
    with pytest.raises(ParameterError):
        least_squares(np.eye(3), np.ones(4))
    with pytest.raises(ParameterError):
        least_squares(np.ones(3), np.ones(3))


# ----------------------------------------------------------------------- mstls

def test_mstls_rejects_nonpositive_lambda():
    G, b, _ = planted_system(0)
    with pytest.raises(ParameterError):
        mstls(G, b, 0.0)
    with pytest.raises(ParameterError):
        mstls(G, b, -0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
@pytest.mark.parametrize("where", ["G", "b"])
@pytest.mark.parametrize("solve", [optimize_lambda, lambda G, b: mstls(G, b, 0.1)],
                         ids=["optimize_lambda", "mstls"])
def test_a_non_finite_system_is_refused_before_lapack(capfd, solve, where, bad):
    # LAPACK would print "On entry to DLASCL ..." on stderr and fit NaNs
    G, b = np.eye(7), np.ones(7)
    (G if where == "G" else b)[3] = bad
    with pytest.raises(ParameterError, match="must be finite"):
        solve(G, b)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("G, b", [(np.ones(7), np.ones(7)), (np.eye(7), np.ones(6)),
                                  (np.eye(7), np.ones((7, 1)))], ids=["1-d G", "short b", "2-d b"])
def test_a_misshaped_system_is_refused(G, b):
    for solve in (optimize_lambda, lambda G, b: mstls(G, b, 0.1)):
        with pytest.raises(ParameterError, match="incompatible shapes"):
            solve(G, b)


def test_mstls_zero_rhs_gives_zero_model():
    G, _, _ = planted_system(0)
    assert np.array_equal(mstls(G, np.zeros(G.shape[0]), 1e-3), np.zeros(7))


def test_mstls_exact_sparse_input():
    # with b = G c* exactly, the least-squares start is already 1-sparse,
    # every admissible threshold keeps that entry, and an inadmissible
    # threshold (lower bound above the coefficient) empties the model
    G, b, c_true = planted_system(4)
    for lam in (1e-8, 1e-3, 0.05):
        c = mstls(G, b, lam)
        assert np.flatnonzero(c).tolist() == [4]
        assert abs(c[4] - c_true[4]) <= 1e-10 * abs(c_true[4])
    assert np.array_equal(mstls(G, b, 1.0), np.zeros(7))


def test_mstls_recovery_survives_noise():
    G, b, c_true = planted_system(5, noise=1e-3)
    c = mstls(G, b, 1e-2)
    assert np.flatnonzero(c).tolist() == [4]
    assert abs(c[4] - c_true[4]) <= 1e-2 * abs(c_true[4])


def test_mstls_is_deterministic():
    G, b, _ = planted_system(6, noise=1e-2)
    assert np.array_equal(mstls(G, b, 1e-3), mstls(G, b, 1e-3))


@given(seed=st.integers(0, 2**31 - 1), lam_pow=st.floats(-8, -0.5))
def test_mstls_output_is_a_thresholding_fixed_point(seed, lam_pow):
    # surviving coefficients must themselves satisfy the bounds that
    # defined the active set, and equal the restricted least-squares refit
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((40, 5))
    b = rng.standard_normal(40)
    lam = 10.0 ** lam_pow
    c = mstls(G, b, lam)
    active = c != 0.0
    if not active.any():
        return
    norm_b = np.linalg.norm(b)
    col_norms = np.linalg.norm(G, axis=0)
    lower = lam * np.maximum(1.0, norm_b / col_norms)
    upper = (1.0 / lam) * np.minimum(1.0, norm_b / col_norms)
    assert np.all(np.abs(c[active]) >= lower[active])
    assert np.all(np.abs(c[active]) <= upper[active])
    refit = least_squares(G[:, active], b)
    assert np.allclose(c[active], refit, rtol=1e-12, atol=0)


# ------------------------------------------------------------ threshold sweep

def test_sweep_recovers_planted_support_under_noise():
    for seed in range(5):
        G, b, c_true = planted_system(seed, noise=1e-3)
        sol = optimize_lambda(G, b)
        assert sol.support == (4,)
        assert np.count_nonzero(sol.coefficients) == 1
        assert abs(sol.coefficients[4] - c_true[4]) <= 1e-2 * abs(c_true[4])
        assert sol.relative_residual <= 1e-2


def test_sweep_loss_minimum_sits_near_one_active_term():
    G, b, _ = planted_system(7, noise=1e-3)
    sol = optimize_lambda(G, b)
    losses = sol.loss_curve[:, 1]
    assert losses.min() == pytest.approx(1.0 / 7.0, abs=1e-2)
    # the dense end of the grid keeps everything: misfit 0, penalty 1
    assert losses[0] == pytest.approx(1.0, abs=1e-6)


def test_sweep_picks_smallest_minimizing_lambda():
    G, b, _ = planted_system(8, noise=1e-3)
    sol = optimize_lambda(G, b)
    grid, losses = sol.loss_curve[:, 0], sol.loss_curve[:, 1]
    assert np.all(np.diff(grid) > 0)
    assert sol.lambda_hat == grid[np.argmin(losses)]
    first = np.flatnonzero(losses == losses.min())[0]
    assert sol.lambda_hat == grid[first]


def test_sweep_zero_rhs_short_circuits():
    G, _, _ = planted_system(9)
    sol = optimize_lambda(G, np.zeros(G.shape[0]))
    assert np.array_equal(sol.coefficients, np.zeros(7))
    assert sol.lambda_hat == 1e-10
    assert sol.relative_residual == 0.0
    assert sol.support == ()
    assert sol.loss_curve.shape == (100, 2)


def test_sweep_reports_consistent_residual():
    G, b, _ = planted_system(10, noise=1e-2)
    sol = optimize_lambda(G, b)
    want = np.linalg.norm(b - G @ sol.coefficients) / np.linalg.norm(b)
    assert sol.relative_residual == pytest.approx(want, rel=1e-12)


def test_sweep_is_deterministic():
    G, b, _ = planted_system(13, noise=1e-2)
    a = optimize_lambda(G, b)
    c = optimize_lambda(G, b)
    assert np.array_equal(a.coefficients, c.coefficients)
    assert a.lambda_hat == c.lambda_hat
    assert np.array_equal(a.loss_curve, c.loss_curve)


# ------------------------------------------- sweep against the uncached oracle

def noisy_weak_system(seed=0, sigma=0.02):
    # a pinned beam mode, w_tt = -2.5 w_xxxx, with white noise on top
    x = np.linspace(0.0, 1.0, 129)
    k = 3 * np.pi
    omega = np.sqrt(2.5) * k * k
    t = np.linspace(0.0, 4.0 * np.pi / omega, 257)
    w = np.sin(k * x)[:, None] * np.cos(omega * t)[None, :]
    w += sigma * np.random.default_rng(seed).standard_normal(w.shape)
    g = FieldGrid(x, t, w)
    basis = TestFunctionBasis(p_x=9, p_t=9, m_x=20, m_t=40, s_x=4, s_t=8)
    system = assemble(g, basis, scales=rescale(g, basis))
    return system.G, system.b


def duplicated_column_system():
    G, b, _ = planted_system(14, noise=1e-2)
    return np.column_stack([G, G[:, 4]]), b


def zero_column_system():
    G, b, _ = planted_system(15, noise=1e-2)
    G[:, 2] = 0.0
    return G, b


def badly_scaled_system():
    # column norms and coefficients over six decades each: the sweep meets
    # two different active sets of the same size
    rng = np.random.default_rng(19)
    G = rng.standard_normal((100, 7)) * 10.0 ** rng.uniform(-3, 3, 7)
    b = G @ (10.0 ** rng.uniform(-3, 3, 7)) + rng.standard_normal(100)
    return G, b


SWEEP_CASES = {
    "noisy_weak_system": noisy_weak_system,
    "duplicated_column": duplicated_column_system,
    "zero_column": zero_column_system,
    "badly_scaled": badly_scaled_system,
}


@st.composite
def drawn_systems(draw):
    """Small systems with zero and duplicated columns, rank deficiency,
    column scales over +-6 decades, and sometimes b = 0."""
    n_rows, n_cols = draw(st.integers(4, 60)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, min(n_rows, n_cols)))
    G = rng.standard_normal((n_rows, rank)) @ rng.standard_normal((rank, n_cols))
    G *= 10.0 ** rng.uniform(-6, 6, n_cols)
    columns = st.integers(0, n_cols - 1)
    for j, k in draw(st.lists(st.tuples(columns, columns), max_size=2)):
        G[:, j] = G[:, k]
    for j in draw(st.lists(columns, max_size=2)):
        G[:, j] = 0.0
    rhs = draw(st.sampled_from(["zero", "planted", "random"]))
    if rhs == "zero":
        b = np.zeros(n_rows)
    else:
        c = np.where(rng.random(n_cols) < 0.4, 10.0 ** rng.uniform(-6, 6, n_cols), 0.0)
        b = G @ c + (rng.standard_normal(n_rows) * 10.0 ** rng.uniform(-6, 6)
                     if rhs == "random" else 0.0)
    return G, b


@pytest.mark.parametrize("case", sorted(SWEEP_CASES) + ["drawn"])
@given(data=st.data())
def test_sweep_matches_the_uncached_oracle(case, data):
    # a fixed case draws nothing, so Hypothesis runs it once
    G, b = data.draw(drawn_systems()) if case == "drawn" else SWEEP_CASES[case]()
    sol = optimize_lambda(G, b)
    coefficients, lambda_hat, curve = uncached_optimize_lambda(G, b, sparse._LAMBDA_GRID)
    assert np.array_equal(sol.loss_curve, curve)
    assert sol.lambda_hat == lambda_hat
    assert np.array_equal(sol.coefficients, coefficients)
    assert np.array_equal(mstls(G, b, sol.lambda_hat), sol.coefficients)


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_fits_each_active_set_once(case, monkeypatch):
    G, b = SWEEP_CASES[case]()
    fitted = []

    def recording(A, rhs):
        fitted.append(A.tobytes())
        return least_squares(A, rhs)

    monkeypatch.setattr(sparse, "least_squares", recording)
    optimize_lambda(G, b)
    assert len(fitted) == len(set(fitted))
