"""The one rule for scalar inputs, at every call that takes a count or a
physical number: a count is an ``int`` or a NumPy integer, never a
``bool`` and never ``3.0``; a physical number is a finite, positive real
number, never a ``bool``.  Anything else raises :class:`ParameterError`
and no other exception, and NumPy scalars give the same results as
Python ones.  The same holds for the finite real numbers that may be 0 or
less, and for the pairs of real numbers (the window's refusal is a
:class:`WindowError`)."""

import math

import numpy as np
import pytest

from conftest import AL_DENSITY, AL_FC, AL_SECTION, make_beam
from weakbeam.beamfem import BoundaryHistory, FemMesh, newmark_solve, sweep_modulus
from weakbeam.discovery import discover
from weakbeam.ensemble import run_ensemble
from weakbeam.errors import ParameterError, WindowError
from weakbeam.grid import window_time
from weakbeam.material import (
    BeamModel,
    CrossSection,
    frequency_roots,
    modulus_from_alpha,
    natural_frequencies,
    percent_error,
    smape,
)
from weakbeam.pipeline import PipelineConfig
from weakbeam.preprocess import bandpass_time, subsample_time
from weakbeam.sparse import mstls
from weakbeam.synth import burst, generate_beam_data
from weakbeam.weakform import (
    TestFunctionBasis,
    assemble,
    default_query_strides,
    mean_power_spectrum,
    select_support,
)

BASIS = dict(p_x=2, p_t=2, m_x=3, m_t=3, s_x=1, s_t=1)
REST = BoundaryHistory(np.arange(10) * 1e-6, np.zeros((10, 2)))
# a basis the edge field hosts at a few hundred query points
CHEAP = TestFunctionBasis(p_x=6, p_t=5, m_x=8, m_t=10, s_x=8, s_t=100)
SYSTEM = (np.eye(7) + 0.1, np.arange(1.0, 8.0))
STRIDES = dict(n_x=195, n_t=2501, m_x=8, m_t=10)


def synth(**kwargs):
    kwargs = dict(dt=1e-6, t_end=2e-5, sigma_rel=0.01) | kwargs
    return generate_beam_data(make_beam(), FemMesh(4, 5e-4), AL_FC, **kwargs).values


# each call as a function of (field, value), and a valid value
COUNTS = {
    "n_elements": (lambda f, n: FemMesh(n, 5e-4).node_positions, 4),
    "n_nodes": (lambda f, n: newmark_solve(FemMesh(4, 5e-4), make_beam(), REST, n).values, 3),
    "n_values": (lambda f, n: sweep_modulus(f, make_beam(), 6.5e10, 7.3e10, n).errors, 3),
    "max_ds": (lambda f, n: run_ensemble(f, n).as_report(), 1),
    "d": (lambda f, n: subsample_time(f, n, 1).values, 2),
    "offset": (lambda f, n: subsample_time(f, 3, n).values, 2),
    **{
        name: (lambda f, n, name=name: TestFunctionBasis(**BASIS | {name: n}), 2)
        for name in BASIS
    },
    "n_modes": (lambda f, n: frequency_roots("clamped-free", n), 3),
    "frequencies-n_modes": (lambda f, n: natural_frequencies(make_beam(), 0.1, n_modes=n), 3),
    "seed": (lambda f, n: synth(seed=n), 3),
    "config-max_ds": (lambda f, n: PipelineConfig(field_path="x", max_ds=n).to_dict(), 2),
    # a corner bin lies in 1 .. n // 2 of its axis
    "x corner bin": (lambda f, n: select_support(f, (n, 60)), 10),
    "t corner bin": (lambda f, n: select_support(f, (10, n)), 60),
    "axis": (lambda f, n: mean_power_spectrum(f, n), 1),
    **{
        f"strides-{name}": (
            lambda f, n, name=name: default_query_strides(**STRIDES | {name: n}), STRIDES[name]
        )
        for name in STRIDES
    },
}

NUMBERS = {
    "density": (lambda f, v: modulus_from_alpha(1.0, BeamModel(section=AL_SECTION, density=v)),
                AL_DENSITY),
    "youngs_modulus": (lambda f, v: natural_frequencies(make_beam(v), 0.1), 6.9e10),
    "alpha": (lambda f, v: modulus_from_alpha(v, make_beam()), 1.0),
    "nominal": (lambda f, v: percent_error(7e10, v), 6.9e10),
    "length": (lambda f, v: natural_frequencies(make_beam(), v), 0.1),
    "fc": (lambda f, v: burst(np.arange(50) * 1e-6, v), AL_FC),
    "config-density": (
        lambda f, v: PipelineConfig(field_path="x", section=AL_SECTION, density=v).to_dict(),
        AL_DENSITY,
    ),
    "diameter": (lambda f, v: CrossSection.circle(v).second_moment, 6.35e-3),
    "width": (lambda f, v: CrossSection.rectangle(v, 2.84e-3).second_moment, 4.18e-3),
    "thickness": (lambda f, v: CrossSection.rectangle(4.18e-3, v).second_moment, 2.84e-3),
    "dx": (lambda f, v: FemMesh(4, v).node_positions, 5e-4),
    "e_lo": (lambda f, v: sweep_modulus(f, make_beam(), v, 7.3e10, 3).errors, 6.5e10),
    "e_hi": (lambda f, v: sweep_modulus(f, make_beam(), 6.5e10, v, 3).errors, 7.3e10),
    "dt": (lambda f, v: synth(dt=v), 1e-6),
    "t_end": (lambda f, v: synth(t_end=v), 2e-5),
    "lam": (lambda f, v: mstls(*SYSTEM, v), 0.1),
    **{
        name: (lambda f, v, i=i: assemble(f, CHEAP, (1.0,) * i + (v,) + (1.0,) * (2 - i)).G, 2.0)
        for i, name in enumerate(("gamma_w", "gamma_x", "gamma_t"))
    },
    "modulus": (lambda f, v: percent_error(v, 6.9e10), 7e10),
}

NOT_NUMBERS = [math.nan, math.inf, -math.inf, True, "3", None]
NOT_COUNTS = NOT_NUMBERS + [2.5, 3.0]


def _same(a, b) -> bool:
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize(
    "call, value",
    # newmark_solve reads n_nodes=None as every node
    [(call, v) for call in COUNTS for v in NOT_COUNTS if not (call == "n_nodes" and v is None)],
    ids=lambda v: v if isinstance(v, str) and v in COUNTS else repr(v),
)
def test_a_count_is_an_integer_and_nothing_else(edge_field, call, value):
    with pytest.raises(ParameterError):
        COUNTS[call][0](edge_field, value)


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("call", NUMBERS)
def test_a_physical_number_is_finite_positive_and_real(edge_field, call, value):
    with pytest.raises(ParameterError):
        NUMBERS[call][0](edge_field, value)


@pytest.mark.parametrize(
    "call, numpy_type",
    [*((call, np.int64) for call in COUNTS), *((call, np.float64) for call in NUMBERS)],
)
def test_numpy_scalars_give_the_same_results(edge_field, call, numpy_type):
    compute, valid = (COUNTS | NUMBERS)[call]
    assert _same(compute(edge_field, numpy_type(valid)), compute(edge_field, valid))


# each call that takes a finite real number with a lower bound, a function
# of (field, value), and a valid value; sigma_rel and margin_frac may be 0
REALS = {
    "sigma_rel": (lambda f, v: synth(sigma_rel=v), 0.01),
    "margin_frac": (lambda f, v: synth(margin_frac=v), 0.5),
    "smape-nominal": (lambda f, v: smape([1.0, 3.0], v), 2.0),
    # smape's values, one in a list and one alone
    "smape-values": (lambda f, v: smape([1.0, v], 2.0), 3.0),
    "smape-value": (lambda f, v: smape(v, 2.0), 3.0),
}

# each call that takes a pair of real numbers, a function of (field, pair),
# a valid pair, the error a bad one raises, and real pairs out of its range
PAIRS = {
    "band": (lambda f, p: bandpass_time(f, *p).values, (1e3, 1e5), ParameterError,
             [(-1.0, 1e5), (5e4, 1e3), (1e3, 1e3)]),
    "window": (lambda f, p: window_time(f, *p).values, (1e-4, 4e-4), WindowError,
               [(1e-4, 0.0), (0.0, math.inf), (-math.inf, 1e-4)]),
    "tau_hat": (lambda f, p: discover(f, tau_hat=p).coefficients, (0.8, 2.0), ParameterError,
                ["x", True, (1, None), (1.0, 2.0, 3.0), math.nan]),
}
NOT_PAIR_PARTS = [math.nan, True, "x", None]


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("call", REALS)
def test_a_finite_real_is_finite_and_real(edge_field, call, value):
    with pytest.raises(ParameterError, match=call.split("-")[-1]):
        REALS[call][0](edge_field, value)


@pytest.mark.parametrize(
    "call, pair",
    [
        *((call, bad) for call, (_, _, _, extra) in PAIRS.items() for bad in extra),
        # a value no real number can stand for, in either place
        *((call, pair) for call, (_, valid, _, _) in PAIRS.items() for v in NOT_PAIR_PARTS
          for pair in ((v, valid[1]), (valid[0], v))),
    ],
    ids=repr,
)
def test_a_pair_is_two_real_numbers_in_its_range(edge_field, call, pair):
    compute, _, error, _ = PAIRS[call]
    with pytest.raises(error, match=call) as info:
        compute(edge_field, pair)
    assert type(info.value) is error


@pytest.mark.parametrize("call", [*REALS, *PAIRS])
def test_numpy_reals_and_pairs_give_the_same_results(edge_field, call):
    if call in REALS:
        compute, valid = REALS[call]
        numpy_valid = np.float64(valid)
    else:
        compute, valid = PAIRS[call][:2]
        numpy_valid = np.array(valid)
    assert _same(compute(edge_field, numpy_valid), compute(edge_field, valid))


@pytest.mark.parametrize("call", [*NUMBERS, *REALS, *PAIRS])
def test_an_integer_past_the_float_range_is_no_real_number(edge_field, call):
    # 10**400 is an int to Python, and JSON reads 1 and 400 zeros as one
    big = 10**400
    if call in PAIRS:
        compute, valid, error, _ = PAIRS[call]
        value = (valid[0], big)
    else:
        compute, error, value = (NUMBERS | REALS)[call][0], ParameterError, big
    with pytest.raises(error) as info:
        compute(edge_field, value)
    assert type(info.value) is error
