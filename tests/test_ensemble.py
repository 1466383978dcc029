import dataclasses
from collections import Counter

import numpy as np
import pytest

from weakbeam.discovery import discover
from weakbeam.ensemble import (
    EnsembleRun,
    _subset_x_spectra,
    aggregate,
    run_ensemble,
    subsample_time,
)
from weakbeam.errors import AggregationError, ParameterError
from weakbeam.grid import FieldGrid
from weakbeam.weakform import TERM_NAMES, mean_power_spectrum


def toy_grid(n_t=60, n_x=8):
    rng = np.random.default_rng(0)
    return FieldGrid(
        np.arange(n_x) * 1e-3, np.arange(n_t) * 1e-6, rng.standard_normal((n_x, n_t))
    )


# --------------------------------------------------------------- subsampling

def test_subsample_counts_match_decimation():
    g = toy_grid(n_t=2801)
    assert subsample_time(g, 10, 1).n_t == 281
    assert subsample_time(toy_grid(n_t=1501), 10, 2).n_t == 150


def test_subsample_scales_dt_and_keeps_space():
    g = toy_grid(n_t=60)
    sub = subsample_time(g, 5, 2)
    assert sub.dt == pytest.approx(5 * g.dt, rel=1e-12)
    assert np.array_equal(sub.x, g.x)
    assert np.array_equal(sub.values, g.values[:, 1::5])
    assert sub.t[0] == g.t[1]


def test_subsample_identity_at_unit_step():
    g = toy_grid()
    sub = subsample_time(g, 1, 1)
    assert np.array_equal(sub.values, g.values)
    assert np.array_equal(sub.t, g.t)


def test_subsample_offsets_partition_the_samples():
    g = toy_grid(n_t=61)
    for d in (2, 3, 4):
        pieces = [subsample_time(g, d, i).t for i in range(1, d + 1)]
        recombined = np.sort(np.concatenate(pieces))
        assert np.array_equal(recombined, g.t)


def test_subsample_validation():
    g = toy_grid()
    with pytest.raises(ParameterError):
        subsample_time(g, 0, 1)
    with pytest.raises(ParameterError):
        subsample_time(g, 3, 0)
    with pytest.raises(ParameterError):
        subsample_time(g, 3, 4)


# ----------------------------------------------------------------- ensembles

def test_unit_ensemble_reproduces_plain_discovery(edge_field):
    ens = run_ensemble(edge_field, max_ds=1)
    assert len(ens.runs) == 1
    ref = discover(edge_field)
    assert np.array_equal(ens.runs[0].result.coefficients, ref.coefficients)
    assert ens.modal_support == ref.support
    assert ens.support_agreement == 1.0


def test_small_ensemble_on_clean_data(edge_field):
    ens = run_ensemble(edge_field, max_ds=3)
    assert len(ens.runs) == 6  # 1 + 2 + 3 phase-shifted subsets
    assert ens.n_success == 6
    assert [(r.d, r.offset) for r in ens.runs] == [
        (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
    ]
    assert ens.modal_support == ("w_xxxx",)
    assert ens.support_agreement == 1.0
    stats = ens.stats["w_xxxx"]
    assert stats.n_active == 6
    assert stats.min <= stats.median <= stats.max
    assert abs(stats.std / stats.mean) < 1e-3  # subsets agree tightly
    values = np.array([r.result.coefficient("w_xxxx") for r in ens.runs if r.ok])
    assert values.shape == (6,)
    assert np.all(values < 0)


def test_shared_x_spectra_equal_each_subset_transform(noisy_fields):
    g = noisy_fields[0]
    spectra = _subset_x_spectra(g, 10)
    assert len(spectra) == 55
    for (d, offset), power in spectra.items():
        want = mean_power_spectrum(subsample_time(g, d, offset), 0)
        assert np.array_equal(power, want), (d, offset)


def test_ensemble_equals_a_plain_loop_of_discoveries(noisy_fields):
    g = noisy_fields[0]
    ens = run_ensemble(g, max_ds=10)
    assert [(r.d, r.offset) for r in ens.runs] == [
        (d, o) for d in range(1, 11) for o in range(1, d + 1)
    ]
    for run in ens.runs:
        ref = discover(subsample_time(g, run.d, run.offset))
        assert run.result.support == ref.support
        scale = np.abs(ref.coefficients).max()
        assert np.abs(run.result.coefficients - ref.coefficients).max() <= 1e-12 * scale


def test_record_shorter_than_max_ds_fails_runs_not_the_ensemble():
    # 8 samples: subsets (9, 9), (10, 9) and (10, 10) have none
    rng = np.random.default_rng(0)
    g = FieldGrid(np.arange(40) * 5e-4, np.arange(8) * 1e-6, rng.standard_normal((40, 8)))
    ens = run_ensemble(g, max_ds=10)
    assert len(ens.runs) == 55 and ens.n_success == 1
    failed = [r for r in ens.runs if not r.ok]
    assert Counter(r.error.split(":")[0] for r in failed) == {
        "DegenerateDataError": 36, "SelectionError": 15, "GridError": 3,
    }
    empty = [(r.d, r.offset) for r in failed if r.error.startswith("GridError")]
    assert empty == [(9, 9), (10, 9), (10, 10)]


def test_ensemble_rejects_bad_max_ds(edge_field):
    with pytest.raises(ParameterError):
        run_ensemble(edge_field, max_ds=0)


# --------------------------------------------------------------- aggregation

@pytest.fixture(scope="module")
def template_run(edge_field):
    return discover(edge_field)


def with_alpha(template, alpha):
    c = np.zeros(len(TERM_NAMES))
    c[TERM_NAMES.index("w_xxxx")] = alpha
    return dataclasses.replace(template, coefficients=c)


def test_aggregate_statistics_by_hand(template_run):
    runs = tuple(
        EnsembleRun(d=1, offset=1, result=with_alpha(template_run, a))
        for a in (1.0, 2.0, 3.0)
    )
    ens = aggregate(runs)
    stats = ens.stats["w_xxxx"]
    assert stats.n_active == 3
    assert stats.mean == 2.0
    assert stats.median == 2.0
    assert stats.std == 1.0  # sample standard deviation
    assert (stats.min, stats.max) == (1.0, 3.0)
    assert ens.modal_support == ("w_xxxx",)
    assert "w_x" not in ens.stats  # never active anywhere


def test_aggregate_identical_runs_have_zero_spread(template_run):
    runs = tuple(
        EnsembleRun(d=1, offset=1, result=with_alpha(template_run, 2.5))
        for _ in range(2)
    )
    stats = aggregate(runs).stats["w_xxxx"]
    assert stats.std == 0.0
    assert stats.mean == 2.5


def test_aggregate_single_run_spread_is_zero(template_run):
    runs = (EnsembleRun(d=1, offset=1, result=with_alpha(template_run, -4.0)),)
    assert aggregate(runs).stats["w_xxxx"].std == 0.0


def test_aggregate_is_order_invariant(template_run):
    runs = tuple(
        EnsembleRun(d=1, offset=i + 1, result=with_alpha(template_run, a))
        for i, a in enumerate((1.0, 2.0, 3.0))
    )
    fwd = aggregate(runs)
    rev = aggregate(runs[::-1])
    assert fwd.modal_support == rev.modal_support
    assert fwd.support_agreement == rev.support_agreement
    assert fwd.stats["w_xxxx"].mean == pytest.approx(rev.stats["w_xxxx"].mean, rel=1e-14)
    assert fwd.stats["w_xxxx"].std == pytest.approx(rev.stats["w_xxxx"].std, rel=1e-12)


def test_aggregate_modal_tie_breaks_lexicographically(template_run):
    only_w = np.zeros(len(TERM_NAMES))
    only_w[TERM_NAMES.index("w")] = 1.0
    other = dataclasses.replace(
        template_run,
        solution=dataclasses.replace(template_run.solution, coefficients=only_w),
    )
    runs = (
        EnsembleRun(d=1, offset=1, result=template_run),   # support (w_xxxx,)
        EnsembleRun(d=2, offset=1, result=other),          # support (w,)
    )
    ens = aggregate(runs)
    assert ens.modal_support == ("w",)
    assert ens.support_agreement == 0.5


def test_failed_runs_are_recorded_not_counted(template_run):
    runs = (
        EnsembleRun(d=1, offset=1, result=template_run),
        EnsembleRun(d=2, offset=1, error="SelectionError: too few samples"),
    )
    ens = aggregate(runs)
    assert ens.n_success == 1
    assert len(ens.runs) == 2
    assert not ens.runs[1].ok
    assert ens.support_agreement == 1.0


def test_aggregate_with_no_successes_raises():
    runs = tuple(
        EnsembleRun(d=d, offset=1, error="SelectionError: nope") for d in (1, 2)
    )
    with pytest.raises(AggregationError):
        aggregate(runs)
