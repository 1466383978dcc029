import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import AL_DENSITY, AL_MODULUS, AL_SECTION, make_beam
from weakbeam import beamfem
from weakbeam.beamfem import simulate_measured, sweep_modulus
from weakbeam.errors import ParameterError
from weakbeam.grid import FieldGrid, load_field, save_field
from weakbeam.material import CrossSection
from weakbeam.pipeline import (
    CONFIG_EXIT_CODE,
    STAGE_EXIT_CODES,
    PipelineConfig,
    StageError,
    run_pipeline,
)


@pytest.fixture(scope="module")
def full_config(edge_field_file):
    return PipelineConfig(
        field_path=str(edge_field_file),
        max_ds=2,
        section=AL_SECTION,
        density=AL_DENSITY,
        nominal_modulus=AL_MODULUS,
        sweep=(0.98 * AL_MODULUS, 1.02 * AL_MODULUS, 3),
    )


@pytest.fixture(scope="module")
def full_report(full_config):
    return run_pipeline(full_config)


def test_exit_codes_are_reserved_per_stage():
    assert STAGE_EXIT_CODES == {
        "ingest": 9,
        "preprocess": 3,
        "discover": 4,
        "ensemble": 5,
        "material": 6,
        "simulate": 7,
    }
    # bad data, argparse's usage error, the six stages and the config
    codes = [1, 2, *STAGE_EXIT_CODES.values(), CONFIG_EXIT_CODE]
    assert len(set(codes)) == len(codes) == 9


# -------------------------------------------------------------- configuration

def test_config_round_trips_through_dict(full_config):
    rebuilt = PipelineConfig.from_dict(full_config.to_dict())
    assert rebuilt == full_config


def test_config_round_trips_through_json(tmp_path, full_config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(full_config.to_dict()), encoding="utf-8")
    assert PipelineConfig.from_json(path) == full_config


def test_a_config_of_numpy_values_writes_the_report_of_plain_ones(tmp_path, edge_field_file):
    # the config holds Python numbers and tuples, however it was built, so
    # its report dumps as JSON and is the report of the plain config
    common = dict(field_path=str(edge_field_file), simulate=False)
    diameter = np.float32(AL_SECTION.diameter)
    plain = PipelineConfig(**common, max_ds=1, section=CrossSection.circle(float(diameter)),
                           density=AL_DENSITY, nominal_modulus=AL_MODULUS, band=(2e3, 4e4))
    numpy = PipelineConfig(**common, max_ds=np.int64(1), section=CrossSection.circle(diameter),
                           density=np.float64(AL_DENSITY), nominal_modulus=np.float64(AL_MODULUS),
                           band=np.array([2e3, 4e4]))
    assert numpy == plain
    assert json.dumps(numpy.to_dict()) == json.dumps(plain.to_dict())
    reports = []
    for name, config in (("plain", plain), ("numpy", numpy)):
        run_pipeline(config, out_dir=tmp_path / name)
        report = json.loads((tmp_path / name / "report.json").read_text(encoding="utf-8"))
        reports.append({k: v for k, v in report.items() if k != "timing"})
    assert reports[0] == reports[1]
    assert reports[0]["stages"][-1] == "material"


def test_config_rectangle_section_round_trips():
    cfg = PipelineConfig(
        field_path="x.field", section=CrossSection.rectangle(4.18e-3, 2.84e-3), density=1301.4
    )
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg
    # the unset diameter is left out
    section = cfg.to_dict()["section"]
    assert section == {"kind": "rectangle", "width": 4.18e-3, "thickness": 2.84e-3}
    json.dumps(cfg.to_dict(), allow_nan=False)


def test_config_rejects_unknown_keys():
    with pytest.raises(ParameterError):
        PipelineConfig.from_dict({"field_path": "x", "bogus": 1})


@pytest.mark.parametrize(
    "sweep", [[7.2e10, 6.6e10, 3], [0.0, 7e10, 3], [6.6e10, float("inf"), 3]]
)
def test_config_rejects_a_bad_sweep_range(sweep):
    # refused when the config is read, before any stage runs
    with pytest.raises(ParameterError, match="sweep"):
        PipelineConfig.from_dict({"field_path": "x", "sweep": sweep})


# ------------------------------------------------------------------ full runs

def test_full_run_visits_every_stage(full_report):
    assert full_report["stages"] == [
        "ingest",
        "preprocess",
        "discover",
        "ensemble",
        "material",
        "simulate",
    ]
    # the report echoes the section's own dimensions and no other
    assert full_report["config"]["section"] == {"kind": "circle", "diameter": 6.35e-3}
    assert full_report["ingest"]["n_x"] == 195
    assert full_report["discovery"]["support"] == ["w_xxxx"]
    assert full_report["discovery"]["degenerate"] is False
    ens = full_report["ensemble"]
    assert ens["n_runs"] == 3 and ens["n_success"] == 3
    assert ens["modal_support"] == ["w_xxxx"]
    assert ens["support_agreement"] == 1.0
    assert ens["failures"] == []
    mat = full_report["material"]
    assert mat["alpha"] > 0
    assert mat["youngs_modulus"] == pytest.approx(AL_MODULUS, rel=1e-2)
    assert mat["percent_error"] < 1.0
    # simulated with the recovered modulus, so the remaining error mixes
    # discretization with the small recovery bias
    sim = full_report["simulation"]
    assert sim["frobenius_rel"] < 5e-3
    sweep = full_report["sweep"]
    assert len(sweep["moduli"]) == 3 and len(sweep["errors"]) == 3
    assert sweep["best_error"] == min(sweep["errors"])
    assert sweep["bracketed"] is True  # the grid straddles the true modulus


# the bound of test_replay_sweep_stays_within_the_per_trial_gap: the modal
# march and simulate_measured's banded one round differently
PER_TRIAL_GAP = 3e-9


def test_simulate_stage_replays_the_modulus_with_the_sweep(full_config, full_report):
    # one modal march over the discovered modulus and the grid: the first
    # is simulate_measured's error to the marches' rounding, the rest the
    # sweep's own to the rounding of a march one trial wider
    data = load_field(full_config.field_path)
    modulus = full_report["material"]["youngs_modulus"]
    sim = simulate_measured(data, make_beam(modulus=modulus))
    assert abs(full_report["simulation"]["frobenius_rel"] - sim.frobenius_rel) <= PER_TRIAL_GAP
    sweep = sweep_modulus(data, make_beam(), *full_config.sweep)
    report = full_report["sweep"]
    assert report["moduli"] == sweep.moduli.tolist()
    np.testing.assert_allclose(report["errors"], sweep.errors, rtol=1e-14, atol=0.0)
    assert report["best_modulus"] == sweep.best_modulus


def test_simulate_stage_without_a_sweep_replays_the_modulus_alone(full_config, full_report):
    report = run_pipeline(replace(full_config, max_ds=0, sweep=None))
    assert "sweep" not in report
    data = load_field(full_config.field_path)
    modulus = report["material"]["youngs_modulus"]
    assert modulus == full_report["material"]["youngs_modulus"]
    error = report["simulation"]["frobenius_rel"]
    sim = simulate_measured(data, make_beam(modulus=modulus))
    assert abs(error - sim.frobenius_rel) <= PER_TRIAL_GAP
    assert error == pytest.approx(full_report["simulation"]["frobenius_rel"], rel=1e-14, abs=0.0)


def test_simulate_stage_extracts_the_edges_once_and_never_marches_banded(
    full_config, monkeypatch
):
    calls = {"extract_boundaries": 0, "newmark_march": 0}

    def counted(name):
        original = getattr(beamfem, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return count

    for name in calls:
        monkeypatch.setattr(beamfem, name, counted(name))
    report = run_pipeline(replace(full_config, max_ds=0))
    assert "sweep" in report
    assert calls == {"extract_boundaries": 1, "newmark_march": 0}


def test_report_is_json_serializable(full_report):
    json.dumps(full_report)


def test_identical_configs_give_identical_reports(full_config, full_report):
    again = run_pipeline(full_config)
    a = {k: v for k, v in full_report.items() if k != "timing"}
    b = {k: v for k, v in again.items() if k != "timing"}
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_discovery_only_run_omits_later_stages(edge_field_file):
    cfg = PipelineConfig(field_path=str(edge_field_file))
    report = run_pipeline(cfg)
    assert report["stages"] == ["ingest", "preprocess", "discover"]
    for absent in ("ensemble", "material", "simulation", "sweep"):
        assert absent not in report


def test_window_restricts_discovery_samples(edge_field_file):
    cfg = PipelineConfig(field_path=str(edge_field_file), window=(0.0, 1e-3))
    report = run_pipeline(cfg)
    assert report["preprocess"]["n_t"] == 1251
    assert report["discovery"]["support"] == ["w_xxxx"]


def test_degenerate_field_reports_empty_model(tmp_path):
    zero = FieldGrid(
        np.arange(40) * 1e-3, np.arange(60) * 1e-6, np.zeros((40, 60))
    )
    path = tmp_path / "zero.field"
    save_field(zero, path)
    cfg = PipelineConfig(
        field_path=str(path),
        section=AL_SECTION,
        density=AL_DENSITY,
        max_ds=3,
    )
    report = run_pipeline(cfg)  # degenerate data is a result, not a crash
    assert report["discovery"]["degenerate"] is True
    assert report["discovery"]["pde"] == "w_tt = 0"
    assert report["stages"] == ["ingest", "preprocess", "discover"]
    assert "material" not in report and "simulation" not in report


# -------------------------------------------------------------- stage fencing

def test_missing_input_fails_at_ingest(tmp_path):
    cfg = PipelineConfig(field_path=str(tmp_path / "absent.field"))
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "ingest"
    assert err.value.exit_code == 9


def test_bad_band_fails_at_preprocess(edge_field_file):
    # edge data is sampled at 1.25 MHz; a 1-2 MHz band sits above Nyquist
    cfg = PipelineConfig(field_path=str(edge_field_file), band=(1e6, 2e6))
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "preprocess"
    assert err.value.exit_code == 3


@pytest.mark.parametrize("factor", [0, -1])
def test_non_positive_downsample_is_a_config_error(edge_field_file, factor):
    # the preprocess stage's count rule, applied by the config before ingest
    with pytest.raises(ParameterError, match=f"'downsample'.* >= 1, got {factor}$"):
        PipelineConfig(field_path=str(edge_field_file), downsample=factor)


def test_structureless_data_fails_at_material(tmp_path):
    rng = np.random.default_rng(42)
    noise = FieldGrid(
        np.arange(64) * 1e-3, np.arange(200) * 1e-6, rng.standard_normal((64, 200))
    )
    path = tmp_path / "noise.field"
    save_field(noise, path)
    cfg = PipelineConfig(
        field_path=str(path),
        section=AL_SECTION,
        density=AL_DENSITY,
        simulate=False,
    )
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "material"
    assert err.value.exit_code == 6


# ------------------------------------------------------------------- exports

def test_out_dir_receives_report_and_curves(tmp_path, full_config):
    out = tmp_path / "run"
    report = run_pipeline(full_config, out_dir=out)
    on_disk = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert on_disk["discovery"]["pde"] == report["discovery"]["pde"]

    loss_lines = (out / "loss_curve.csv").read_text(encoding="utf-8").splitlines()
    assert loss_lines[0] == "lambda,loss"
    assert len(loss_lines) == 101  # header + the 100-point threshold grid

    ens_lines = (out / "ensemble.csv").read_text(encoding="utf-8").splitlines()
    assert ens_lines[0] == "d,offset,status,alpha,relative_residual"
    assert len(ens_lines) == 4  # header + runs (1,1), (2,1), (2,2)
    assert all(line.split(",")[2] == "ok" for line in ens_lines[1:])

    sweep_lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert sweep_lines[0] == "youngs_modulus,frobenius_rel"
    assert len(sweep_lines) == 4
