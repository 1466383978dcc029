import argparse
import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import AL_DENSITY, AL_MODULUS, AL_SECTION, make_beam
from oracles import analytic_beam_frequencies
from weakbeam.beamfem import sweep_modulus
from weakbeam.cli import _beam, main
from weakbeam.discovery import discover
from weakbeam.ensemble import run_ensemble
from weakbeam.errors import ParameterError
from weakbeam.grid import FieldGrid, load_field, save_field
from weakbeam.material import CrossSection
from weakbeam.pipeline import (
    CONFIG_EXIT_CODE,
    STAGE_EXIT_CODES,
    PipelineConfig,
    _json_text,
    run_pipeline,
)
from weakbeam.preprocess import condition

SYNTH_FLAGS = [
    "--section", "circle:d=6.35e-3",
    "--density", "2721.9",
    "--modulus", "6.9e10",
    "--n-points", "195",
    "--dx", "5e-4",
    "--fc", "1e4",
    "--dt", "8e-7",
    "--t-end", "2e-3",
    "--margin-frac", "0.5",
]


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


@pytest.fixture(scope="module")
def synth_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "synth.field"
    assert main(["synth", *SYNTH_FLAGS, "--out", str(path)]) == 0
    return path


def test_synth_writes_the_configured_field(capsys, tmp_path, edge_field):
    out = tmp_path / "field.field"
    payload = run_json(capsys, ["synth", *SYNTH_FLAGS, "--out", str(out)])
    assert payload == {"out": str(out), "n_x": 195, "n_t": 2501}
    written = load_field(out)
    # same physics as the library call with these parameters
    assert np.array_equal(written.values, edge_field.values)


def test_synth_rejects_coarse_sampling(capsys, tmp_path):
    argv = ["synth", *SYNTH_FLAGS, "--out", str(tmp_path / "x.field")]
    argv[argv.index("--dt") + 1] = "1e-5"
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_discover_round_trip(capsys, synth_file, tmp_path):
    report_path = tmp_path / "report.json"
    payload = run_json(
        capsys,
        ["discover", "--in", str(synth_file), "--json", str(report_path)],
    )
    assert payload["support"] == ["w_xxxx"]
    assert payload["pde"].startswith("w_tt = -")
    full = json.loads(report_path.read_text(encoding="utf-8"))
    assert full["pde"] == payload["pde"]
    assert full["basis"]["m_x"] > 0


def test_discover_missing_file_is_an_error(capsys, tmp_path):
    assert main(["discover", "--in", str(tmp_path / "nope.field")]) == 1
    assert "error:" in capsys.readouterr().err


def test_ensemble_subcommand(capsys, synth_file, tmp_path):
    csv_path = tmp_path / "runs.csv"
    json_path = tmp_path / "ensemble.json"
    payload = run_json(
        capsys,
        [
            "ensemble", "--in", str(synth_file),
            "--max-ds", "2",
            "--csv", str(csv_path),
            "--json", str(json_path),
        ],
    )
    assert payload["n_runs"] == 3
    assert payload["n_success"] == 3
    assert payload["modal_support"] == ["w_xxxx"]
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "d,offset,status,alpha,relative_residual"
    assert len(lines) == 4
    assert json.loads(json_path.read_text(encoding="utf-8")) == payload


def test_ensemble_max_ds_past_the_record(capsys, tmp_path):
    # short subsets are failed runs, not a failed ensemble; a decimation past
    # the record's end, whose subsets are all empty, is an error
    rng = np.random.default_rng(0)
    path = tmp_path / "short.field"
    save_field(FieldGrid(np.arange(40) * 5e-4, np.arange(8) * 1e-6,
                         rng.standard_normal((40, 8))), path)
    payload = run_json(capsys, ["ensemble", "--in", str(path), "--max-ds", "8"])
    assert payload["n_runs"] == 36 and payload["n_success"] == 1
    assert main(["ensemble", "--in", str(path), "--max-ds", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "max_ds = 10" in err and "n_t = 8" in err


def test_preprocess_subcommand(capsys, synth_file, tmp_path):
    out = tmp_path / "cut.field"
    payload = run_json(
        capsys,
        [
            "preprocess", "--in", str(synth_file), "--out", str(out),
            "--downsample", "2",
            "--window", "0,1e-3",
        ],
    )
    cut = load_field(out)
    assert payload["n_t"] == cut.n_t
    assert cut.dt == pytest.approx(1.6e-6, rel=1e-9)
    assert cut.t[-1] <= 1e-3 + 1e-12


def test_modulus_table_row(capsys):
    payload = run_json(
        capsys,
        [
            "modulus",
            "--alpha", "58.5218",
            "--section", "circle:d=6.35e-3",
            "--density", "2721.9",
            "--nominal", "6.9e10",
        ],
    )
    assert payload["youngs_modulus"] == pytest.approx(6.3206e10, rel=1e-4)
    assert payload["percent_error"] == pytest.approx(8.3967, abs=0.01)
    assert payload["nominal_modulus"] == 6.9e10


def test_modulus_bad_section_is_an_error(capsys):
    assert main(
        ["modulus", "--alpha", "1.0", "--section", "hexagon:d=1", "--density", "1.0"]
    ) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec", ["circle:d=6.35e-3,d=1", "circle:d=6.35e-3,w=1", "rectangle:w=1,t=1,d=1"]
)
def test_section_spec_takes_each_of_its_own_keys_once(capsys, spec):
    # each of the kind's own keys exactly once: a repeated key or another
    # kind's key is an error, not a value kept or dropped without a word
    assert main(["modulus", "--section", spec, "--density", "2721.9", "--alpha", "58.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: cannot parse section {spec!r}")


@pytest.mark.parametrize(
    "spec, area, second_moment",
    [
        (spec, "3.1669217443593606e-05", "7.981137627308144e-11")
        for spec in ("circle:d=6.35e-3", "circ:d=6.35e-3", "circle:d=6.35e-3,")
    ] + [
        (spec, "1.1871199999999999e-05", "7.979029226666666e-12")
        for spec in ("rectangle:w=4.18e-3,t=2.84e-3", "rect:w=4.18e-3,t=2.84e-3",
                     "rectangle:t=2.84e-3,w=4.18e-3")
    ],
)
def test_section_spec_builds_the_same_section(spec, area, second_moment):
    section = _beam(argparse.Namespace(section=spec, density=1.0)).section
    assert (repr(section.area), repr(section.second_moment)) == (area, second_moment)


def test_modes_subcommand(capsys):
    section = CrossSection.circle(6.35e-3)
    f1 = float(
        analytic_beam_frequencies(
            AL_MODULUS, section.second_moment, 2721.9, section.area,
            0.097, "clamped-free", 1,
        )[0]
    )
    payload = run_json(
        capsys,
        [
            "modes",
            "--section", "circle:d=6.35e-3",
            "--density", "2721.9",
            "--modulus", "6.9e10",
            "--length", "0.097",
            "--boundary", "clamped-free",
            "--n-modes", "4",
            "--measured", repr(f1),
        ],
    )
    freqs = payload["frequencies"]
    assert len(freqs) == 4
    assert freqs == sorted(freqs)
    assert freqs[0] == pytest.approx(f1, rel=1e-10)
    assert payload["smape_vs_mode1"] <= 1e-8


def test_simulate_subcommand(capsys, synth_file, tmp_path):
    out = tmp_path / "sim.field"
    payload = run_json(
        capsys,
        [
            "simulate", "--in", str(synth_file),
            "--section", "circle:d=6.35e-3",
            "--density", "2721.9",
            "--modulus", "6.9e10",
            "--out-field", str(out),
        ],
    )
    assert payload["frobenius_rel"] < 1e-3
    sim = load_field(out)
    measured = load_field(synth_file)
    assert sim.values.shape == measured.values.shape


def test_simulate_accepts_a_field_whose_x_starts_off_zero(capsys, edge_field, tmp_path):
    # a measured scan stored with its true positions
    data = FieldGrid(0.01 + 5e-4 * np.arange(10), edge_field.t[:200], edge_field.values[:10, :200])
    path, out = tmp_path / "offset.field", tmp_path / "sim.field"
    save_field(data, path)
    payload = run_json(
        capsys,
        [
            "simulate", "--in", str(path),
            "--section", "circle:d=6.35e-3",
            "--density", "2721.9",
            "--modulus", "6.9e10",
            "--out-field", str(out),
        ],
    )
    assert np.isfinite(payload["frobenius_rel"])
    assert np.array_equal(load_field(out).x, data.x)


def test_sweep_subcommand(capsys, synth_file, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    payload = run_json(
        capsys,
        [
            "sweep-e", "--in", str(synth_file),
            "--section", "circle:d=6.35e-3",
            "--density", "2721.9",
            "--e-lo", repr(0.95 * AL_MODULUS),
            "--e-hi", repr(1.05 * AL_MODULUS),
            "--n", "3",
            "--csv", str(csv_path),
        ],
    )
    assert payload["n_values"] == 3
    assert payload["best_modulus"] == pytest.approx(AL_MODULUS, rel=1e-12)
    assert payload["bracketed"] is True
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "youngs_modulus,frobenius_rel"
    assert len(lines) == 4


def test_sweep_without_a_finite_error_is_an_error(capsys, tmp_path):
    # on dx = 1e-76 the modal rates E lam overflow; the sweep used to print NaN
    t = np.arange(200) * 1e-6
    path = tmp_path / "fine.field"
    save_field(FieldGrid(np.arange(10) * 1e-76, t,
                         np.linspace(1.0, 0.5, 10)[:, None] * np.sin(2e4 * t)), path)
    argv = ["sweep-e", "--in", str(path), "--section", "circle:d=6.35e-3",
            "--density", "2721.9", "--e-lo", "6e10", "--e-hi", "8e10", "--n", "3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "dx = 1e-76" in captured.err


@pytest.mark.parametrize("command", ["simulate", "sweep-e"])
def test_bad_window_exits_before_the_march(capsys, monkeypatch, synth_file, command):
    from weakbeam import beamfem

    def never(*_, **__):
        raise AssertionError("marched")

    monkeypatch.setattr(beamfem, "newmark_march", never)
    if command == "simulate":
        flags = ["--modulus", "6.9e10"]
    else:
        monkeypatch.setattr(beamfem, "_modal_basis", never)
        flags = ["--e-lo", "1", "--e-hi", "2"]
    argv = [command, "--in", str(synth_file), "--section", "circle:d=6.35e-3",
            "--density", "2721.9", *flags, "--window", "1e-3,0"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_pipeline_subcommand_missing_input(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"field_path": str(tmp_path / "absent.field")}), encoding="utf-8"
    )
    assert main(["pipeline", "--config", str(config)]) == 9
    assert "ingest" in capsys.readouterr().err


def test_non_utf8_field_is_an_error(capsys, tmp_path):
    path = tmp_path / "bad.field"
    path.write_bytes(b"# fieldgrid v1\nx: 0 1\nt: 0 1\n1 2\n3 \xff\n")
    assert main(["ensemble", "--in", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 5: byte 0xff")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"field_path": str(path)}), encoding="utf-8")
    assert main(["pipeline", "--config", str(config)]) == 9
    assert "line 5" in capsys.readouterr().err


def test_pipeline_subcommand_runs(capsys, synth_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"field_path": str(synth_file)}), encoding="utf-8")
    payload = run_json(capsys, ["pipeline", "--config", str(config)])
    assert payload["discovery"]["support"] == ["w_xxxx"]
    assert payload["stages"] == ["ingest", "preprocess", "discover"]


# ------------------------------------------------- report and CSV formats

def read_checked_csv(path):
    """Rows of a written CSV: each as wide as the header, no cell ``-0.0``
    (a successful run without w_xxxx has alpha 0.0), and every numeric
    cell (all but ``status`` and a failed run's alpha/residual) a float."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    for row in rows:
        assert len(row) == len(header), row
        assert "-0.0" not in row, row
        cells = dict(zip(header, row))
        if cells.pop("status", "ok") != "ok":
            cells = {"d": cells["d"], "offset": cells["offset"]}
        for cell in cells.values():
            float(cell)
    return rows


@pytest.fixture(scope="module")
def narrow_runs(edge_field, tmp_path_factory):
    """Ensemble over a 15x251 corner of a synth field, by the CLI and by the
    pipeline: most decimated subsets are too short and fail."""
    work = tmp_path_factory.mktemp("narrow")
    field = work / "narrow.field"
    sub = edge_field.values[:15, :251]
    save_field(FieldGrid(edge_field.x[:15], edge_field.t[:251], sub), field)
    argv = ["ensemble", "--in", str(field), "--max-ds", "10",
            "--json", str(work / "ensemble.json"), "--csv", str(work / "ensemble.csv")]
    assert main(argv) == 0
    report = run_pipeline(
        PipelineConfig(field_path=str(field), max_ds=10), out_dir=work / "pipeline"
    )
    return work, report


def test_every_written_csv_parses(capsys, narrow_runs, synth_file, tmp_path):
    work, _ = narrow_runs
    sweep_csv = tmp_path / "sweep.csv"
    run_json(
        capsys,
        ["sweep-e", "--in", str(synth_file), "--section", "circle:d=6.35e-3",
         "--density", "2721.9", "--e-lo", "6.5e10", "--e-hi", "7.5e10", "--n", "2",
         "--csv", str(sweep_csv)],
    )
    assert len(read_checked_csv(sweep_csv)) == 2
    assert len(read_checked_csv(work / "pipeline" / "loss_curve.csv")) == 100
    for path in (work / "ensemble.csv", work / "pipeline" / "ensemble.csv"):
        rows = read_checked_csv(path)
        assert len(rows) == 55
        # failure messages carrying a comma stay in one quoted cell
        assert any(row[2] == "failed" and "," in row[3] for row in rows)


def test_ensemble_json_matches_the_pipeline_report(narrow_runs):
    work, report = narrow_runs
    payload = json.loads((work / "ensemble.json").read_text(encoding="utf-8"))
    assert payload == report["ensemble"]
    assert payload["failures"]


@pytest.mark.parametrize(
    "argv",
    [
        ["discover", "--in", "x.field", "--tau-hat", "1,2,3"],
        ["preprocess", "--in", "x.field", "--out", "y.field", "--band", "1e3"],
        ["simulate", "--in", "x.field", "--section", "circle:d=1", "--density", "1",
         "--modulus", "1", "--window", "0,late"],
    ],
)
def test_bad_pair_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected 'a,b'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["modulus", "--section", "circle:d=1", "--density", "1", "--alpha", "1",
         "--modulus", "1"],
        ["sweep-e", "--in", "x.field", "--section", "circle:d=1", "--density", "1",
         "--e-lo", "1", "--e-hi", "2", "--modulus", "1"],
    ],
)
def test_modulus_flag_where_it_is_unused_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--modulus" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text, culprit",
    [
        ('{"field_path": "x", "section": {"kind": "circle", "d": 1}}', "section"),
        ('{"field_path": "x", "max_ds": "3"}', "max_ds"),
        # a section sets its kind's own dimensions and no other
        *(('{"field_path": "x", "density": 2721.9, "section": '
           '{"kind": "circle", "diameter": 6.35e-3, "width": %s}}' % v, "section")
          for v in ("1.0", "null")),
        # and each of them is a finite positive number: never true, text or null
        *(('{"field_path": "x", "density": 2721.9, "section": '
           '{"kind": "circle", "diameter": %s}}' % v, "diameter")
          for v in ("true", '"x"', "null")),
        # a key no stage reads: the material stage needs both the section and
        # the density, the nominal its modulus, and the sweep the simulate stage
        ('{"field_path": "x", "section": {"kind": "circle", "diameter": 6.35e-3}}', "section"),
        ('{"field_path": "x", "density": 2721.9}', "density"),
        ('{"field_path": "x", "nominal_modulus": 6.9e10}', "nominal_modulus"),
        ('{"field_path": "x", "sweep": [6.5e10, 7.3e10, 3]}', "sweep"),
        ('{"field_path": "x", "section": {"kind": "circle", "diameter": 6.35e-3}, '
         '"density": 2721.9, "simulate": false, "sweep": [6.5e10, 7.3e10, 3]}', "sweep"),
        ('{"field_path": "x",', "config.json"),
        ('{"field_path": "x", "max-ds": 3}', "max-ds"),
        ('{"max_ds": 3}', "field_path"),
        # a nominal modulus is a finite positive number or absent
        *(('{"field_path": "x", "nominal_modulus": %s}' % v, "nominal_modulus")
          for v in ("NaN", "1e999", "-6.9e10", "0")),
        # so is a density, by the rule the material stage's beam applies
        *(('{"field_path": "x", "density": %s}' % v, "density")
          for v in ("-1", "0", "NaN", "1e999")),
        # a sweep count is a JSON integer >= 2
        *(('{"field_path": "x", "sweep": [6.5e10, 7.3e10, %s]}' % v, "sweep")
          for v in ("NaN", "1e30", "2.7", "21.0", "1")),
        # and its range is finite with 0 < e_lo < e_hi (1e400 reads as inf)
        *(('{"field_path": "x", "sweep": %s}' % v, "sweep")
          for v in ("[7.2e10, 6.6e10, 3]", "[0.0, 7e10, 3]", "[6.6e10, 1e400, 3]")),
        # 0 skips the ensemble; a negative largest decimation is an error
        ('{"field_path": "x", "max_ds": -1}', "max_ds"),
        # the test-function tolerance and the band-pass taper are fixed
        ('{"field_path": "x", "tau": 1e-9}', "tau"),
        ('{"field_path": "x", "taper_frac": 0.1}', "taper_frac"),
        # so is the edge fit of the replay
        ('{"field_path": "x", "n_fit": 25}', "n_fit"),
        ('{"field_path": "x", "fourier_order": 3}', "fourier_order"),
        # the config is one JSON object, not a list of them
        ('[{"field_path": "x"}]', "must be a JSON object"),
    ],
)
def test_bad_pipeline_config_is_an_error(capsys, tmp_path, text, culprit):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    with pytest.raises(ParameterError, match=culprit):
        PipelineConfig.from_json(config)
    assert main(["pipeline", "--config", str(config)]) == CONFIG_EXIT_CODE
    err = capsys.readouterr().err
    assert err.startswith("error:") and culprit in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("field_path", 3),
        *(("downsample", v) for v in (0, 2.5, True)),
        *(("band", v) for v in ((None, 1e5), (5e4, 1e3))),
        *(("window", v) for v in (("a", "b"), (1e-4, 0))),
        *(("tau_hat", v) for v in ((True, 1.0), ("x", 1))),
        ("simulate", "no"),
        ("section", 5),
    ],
    ids=repr,
)
def test_a_bad_config_value_fails_at_both_front_doors(capsys, tmp_path, key, value):
    # the same rule in Python and in JSON, and before ingest: the field is
    # absent, so a run that got to ingest would exit 9.  A section comes
    # with a density, which the material stage reads with it
    config = {"field_path": str(tmp_path / "absent.field"), key: value}
    if key == "section":
        config["density"] = 2721.9
    with pytest.raises(ParameterError, match=f"'{key}'"):
        PipelineConfig(**config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with pytest.raises(ParameterError, match=f"'{key}'"):
        PipelineConfig.from_json(path)
    assert main(["pipeline", "--config", str(path)]) == CONFIG_EXIT_CODE
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{key}'" in err and "Traceback" not in err


def test_a_json_integer_past_the_float_range_is_a_config_error(capsys, tmp_path):
    # JSON reads the density 1e400 written out in digits as a Python int
    path = tmp_path / "config.json"
    path.write_text(
        '{"field_path": "x", "section": {"kind": "circle", "diameter": 6.35e-3}, '
        f'"density": 1{"0" * 400}}}', encoding="utf-8"
    )
    assert main(["pipeline", "--config", str(path)]) == CONFIG_EXIT_CODE
    err = capsys.readouterr().err
    assert err.startswith("error: pipeline config key 'density'") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["discover", "--in", "x.field", "--tau", "1e-9"], "--tau"),
        (["ensemble", "--in", "x.field", "--tau", "1e-9"], "--tau"),
        (["preprocess", "--in", "x.field", "--out", "y.field", "--taper-frac", "0.1"],
         "--taper-frac"),
        (["synth", *SYNTH_FLAGS, "--out", "y.field", "--cycles", "5"], "--cycles"),
        (["synth", *SYNTH_FLAGS, "--out", "y.field", "--amplitude", "1"], "--amplitude"),
        # the replay's edge fit sizes itself from the field
        *(([command, "--in", "x.field", "--section", "circle:d=1", "--density", "1",
            *extra, flag, "7"], flag)
          for command, extra in (("simulate", ["--modulus", "1"]),
                                 ("sweep-e", ["--e-lo", "1", "--e-hi", "2"]))
          for flag in ("--n-fit", "--order")),
    ],
)
def test_removed_flag_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err


def test_missing_pipeline_config_is_a_config_error(capsys, tmp_path):
    config = tmp_path / "absent.json"
    assert main(["pipeline", "--config", str(config)]) == CONFIG_EXIT_CODE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "absent.json" in err and "Traceback" not in err


# ------------------------------------------------------ front-door fuzzing

# every exit code the CLI module docstring documents
DOCUMENTED_EXIT_CODES = {0, 1, CONFIG_EXIT_CODE, *STAGE_EXIT_CODES.values()}

NAN = float("nan")  # json writes NaN and reads it back
_PAIRS = st.sampled_from([[1e3, 2e5], [2e5, 1e3], [0.0, 0.0], [-1.0, 5e-4], [1e300, 1.0],
                          [NAN, 1.0], [0.5, 1.5]])
_RIGHT_KIND = {
    "downsample": st.sampled_from([-1, 0, 1, 2, 3]),
    "band": _PAIRS | st.none(),
    "window": _PAIRS | st.none(),
    "tau_hat": _PAIRS | st.none(),
    "max_ds": st.sampled_from([-1, 0, 1, 3]),
    "section": st.sampled_from([
        {"kind": "circle", "diameter": 6.35e-3},
        {"kind": "rectangle", "width": 4e-3, "thickness": 3e-3},
        {"kind": "circle"},
        {"kind": "circle", "diameter": -1.0},
        {"kind": "circle", "d": 1.0},
        {"kind": "ellipse", "diameter": 1.0},
        {"diameter": 1.0},
    ]) | st.none(),
    "density": st.sampled_from([2721.9, 0.0, -1.0, NAN]) | st.none(),
    "nominal_modulus": st.sampled_from([6.9e10, 0.0, -1.0, NAN]) | st.none(),
    "simulate": st.booleans(),
    "sweep": st.sampled_from([[6.6e10, 7.2e10, 3], [7.2e10, 6.6e10, 2], [1.0, 2.0, 0],
                              [0.0, 1e10, 1], [6e10, 7e10, 2.5], [NAN, 7e10, 2],
                              [6.5e10, 7.3e10, NAN], [6.5e10, 7.3e10, 1e30],
                              [6.5e10, 7.3e10, 2.7], [6.5e10, 7.3e10, 10**30]]) | st.none(),
}
_WRONG_KIND = st.sampled_from(["text", None, True, 1.5, 3, [], [1.0], [1.0, "a"], {}, {"a": 1}])


@pytest.fixture(scope="module")
def tiny_field(edge_field, tmp_path_factory):
    """A 15x251 corner of a synth field: every stage runs in milliseconds."""
    path = tmp_path_factory.mktemp("fuzz") / "tiny.field"
    save_field(FieldGrid(edge_field.x[:15], edge_field.t[:251], edge_field.values[:15, :251]), path)
    return path


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_pipeline_config_gives_a_documented_exit_code(data, tiny_field):
    # a JSON object over the config keys with values of the right kind,
    # then at most one key given a value of a wrong kind (or an unknown key)
    paths = st.sampled_from([str(tiny_field)] * 3 + [str(tiny_field) + ".absent"])
    config = data.draw(st.fixed_dictionaries({"field_path": paths}, optional=_RIGHT_KIND))
    culprit = data.draw(st.none() | st.sampled_from(["field_path", "bogus", *_RIGHT_KIND]))
    if culprit is not None:
        config[culprit] = data.draw(_WRONG_KIND)
    path = tiny_field.parent / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["pipeline", "--config", str(path)])
    assert code in DOCUMENTED_EXIT_CODES, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


ROD = {"--section": "circle:d=6.35e-3", "--density": "2721.9"}
MODES = {**ROD, "--modulus": "6.9e10", "--length": "0.097"}


def as_argv(flags: dict) -> list[str]:
    return [token for pair in flags.items() for token in pair]


@pytest.mark.parametrize(
    "argv",
    [
        ["modes", *as_argv(MODES), "--measured", "1,abc"],
        ["synth", *SYNTH_FLAGS, "--t-end", "inf"],
        ["synth", *SYNTH_FLAGS, "--margin-frac", "inf"],
        ["synth", *SYNTH_FLAGS, "--sigma-rel", "0.1", "--seed", "-1"],
        ["modulus", "--section", "circle:d=inf", "--density", "2721.9", "--alpha", "58.5"],
        ["modulus", *as_argv(ROD), "--alpha", "58.5", "--nominal", "nan"],
        ["modes", *as_argv({**MODES, "--density": "inf"})],
        ["modes", *as_argv(MODES), "--measured", "nan"],
        # the argv fuzz gives single tokens, never a bad "a,b" pair
        ["preprocess", "--in", "{in}", "--window", "nan,nan"],
        ["preprocess", "--in", "{in}", "--window", "0,inf"],
        # dx**3 underflows in the element stiffness
        ["synth", *SYNTH_FLAGS, "--dx", "1e-200"],
        # 2e197 time steps, a count NumPy refuses to hold
        ["synth", *SYNTH_FLAGS, "--dt", "1e-200"],
        # meshes and mode counts NumPy refuses to hold
        ["synth", *SYNTH_FLAGS, "--n-points", str(10**30)],
        ["synth", *SYNTH_FLAGS, "--margin-frac", "1e300"],
        *(["modes", *as_argv(MODES), "--boundary", b, "--n-modes", str(10**30)]
          for b in ("pinned-pinned", "clamped-free", "clamped-clamped")),
        # a beam length (n_points - 1) * dx past the float range
        ["synth", *SYNTH_FLAGS, "--n-points", str(10**400)],
        # sizes whose area, second moment, modulus or frequencies leave the
        # float range
        ["modulus", "--section", "circle:d=1e-160", "--density", "1", "--alpha", "1"],
        ["modulus", "--section", "rectangle:w=1e200,t=1e200", "--density", "1", "--alpha", "1"],
        ["modulus", *as_argv(ROD), "--alpha", "1e308"],
        ["synth", *SYNTH_FLAGS, "--section", "circle:d=1e200"],
        ["synth", *SYNTH_FLAGS, "--section", "circle:d=1e-200"],
        ["modes", *as_argv({**MODES, "--length": "1e100"})],
        ["modes", *as_argv({**MODES, "--length": "1e-300"})],
        ["modes", *as_argv({**MODES, "--modulus": "1e308", "--length": "1e-5"})],
        # a span that is not finite and positive
        ["modes", *as_argv({**MODES, "--length": "-0.097"})],
        # a margin whose element count leaves the float range
        ["synth", *SYNTH_FLAGS, "--margin-frac", "1e308"],
    ],
)
def test_non_finite_or_out_of_range_number_is_an_error(capsys, tmp_path, tiny_field, argv):
    # argparse keeps the last of a repeated flag, so these override SYNTH_FLAGS
    argv = [token.replace("{in}", str(tiny_field)) for token in argv]
    out = ["--out", str(tmp_path / "x.field")] if argv[0] in ("synth", "preprocess") else []
    assert main(argv + out) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert not (tmp_path / "x.field").exists()


@pytest.mark.parametrize(
    "argv",
    [
        # with prefixes allowed this pinned the corner through --tau-hat
        ["discover", "--in", "{in}", "--tau", "0.5,0.5"],
        ["ensemble", "--in", "{in}", "--max", "2"],
    ],
)
def test_flag_prefix_is_a_usage_error(capsys, tiny_field, argv):
    argv = [token.replace("{in}", str(tiny_field)) for token in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def ci_rod(tmp_path_factory):
    """A 40x401 rod, 40 points at 0.5 mm and dt 1e-6; the console-script
    check in CI runs each subcommand on the same rod."""
    path = tmp_path_factory.mktemp("rod") / "rod.field"
    argv = ["synth", *as_argv(ROD), "--modulus", "6.9e10", "--n-points", "40",
            "--dx", "5e-4", "--fc", "1e4", "--dt", "1e-6", "--t-end", "4e-4", "--out", str(path)]
    assert main(argv) == 0
    return path


@pytest.mark.parametrize(
    "argv, key",
    [
        (["discover", "--in", "{in}", "--tau-hat=-0.5,1.0"], "support"),
        (["simulate", "--in", "{in}", *as_argv(ROD), "--modulus", "6.9e10",
          "--window=-1e-4,4e-4"], "frobenius_rel"),
    ],
    ids=["tau-hat", "window"],
)
def test_pair_flag_takes_a_negative_first_value_after_an_equals_sign(capsys, ci_rod, argv, key):
    # argparse reads "--window -1e-4,4e-4" as a flag with no value (exit 2)
    argv = [token.replace("{in}", str(ci_rod)) for token in argv]
    assert key in run_json(capsys, argv)


def test_discover_finds_w_xxxx_on_the_downsampled_rod(capsys, ci_rod, tmp_path):
    out = tmp_path / "ds2.field"
    run_json(capsys, ["preprocess", "--in", str(ci_rod), "--out", str(out), "--downsample", "2"])
    assert run_json(capsys, ["discover", "--in", str(out)])["support"] == ["w_xxxx"]


def test_pipeline_replay_agrees_with_simulate_on_the_rod(capsys, ci_rod, tmp_path):
    # the pipeline's error, from the modal march it shares with the sweep,
    # is the banded simulate's at the discovered modulus
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "field_path": str(ci_rod), "density": 2721.9, "nominal_modulus": 6.9e10,
        "section": {"kind": "circle", "diameter": 6.35e-3}, "sweep": [6.5e10, 7.3e10, 3],
    }), encoding="utf-8")
    run_json(capsys, ["pipeline", "--config", str(config), "--out-dir", str(tmp_path / "out")])
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert "best_modulus" in report["sweep"]
    modulus = report["material"]["youngs_modulus"]
    banded = run_json(capsys, [
        "simulate", "--in", str(ci_rod), *as_argv(ROD), "--modulus", repr(modulus),
    ])["frobenius_rel"]
    assert abs(report["simulation"]["frobenius_rel"] - banded) <= 1e-6 * banded


def test_sweep_e_prints_the_sweep_report_the_pipeline_writes(capsys, synth_file):
    # one sweep report, SweepResult.as_report: sweep-e prints it without
    # the per-trial lists, which --csv writes, and with the trial count
    grid = (0.95 * AL_MODULUS, 1.05 * AL_MODULUS, 3)
    printed = run_json(capsys, ["sweep-e", "--in", str(synth_file), *as_argv(ROD), "--e-lo",
                                repr(grid[0]), "--e-hi", repr(grid[1]), "--n", str(grid[2])])
    report = sweep_modulus(load_field(synth_file), make_beam(), *grid).as_report()
    lists = ("moduli", "errors")
    assert printed == {k: v for k, v in report.items() if k not in lists} | {"n_values": 3}
    # the pipeline's sweep section is the same report; its march also carries
    # the discovered modulus, which changes its chunking and so its rounding
    section = run_pipeline(PipelineConfig(
        field_path=str(synth_file), section=AL_SECTION, density=AL_DENSITY, sweep=grid,
    ))["sweep"]
    assert section.keys() == report.keys()
    assert section["moduli"] == report["moduli"]
    assert section["best_modulus"] == report["best_modulus"]
    assert section["bracketed"] is report["bracketed"] is True
    assert abs(section["best_error"] - report["best_error"]) <= 1e-12 * report["best_error"]


@pytest.mark.parametrize(
    "n_x, window", [(10, []), (40, ["--window", "4e-4,4e-4"])], ids=["ten-points", "last-sample"]
)
def test_sweep_replays_the_rod(capsys, ci_rod, tmp_path, n_x, window):
    # on 10 points the edge fit sizes itself from the field; a window at
    # 4e-4, just past the last sample (3.9999999999999996e-4), snaps to it
    rod = load_field(ci_rod)
    path = tmp_path / "rod.field"
    save_field(FieldGrid(rod.x[:n_x], rod.t, rod.values[:n_x]), path)
    payload = run_json(capsys, ["sweep-e", "--in", str(path), *as_argv(ROD),
                                "--e-lo", "6.5e10", "--e-hi", "7.3e10", "--n", "3", *window])
    assert payload["n_values"] == 3 and np.isfinite(payload["best_error"])


@pytest.mark.parametrize(
    "argv",
    [["discover"], ["simulate", *as_argv(ROD), "--modulus", "6.9e10"],
     ["sweep-e", *as_argv(ROD), "--e-lo", "6.5e10", "--e-hi", "7.3e10", "--n", "3"]],
    ids=["discover", "simulate", "sweep-e"],
)
def test_time_step_of_1e_200_is_an_error_naming_dt(capsys, tmp_path, argv):
    # a 40x60 field: discovery's coefficients and the replays' dt**2 leave
    # the float range
    x = np.arange(40) * 5e-4
    w = np.sin(2 * np.pi * x / 0.01)[:, None] * np.cos(2 * np.pi * np.arange(60) / 12)
    w += 0.01 * np.random.default_rng(0).standard_normal(w.shape)
    path = tmp_path / "fine.field"
    save_field(FieldGrid(x, np.arange(60) * 1e-200, w), path)
    assert main([argv[0], "--in", str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "dt = 1e-200" in captured.err


@pytest.mark.parametrize("measured",[[], ["--measured", "100"]], ids=["bare", "measured"])
@pytest.mark.parametrize("boundary", ["pinned-pinned", "clamped-free"])
@pytest.mark.parametrize("n_modes", [2**63 - 1, 2**63])
def test_mode_count_near_2_63_is_an_error(capsys, n_modes, boundary, measured):
    # np.arange gives an empty array for these counts, which printed no
    # frequencies, or failed on mode 1 with --measured
    argv = ["modes", *as_argv(MODES), "--boundary", boundary, "--n-modes", str(n_modes)]
    assert main(argv + measured) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "cannot hold" in captured.err
    assert "Traceback" not in captured.err


def test_simulate_refuses_a_window_of_zeros(capsys, tmp_path):
    t = np.arange(200) * 1e-6
    values = np.sin(2e4 * t) * np.linspace(1.0, 0.5, 12)[:, None]
    values[:, :50] = 0.0
    path = tmp_path / "quiet.field"
    save_field(FieldGrid(np.arange(12) * 5e-4, t, values), path)
    argv = ["simulate", "--in", str(path), *as_argv(ROD), "--modulus", "6.9e10",
            "--window", "1e-5,4e-5"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: measured field is identically zero\n"


@pytest.mark.parametrize(
    "flags",
    [["simulate", "--modulus", "6.9e10"], ["sweep-e", "--e-lo", "6e10", "--e-hi", "8e10"]],
    ids=["simulate", "sweep-e"],
)
def test_replay_of_a_one_position_scan_names_its_x_axis(capsys, tmp_path, flags):
    # the beam has no span to refuse: the fault is the scan's missing dx
    t = np.arange(200) * 1e-6
    path = tmp_path / "point.field"
    save_field(FieldGrid([0.0], t, np.sin(2e4 * t)[None, :]), path)
    assert main([flags[0], "--in", str(path), *as_argv(ROD), *flags[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dx undefined for a single-sample x axis\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv", [["discover"], ["preprocess", "--window", "0,0"]], ids=["discover", "preprocess"]
)
def test_time_span_past_the_float_range_is_an_error(capsys, tmp_path, argv):
    path = tmp_path / "wide.field"
    path.write_text("# fieldgrid v1\nx: 0 1\nt: -1e308 0 1e308\n0 0 0\n0 0 0\n",
                    encoding="utf-8")
    argv = [argv[0], "--in", str(path), *argv[1:]]
    if argv[0] == "preprocess":
        argv += ["--out", str(tmp_path / "out.field")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t axis spans -1e+308 to 1e+308, past the float range\n"


HUGE_COUNT = 10**30  # no machine can hold that many trial moduli


def test_huge_sweep_count_is_an_error(capsys, tiny_field):
    argv = ["sweep-e", "--in", str(tiny_field), *as_argv(ROD),
            "--e-lo", "6.5e10", "--e-hi", "7.3e10", "--n", str(HUGE_COUNT)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trial moduli" in err and "Traceback" not in err


def test_huge_pipeline_sweep_count_is_a_config_error(capsys, synth_file, tmp_path):
    # the sweep's own rule refuses the count before any stage runs
    for count in (HUGE_COUNT, 2**63):
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({
            "field_path": str(synth_file), "density": 2721.9,
            "section": {"kind": "circle", "diameter": 6.35e-3},
            "sweep": [6.5e10, 7.3e10, count],
        }), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(["pipeline", "--config", str(config), "--out-dir", str(out_dir)]) == (
            CONFIG_EXIT_CODE
        )
        captured = capsys.readouterr()
        assert captured.out == "" and not out_dir.exists()
        assert captured.err == f"error: pipeline config key 'sweep': cannot hold {count} trial moduli\n"


def test_front_doors_share_the_owners_of_each_rule(capsys, synth_file, tmp_path):
    # the command line and the pipeline give the same bits for alpha, the
    # modulus, the percent error and the conditioned field
    field = load_field(synth_file)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "field_path": str(synth_file), "max_ds": 2, "simulate": False,
        "section": {"kind": "circle", "diameter": 6.35e-3}, "density": 2721.9,
        "nominal_modulus": 6.9e10,
    }), encoding="utf-8")
    material = run_json(
        capsys, ["pipeline", "--config", str(config), "--out-dir", str(tmp_path / "out")]
    )["material"]
    assert material["alpha"] == discover(field).alpha
    # one modulus report: the modulus command prints the material section
    assert main([
        "modulus", *as_argv(ROD), "--alpha", repr(material["alpha"]), "--nominal", "6.9e10",
    ]) == 0
    assert capsys.readouterr().out == _json_text(material) + "\n"

    # every ok row of ensemble.csv carries its run's alpha
    with open(tmp_path / "out" / "ensemble.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    runs = run_ensemble(field, max_ds=2).runs
    assert [(r["d"], r["offset"]) for r in rows] == [(str(r.d), str(r.offset)) for r in runs]
    ok = [(row, run) for row, run in zip(rows, runs) if run.ok]
    assert ok and all(row["status"] == "ok" for row, _ in ok)
    assert all(row["alpha"] == repr(run.result.alpha) for row, run in ok)

    # the preprocess command writes the conditioned grid
    out = tmp_path / "pre.field"
    run_json(capsys, [
        "preprocess", "--in", str(synth_file), "--out", str(out),
        "--downsample", "2", "--band", "2e3,4e4",
    ])
    written, expected = load_field(out), condition(field, 2, (2e3, 4e4))
    for a, b in ((written.x, expected.x), (written.t, expected.t),
                 (written.values, expected.values)):
        assert a.tobytes() == b.tobytes()


# Each subcommand's flags with one valid value; "{in}", "{config}" and
# "{out}" stand for the fuzz fixture's field, config and output folder.
# Sizes stay tiny: 12 points and 50 steps for synth, max-ds 2, 3 moduli.
ARGV_GRAMMAR = {
    "synth": {
        **ROD, "--modulus": "6.9e10", "--n-points": "12",
        "--dx": "5e-4", "--fc": "1e4",
        "--dt": "2e-6", "--t-end": "1e-4", "--sigma-rel": "0.01", "--seed": "3",
        "--margin-frac": "0.5", "--out": "{out}/synth.field",
    },
    "preprocess": {
        "--in": "{in}", "--out": "{out}/pre.field", "--downsample": "2",
        "--band": "1e4,1e5", "--window": "0,1e-4",
    },
    "discover": {"--in": "{in}", "--tau-hat": "1,1", "--json": "{out}/d.json"},
    "ensemble": {
        "--in": "{in}", "--max-ds": "2",
        "--json": "{out}/e.json", "--csv": "{out}/e.csv",
    },
    "modulus": {**ROD, "--alpha": "58.5", "--nominal": "6.9e10"},
    "modes": {
        **MODES, "--boundary": "pinned-pinned",
        "--n-modes": "3", "--measured": "1e3,2e3",
    },
    "simulate": {
        **ROD, "--modulus": "6.9e10", "--in": "{in}",
        "--window": "0,1e-4", "--out-field": "{out}/sim.field",
    },
    "sweep-e": {
        **ROD, "--in": "{in}", "--e-lo": "6e10", "--e-hi": "8e10",
        "--n": "3", "--window": "0,1e-4", "--csv": "{out}/s.csv",
    },
    "pipeline": {"--config": "{config}", "--out-dir": "{out}/pipeline"},
}
BAD_VALUES = ["0", "-1", "inf", "nan", "abc", ""]
USAGE_EXIT_CODE = 2  # argparse's


@pytest.fixture(scope="module")
def fuzz_dir(tiny_field):
    config = {
        "field_path": str(tiny_field), "tau_hat": [0.8, 2.0], "max_ds": 1,
        "section": {"kind": "circle", "diameter": 6.35e-3}, "density": 2721.9,
        "sweep": [6e10, 8e10, 2],
    }
    (tiny_field.parent / "argv.json").write_text(json.dumps(config), encoding="utf-8")
    return tiny_field.parent


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_gives_a_reserved_exit_code(data, fuzz_dir, monkeypatch):
    # valid argv of one subcommand, with at most two flags given a bad value
    # or left out; relative paths such as "abc" land in the fixture's folder
    monkeypatch.chdir(fuzz_dir)
    command = data.draw(st.sampled_from(sorted(ARGV_GRAMMAR)))
    flags = ARGV_GRAMMAR[command]
    bad = data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True))
    argv = [command]
    for flag, value in flags.items():
        if flag in bad:
            value = data.draw(st.sampled_from([*BAD_VALUES, None]))
        if value is not None:
            argv += [flag, value.format(**{"in": "tiny.field", "config": "argv.json", "out": "."})]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == USAGE_EXIT_CODE, argv
    assert code in DOCUMENTED_EXIT_CODES | {USAGE_EXIT_CODE}, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code not in (0, USAGE_EXIT_CODE):
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
