import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heraldstats import COLUMNS, LossChannel, SweepAxis, report, run_sweep
from heraldstats.cli import _write_table, main

from conftest import config


def write_spec(tmp_path, spec, name="sweep.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def basic_spec(**overrides):
    spec = {
        "detector": {"N": 4, "nu": 5e-4},
        "source": {"car": 15.0},
        "signal": {"mu_s": 1.0},
        "herald": {"k": 1},
        "axes": [{"parameter": "mu_h", "min": 0.4, "max": 0.6, "steps": 3}],
    }
    spec.update(overrides)
    return spec


class TestReportCommand:
    def test_single_photon_optimum(self, capsys):
        code = main(["report", "--car", "15", "--clicks", "1", "--mu-h", "1", "--mu-s", "1"])
        assert code == 0
        out = capsys.readouterr().out
        values = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(values["fidelity"]) == pytest.approx(0.98, abs=0.01)
        assert float(values["success_prob"]) == pytest.approx(0.068, abs=0.003)
        assert values["status"] == "ok"

    def test_vacuum_report(self, capsys):
        code = main([
            "report", "--nbar", "0", "--clicks", "0", "--nu", "0",
            "--mu-h", "1", "--mu-s", "1", "--target", "0",
        ])
        assert code == 0
        values = dict(
            line.split(None, 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(values["parity"]) == 1.0
        assert values["car"] == "nan"

    def test_car_at_floor_is_domain_error(self, capsys):
        # outside the source's domain, and known before any point is evaluated
        code = main(["report", "--car", "2", "--clicks", "1", "--mu-h", "1", "--mu-s", "1"])
        assert code == 2
        assert "CAR" in capsys.readouterr().err

    def test_missing_flags_usage_error(self, capsys):
        assert main(["report", "--car", "15"]) == 2

    def test_huge_nbar_exceeds_cap(self, capsys):
        code = main(["report", "--nbar", "1e20", "--clicks", "1", "--mu-h", "0.8", "--mu-s", "0.7"])
        assert code == 1
        captured = capsys.readouterr()
        # 3223619130191664260700, rounded (not cut) to four digits
        assert captured.err == (
            "error: truncation cap 4096 exceeded: "
            "the requested tail bound needs n_max = about 3.224e21\n"
        )
        assert captured.out == ""

    def test_car_and_nbar_conflict(self, capsys):
        code = main([
            "report", "--car", "15", "--nbar", "0.1",
            "--clicks", "1", "--mu-h", "1", "--mu-s", "1",
        ])
        assert code == 2

    def test_structured_output(self, tmp_path, capsys):
        out = tmp_path / "point.json"
        code = main([
            "report", "--car", "15", "--clicks", "1", "--mu-h", "1", "--mu-s", "1",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 1
        direct = report(config(15.0, 1, 1.0), LossChannel(1.0), 1)
        assert rows[0]["fidelity"] == float(f"{direct.fidelity:.12g}")

    def test_format_without_out_rejected(self, capsys):
        code = main([
            "report", "--car", "15", "--clicks", "1", "--mu-h", "1", "--mu-s", "1",
            "--format", "json",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: --format needs --out" in captured.err
        assert captured.out == ""

    def test_negative_target_usage_error(self, capsys):
        code = main([
            "report", "--car", "15", "--clicks", "1", "--mu-h", "1", "--mu-s", "1",
            "--target", "-1",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: --target: target photon number must be >= 0, got -1" in captured.err
        assert captured.out == ""

    def test_truncation_flag_conflict(self, tmp_path, capsys):
        # the cutoff is no flag of any command
        for argv in (
            ["report", "--car", "15", "--clicks", "1", "--mu-h", "1", "--mu-s", "1"],
            ["sweep", write_spec(tmp_path, basic_spec())],
            ["calibrate", "--car", "3"],
        ):
            for flag in (["--truncation", "64"], ["--tail-eps", "1e-10"]):
                assert main(argv + flag) == 2
                captured = capsys.readouterr()
                assert "unrecognized arguments" in captured.err
                assert captured.out == ""

    def test_large_array_report(self, capsys):
        code = main([
            "report", "--car", "15", "--clicks", "8", "--mu-h", "0.9", "--mu-s", "0.7",
            "--detectors", "16",
        ])
        assert code == 0
        values = dict(line.split(None, 1) for line in capsys.readouterr().out.strip().splitlines())
        assert values["status"] == "ok"
        assert 0.0 <= float(values["fidelity"]) <= 1.0

    @pytest.mark.parametrize("flag,value", [("--car", "inf"), ("--mu-s", "nan")])
    def test_non_finite_flag_usage_error(self, capsys, flag, value):
        argv = ["report", "--car", "15", "--clicks", "1", "--mu-h", "1", "--mu-s", "1"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: must be a finite number, got '{value}'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--clicks", "5", "error: --clicks: click count 5 outside 0..4"),
            ("--mu-s", "1.5", "error: --mu-s: efficiency must lie in [0, 1], got 1.5"),
            ("--mu-h", "1.5", "error: --mu-h: efficiency must lie in [0, 1], got 1.5"),
            ("--detectors", "0", "error: need at least one detector"),
            ("--nu", "-1", "error: dark count parameter must be finite and >= 0, got -1.0"),
            ("--car", "2", "error: CAR"),
        ],
        ids=["clicks", "mu_s", "mu_h", "detectors", "nu", "car"],
    )
    def test_out_of_range_flag_usage_error(self, capsys, flag, value, message):
        # the last value of a repeated flag wins
        argv = ["report", "--car", "15", "--clicks", "1", "--mu-h", "1", "--mu-s", "1"]
        assert main(argv + [flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.out == ""


class TestSweepCommand:
    def test_csv_output(self, tmp_path, capsys):
        path = write_spec(tmp_path, basic_spec())
        out = tmp_path / "grid.csv"
        assert main(["sweep", path, "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r\n" not in raw  # LF endings only
        rows = list(csv.reader(raw.decode().splitlines()))
        assert rows[0] == COLUMNS
        assert len(rows) == 4
        status = rows[1][COLUMNS.index("status")]
        assert status == "ok"
        capsys.readouterr()
        # neither --out nor outputs.path: the same table goes to stdout
        assert main(["sweep", path]) == 0
        assert capsys.readouterr().out == raw.decode()

    def test_csv_and_json_round_trip_identical(self, tmp_path):
        path = write_spec(tmp_path, basic_spec())
        out_csv = tmp_path / "grid.csv"
        out_json = tmp_path / "grid.json"
        assert main(["sweep", path, "--format", "csv", "--out", str(out_csv)]) == 0
        assert main(["sweep", path, "--format", "json", "--out", str(out_json)]) == 0
        csv_rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        json_rows = json.loads(out_json.read_text())
        assert len(csv_rows) == len(json_rows)
        for c_row, j_row in zip(csv_rows, json_rows):
            for name in COLUMNS:
                if name == "status":
                    assert c_row[name] == j_row[name]
                elif c_row[name] == "":
                    assert j_row[name] is None
                else:
                    assert float(c_row[name]) == j_row[name]

    def test_twelve_significant_digits(self, tmp_path):
        path = write_spec(tmp_path, basic_spec())
        out = tmp_path / "grid.csv"
        main(["sweep", path, "--out", str(out)])
        rows = list(csv.DictReader(out.read_text().splitlines()))
        value = rows[1]["fidelity"]
        digits = value.replace("-", "").replace(".", "").replace("e", "").lstrip("0")
        assert len(digits) >= 11  # 12 significant digits up to a trailing zero

    def test_empty_axes_single_row_matches_report(self, tmp_path):
        spec = basic_spec(axes=[])
        spec["detector"]["mu_h"] = 1.0
        path = write_spec(tmp_path, spec)
        out = tmp_path / "single.json"
        assert main(["sweep", path, "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 1
        direct = report(config(15.0, 1, 1.0), LossChannel(1.0), 1)
        assert rows[0]["fidelity"] == float(f"{direct.fidelity:.12g}")
        assert rows[0]["parity"] == float(f"{direct.parity:.12g}")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = write_spec(tmp_path, basic_spec(plotting={"dpi": 300}))
        assert main(["sweep", path]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, tmp_path):
        spec = basic_spec()
        spec["detector"]["gain"] = 2
        assert main(["sweep", write_spec(tmp_path, spec)]) == 2

    def test_missing_file(self, capsys):
        assert main(["sweep", "/nonexistent/spec.json"]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["sweep", str(path)]) == 2

    def test_both_car_and_nbar_rejected(self, tmp_path):
        spec = basic_spec(source={"car": 15.0, "nbar": 0.1})
        assert main(["sweep", write_spec(tmp_path, spec)]) == 2

    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("source", "car", "fifteen", "source.car must be a number"),
            ("axes", "steps", 2.9, "axes[0].steps must be an integer"),
            ("axes", "steps", True, "axes[0].steps must be an integer"),
            ("axes", "min", "0.4", "axes[0].min must be a number"),
            ("axes", "scale", 3, "axes[0].scale must be a string"),
            ("source", "car", math.inf, "source.car must be a finite number"),
            ("signal", "mu_s", math.nan, "signal.mu_s must be a finite number"),
            ("detector", "nu", 10**400, "detector.nu must be a finite number"),
        ],
        ids=["car-string", "steps-float", "steps-bool", "min-string", "scale-int",
             "car-inf", "mu_s-nan", "nu-huge-int"],
    )
    def test_non_numeric_value_rejected(self, tmp_path, capsys, section, key, value, message):
        spec = basic_spec()
        (spec["axes"][0] if section == "axes" else spec[section])[key] = value
        assert main(["sweep", write_spec(tmp_path, spec)]) == 2
        assert message in capsys.readouterr().err

    def test_non_finite_axis_rejected(self, tmp_path, capsys):
        spec = basic_spec(source={}, axes=[
            {"parameter": "car", "min": 3.0, "max": math.inf, "steps": 4},
            {"parameter": "mu_h", "min": 0.4, "max": 0.6, "steps": 3},
        ])
        assert main(["sweep", write_spec(tmp_path, spec)]) == 2
        assert "axes[0].max must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key", [("detector", "nu"), ("detector", "N"), ("herald", "k")]
    )
    def test_null_value_rejected(self, tmp_path, capsys, section, key):
        spec = basic_spec()
        spec[section][key] = None
        assert main(["sweep", write_spec(tmp_path, spec)]) == 2
        assert f"{section}.{key} must be" in capsys.readouterr().err

    def test_negative_target_rejected(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        spec = basic_spec(target={"m": -1}, outputs={"path": str(out)})
        assert main(["sweep", write_spec(tmp_path, spec)]) == 2
        assert "error: target.m: target photon number must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,value,key",
        [("herald", {"k": 5}, "herald.k"), ("signal", {"mu_s": 1.5}, "signal.mu_s")],
    )
    def test_out_of_range_fixed_value_rejected(self, tmp_path, capsys, section, value, key):
        # not a table of error rows: the value is wrong for every point
        out = tmp_path / "out.csv"
        spec = basic_spec(**{section: value, "outputs": {"path": str(out)}})
        assert main(["sweep", write_spec(tmp_path, spec)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {key}: ")
        assert captured.out == ""
        assert not out.exists()

    def test_out_of_range_fixed_mu_h_rejected(self, tmp_path, capsys):
        spec = basic_spec(axes=[])
        spec["detector"]["mu_h"] = 1.5
        assert main(["sweep", write_spec(tmp_path, spec)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: detector.mu_h: efficiency must lie in [0, 1], got 1.5\n"
        assert captured.out == ""

    def test_non_integer_clicks_rejected(self, tmp_path):
        spec = basic_spec(herald={"k": 1.5})
        assert main(["sweep", write_spec(tmp_path, spec)]) == 2

    def test_swept_and_fixed_conflict(self, tmp_path):
        spec = basic_spec()
        spec["detector"]["mu_h"] = 0.8
        assert main(["sweep", write_spec(tmp_path, spec)]) == 2

    def test_error_rows_keep_grid_rectangular(self, tmp_path):
        spec = {
            "detector": {"N": 4, "nu": 0.0},
            "source": {"car": 10.0},
            "signal": {"mu_s": 1.0},
            "herald": {"k": 1},
            "axes": [{"parameter": "mu_h", "min": 0.0, "max": 1.0, "steps": 3}],
        }
        out = tmp_path / "grid.csv"
        assert main(["sweep", write_spec(tmp_path, spec), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 3
        assert rows[0]["status"].startswith("error:")
        assert rows[0]["fidelity"] == ""
        assert rows[1]["status"] == "ok"

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"axes": [3]}, "axes[0] must be an object"),
            ({"herald": {}}, "herald is missing 'k'"),
            ({"axes": [{"parameter": "mu_h", "min": 0.4, "max": 0.6}]},
             "axes[0] is missing 'steps'"),
            ({"axes": [{"parameter": "mu_h", "min": 0.4, "max": 0.6, "steps": 0}]},
             "bad axis: axis needs at least one step"),
            ({"axes": [{"parameter": "mu_h", "min": 0.0, "max": 0.6, "steps": 3,
                        "scale": "logarithmic"}]},
             "bad axis: logarithmic axes need min > 0"),
            ({"signal": {}}, "mu_s must appear exactly once"),
            ({"truncation": {"n_max": 64}}, "unknown key(s) ['truncation'] in spec"),
        ],
        ids=["axis-not-object", "missing-key", "axis-missing-steps",
             "zero-steps", "log-axis-from-zero", "no-mu_s", "truncation-section"],
    )
    def test_malformed_spec_rejected(self, tmp_path, capsys, overrides, message):
        out = tmp_path / "grid.csv"
        spec = basic_spec(outputs={"path": str(out)}, **overrides)
        assert main(["sweep", write_spec(tmp_path, spec)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""
        assert not out.exists()

    def test_bad_fom_name_in_outputs(self, tmp_path, capsys):
        spec = basic_spec(outputs={"foms": ["sparkle"]})
        assert main(["sweep", write_spec(tmp_path, spec)]) == 2
        assert "unknown key(s) ['foms'] in outputs" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [5, None, ["grid.csv"]])
    def test_non_string_output_path_rejected(self, tmp_path, capsys, value):
        spec = basic_spec(outputs={"path": value})
        assert main(["sweep", write_spec(tmp_path, spec)]) == 2
        captured = capsys.readouterr()
        assert "error: outputs.path must be a string" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("outputs", [{"format": "xml"}, {"path": 5}])
    def test_bad_outputs_rejected_before_sweep(self, tmp_path, monkeypatch, outputs):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before its outputs were checked")

        monkeypatch.setattr("heraldstats.cli.run_sweep", no_sweep)
        assert main(["sweep", write_spec(tmp_path, basic_spec(outputs=outputs))]) == 2

    @pytest.mark.parametrize("command", ["report", "sweep"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
    def test_unwritable_output_rejected_before_work(
        self, tmp_path, monkeypatch, capsys, command, where
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("points were evaluated before the output path was checked")

        monkeypatch.setattr("heraldstats.cli.run_sweep", no_work)
        out = {"missing-directory": str(tmp_path / "missing" / "x.csv"),
               "directory": str(tmp_path), "empty": ""}[where]
        if command == "report":
            argv = ["report", "--car", "15", "--clicks", "1", "--mu-h", "1", "--mu-s", "1"]
        else:
            argv = ["sweep", write_spec(tmp_path, basic_spec())]
        assert main(argv + ["--out", out]) == 2
        captured = capsys.readouterr()
        assert f"error: cannot write {out!r}" in captured.err
        assert captured.out == ""

    def test_failed_write_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("heraldstats.cli._check_destination", lambda out: None)
        out = str(tmp_path / "missing" / "x.csv")
        assert main(["sweep", write_spec(tmp_path, basic_spec()), "--out", out]) == 2
        assert f"error: cannot write {out!r}: No such file" in capsys.readouterr().err

    def test_fixed_car_at_floor_aborts(self, tmp_path, capsys):
        spec = basic_spec(source={"car": 2.0})
        assert main(["sweep", write_spec(tmp_path, spec)]) == 2
        assert "CAR" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "k,car,field,expected,tol",
        [
            (1, 15.0, "fidelity", 0.98, 0.01),
            (2, 23.0, "g2", 0.52, 0.01),
            (3, 43.0, "parity", -0.89, 0.04),
        ],
    )
    def test_table_reproduction_points(self, tmp_path, k, car, field, expected, tol):
        spec = {
            "detector": {"N": 4, "nu": 5e-4, "mu_h": 1.0},
            "source": {"car": car},
            "signal": {"mu_s": 1.0},
            "herald": {"k": k},
            "axes": [],
        }
        out = tmp_path / "point.json"
        assert main(["sweep", write_spec(tmp_path, spec), "--format", "json",
                     "--out", str(out)]) == 0
        row = json.loads(out.read_text())[0]
        assert row[field] == pytest.approx(expected, abs=tol)

    def test_three_photon_g3_surface_finite(self, tmp_path):
        spec = {
            "detector": {"N": 4, "nu": 5e-4},
            "source": {"car": "unused"},
            "signal": {"mu_s": 1.0},
            "herald": {"k": 3},
            "axes": [
                {"parameter": "car", "min": 3.0, "max": 500.0, "steps": 12,
                 "scale": "logarithmic"},
                {"parameter": "mu_h", "min": 0.01, "max": 1.0, "steps": 6},
            ],
        }
        del spec["source"]
        out = tmp_path / "g3.json"
        assert main(["sweep", write_spec(tmp_path, spec), "--format", "json",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 72
        for row in rows:
            assert row["status"] == "ok"
            assert row["g3"] is not None and math.isfinite(row["g3"])


SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestModuleEntryPoints:
    """``python -m heraldstats`` and ``python -m heraldstats.cli`` run the CLI."""

    @pytest.mark.parametrize("module", ["heraldstats", "heraldstats.cli"])
    def test_report(self, module):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        command = [sys.executable, "-m", module, "report", "--car", "15", "--mu-h", "1",
                   "--mu-s", "1", "--clicks"]
        done = subprocess.run(command + ["1"], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == len(COLUMNS) == 14
        assert lines[-1].split() == ["status", "ok"]
        done = subprocess.run(command + ["9"], env=env, capture_output=True, text=True)
        assert done.returncode == 2
        assert "--clicks: click count 9 outside 0..4" in done.stderr


class TestCalibrateCommand:
    def test_car_three(self, capsys):
        assert main(["calibrate", "--car", "3"]) == 0
        out = capsys.readouterr().out
        values = dict(
            line.split(None, 1)
            for line in out.strip().splitlines()
            if not line.startswith("#")
        )
        assert float(values["nbar"]) == pytest.approx(1.0, rel=1e-12)
        assert float(values["lambda_sq"]) == pytest.approx(0.5, rel=1e-12)

    def test_nbar_round_trip(self, capsys):
        assert main(["calibrate", "--nbar", "0.0769230769"]) == 0
        values = dict(
            line.split(None, 1)
            for line in capsys.readouterr().out.strip().splitlines()
            if not line.startswith("#")
        )
        assert float(values["car"]) == pytest.approx(15.0, abs=1e-6)

    def test_single_photon_mean_at_optimal_car(self, capsys):
        assert main(["calibrate", "--car", "15"]) == 0
        values = dict(
            line.split(None, 1)
            for line in capsys.readouterr().out.strip().splitlines()
            if not line.startswith("#")
        )
        assert 1.06 <= float(values["mean_ns_k1"]) <= 1.08

    def test_cutoff_below_click_count(self, capsys):
        # at nbar 1e-9 the cutoff is 1, below k = 2 and 3; the means still print
        assert main(["calibrate", "--car", "1e9"]) == 0
        values = dict(
            line.split(None, 1)
            for line in capsys.readouterr().out.strip().splitlines()
            if not line.startswith("#")
        )
        for clicks in (1, 2, 3):
            assert float(values[f"mean_ns_k{clicks}"]) == pytest.approx(clicks * 1e-6, rel=1e-3)

    def test_out_of_domain(self, capsys):
        assert main(["calibrate", "--car", "1"]) == 2
        assert main(["calibrate", "--nbar", "-0.5"]) == 2

    def test_requires_argument(self):
        assert main(["calibrate"]) == 2

    def test_huge_nbar_exceeds_cap(self, capsys):
        assert main(["calibrate", "--nbar", "1e300"]) == 1
        assert "error: truncation cap 4096 exceeded" in capsys.readouterr().err

    def test_infinite_car_usage_error(self, capsys):
        assert main(["calibrate", "--car", "inf"]) == 2
        captured = capsys.readouterr()
        assert "argument --car: must be a finite number, got 'inf'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", [["--out", "cal.csv"], ["--format", "csv"]])
    def test_no_structured_output_options(self, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.chdir(tmp_path)
        assert main(["calibrate", "--car", "3"] + flag) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "cal.csv").exists()


GOLDEN_SPEC = {
    "detector": {"N": 4, "nu": 0.0},
    "source": {"car": 10.0},
    "signal": {"mu_s": 0.7},
    "herald": {"k": 1},
    "axes": [{"parameter": "mu_h", "min": 0.0, "max": 1.0, "steps": 3}],
}
GOLDEN_REPORT_ARGS = [
    "report", "--nbar", "0", "--clicks", "0", "--nu", "0",
    "--mu-h", "1", "--mu-s", "0.7", "--target", "0",
]

GOLDEN_CSV = (
    'car,nbar,mu_h,mu_s,k,target,fidelity,g2,g3,success_prob,parity,mean_lossy,mean_corrected,status\n'
    '10,0.125,0,0.7,1,1,,,,,,,,"error: herald outcome clicks=1 has zero probability for nbar=0.125, efficiency=0.0, dark_count_prob=0.0"\n'
    '10,0.125,0.5,0.7,1,1,0.663362895468,0.228642433675,0.0602580134614,0.0561896400351,-0.334606345476,0.793415276558,1.13345039508,ok\n'
    '10,0.125,1,0.7,1,1,0.692041522491,0.0555555555556,0.00462962962963,0.101587301587,-0.384615384615,0.72,1.02857142857,ok\n'
)

GOLDEN_JSON = (
    '[\n'
    '  {\n'
    '    "car": 10.0,\n'
    '    "nbar": 0.125,\n'
    '    "mu_h": 0.0,\n'
    '    "mu_s": 0.7,\n'
    '    "k": 1,\n'
    '    "target": 1,\n'
    '    "fidelity": null,\n'
    '    "g2": null,\n'
    '    "g3": null,\n'
    '    "success_prob": null,\n'
    '    "parity": null,\n'
    '    "mean_lossy": null,\n'
    '    "mean_corrected": null,\n'
    '    "status": "error: herald outcome clicks=1 has zero probability for nbar=0.125, efficiency=0.0, dark_count_prob=0.0"\n'
    '  },\n'
    '  {\n'
    '    "car": 10.0,\n'
    '    "nbar": 0.125,\n'
    '    "mu_h": 0.5,\n'
    '    "mu_s": 0.7,\n'
    '    "k": 1,\n'
    '    "target": 1,\n'
    '    "fidelity": 0.663362895468,\n'
    '    "g2": 0.228642433675,\n'
    '    "g3": 0.0602580134614,\n'
    '    "success_prob": 0.0561896400351,\n'
    '    "parity": -0.334606345476,\n'
    '    "mean_lossy": 0.793415276558,\n'
    '    "mean_corrected": 1.13345039508,\n'
    '    "status": "ok"\n'
    '  },\n'
    '  {\n'
    '    "car": 10.0,\n'
    '    "nbar": 0.125,\n'
    '    "mu_h": 1.0,\n'
    '    "mu_s": 0.7,\n'
    '    "k": 1,\n'
    '    "target": 1,\n'
    '    "fidelity": 0.692041522491,\n'
    '    "g2": 0.0555555555556,\n'
    '    "g3": 0.00462962962963,\n'
    '    "success_prob": 0.101587301587,\n'
    '    "parity": -0.384615384615,\n'
    '    "mean_lossy": 0.72,\n'
    '    "mean_corrected": 1.02857142857,\n'
    '    "status": "ok"\n'
    '  }\n'
    ']\n'
)

GOLDEN_REPORT_TEXT = (
    'car             nan\n'
    'nbar            0\n'
    'mu_h            1\n'
    'mu_s            0.7\n'
    'k               0\n'
    'target          0\n'
    'fidelity        1\n'
    'g2              nan\n'
    'g3              nan\n'
    'success_prob    1\n'
    'parity          1\n'
    'mean_lossy      0\n'
    'mean_corrected  0\n'
    'status          ok\n'
)

GOLDEN_REPORT_CSV = (
    'car,nbar,mu_h,mu_s,k,target,fidelity,g2,g3,success_prob,parity,mean_lossy,mean_corrected,status\n'
    ',0,1,0.7,0,0,1,,,1,1,0,0,ok\n'
)


class TestGoldenExport:
    """Exact bytes of every export path, error row and NaN cells included."""

    def test_sweep_csv_bytes(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["sweep", write_spec(tmp_path, GOLDEN_SPEC), "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_CSV.encode()

    def test_sweep_json_bytes(self, tmp_path):
        out = tmp_path / "grid.json"
        assert main(["sweep", write_spec(tmp_path, GOLDEN_SPEC), "--format", "json",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_JSON.encode()

    def test_report_text_and_csv_bytes(self, tmp_path, capsys):
        out = tmp_path / "point.csv"
        assert main(GOLDEN_REPORT_ARGS + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == GOLDEN_REPORT_TEXT
        assert out.read_bytes() == GOLDEN_REPORT_CSV.encode()


def rows(table):
    return zip(*(table[name].tolist() for name in COLUMNS))


def reference_csv(table):
    """The row-by-row writer: csv.writer over rows of rendered cells."""
    def cell(value):
        if isinstance(value, float):
            return f"{value:.12g}" if math.isfinite(value) else ""
        return value

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(COLUMNS)
    writer.writerows([cell(value) for value in row] for row in rows(table))
    return buffer.getvalue()


def reference_json(table):
    """The row-by-row writer: json.dumps of one dict of rendered cells per row."""
    def cell(value):
        if isinstance(value, float):
            return float(f"{value:.12g}") if math.isfinite(value) else None
        return value

    return json.dumps([dict(zip(COLUMNS, map(cell, row))) for row in rows(table)], indent=2) + "\n"


class TestTableWriters:
    """The columnar writer writes the row-by-row reference's bytes."""

    @staticmethod
    def assert_matches_reference(table, tmp_path):
        for fmt, reference in (("csv", reference_csv), ("json", reference_json)):
            out = tmp_path / f"table.{fmt}"
            _write_table(table, fmt, str(out))
            assert out.read_bytes() == reference(table).encode(), fmt

    def test_drawn_tables(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1]
        floats = st.sampled_from(special) | st.floats(allow_nan=True, allow_infinity=True)
        errors = st.text(alphabet=['a', ' ', ',', '"', '\r', '\n', '0', '.', 'é'], max_size=12)
        statuses = st.just("ok") | errors.map(lambda text: f"error: {text}")

        @st.composite
        def tables(draw):
            n = draw(st.integers(0, 6))
            table = {}
            for name in COLUMNS:
                if name == "status":
                    table[name] = np.array(draw(st.lists(statuses, min_size=n, max_size=n)),
                                           dtype=object)
                elif name in ("k", "target"):
                    cells = draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n))
                    table[name] = np.array(cells, dtype=np.int64)
                else:
                    cells = draw(st.lists(floats, min_size=n, max_size=n))
                    table[name] = np.array(cells, dtype=np.float64)
            return table

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(tables())
        def check(table):
            self.assert_matches_reference(table, tmp_path)

        check()

    def test_landscape_table(self, tmp_path):
        axes = [SweepAxis("car", 2.5, 500.0, 100, "logarithmic"), SweepAxis("mu_h", 0.01, 1.0, 100)]
        table = run_sweep(axes, clicks=1, mu_s=0.7)
        assert len(table["status"]) == 10_000
        self.assert_matches_reference(table, tmp_path)
