import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semistab
from semistab import cli
from semistab.cli import _config, build_parser, main
from semistab.entrytime import _csv_number
from semistab.models import FractionalIntegration
from semistab.oracles import spectral_abscissa_triangular


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(args):
    return main(args)


def summary_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [r for r in rows[1:] if r[1] == "summary"]


class TestAnalyze:
    def test_scalar_decay(self, tmp_path):
        out = tmp_path / "sd"
        code = run(["analyze", "--model", "scalar-decay nu=2", "--rmax", "40",
                    "--out", str(out)])
        assert code == 0
        report = json.loads((tmp_path / "sd.json").read_text())
        assert report["classification"]["verdict"] == "stable"
        assert abs(report["classification"]["nu"] - 2.0) <= 0.02
        csv = (tmp_path / "sd.entry.csv").read_text()
        assert csv.splitlines()[0] == "r,t_r,u_r,status"

    def test_gaussian(self, tmp_path):
        out = tmp_path / "gs"
        code = run(["analyze", "--model", "gaussian-shift", "--rmax", "50",
                    "--out", str(out)])
        assert code == 0
        report = json.loads((tmp_path / "gs.json").read_text())
        assert report["classification"]["verdict"] == "superstable"
        assert report["classification"]["k"] is None
        assert report["growth"]["omega_entry"] == "-inf"

    def test_nilpotent(self, tmp_path):
        out = tmp_path / "ns"
        code = run(["analyze", "--model", "nilpotent-shift L=1", "--rmax", "20",
                    "--out", str(out)])
        assert code == 0
        report = json.loads((tmp_path / "ns.json").read_text())
        assert report["classification"]["verdict"] == "finite-time-extinction"
        assert abs(report["classification"]["k"] - 1.0) <= 1e-3

    def test_model_file(self, tmp_path):
        spec = tmp_path / "m.model"
        spec.write_text("# a comment\nscalar-decay nu=1\n")
        code = run(["analyze", "--model-file", str(spec), "--rmax", "20",
                    "--out", str(tmp_path / "mf")])
        assert code == 0

    def test_model_file_may_span_lines(self, tmp_path):
        # one reading of a model file for analyze and sweep: non-comment
        # lines joined by spaces
        d = tmp_path / "models"
        d.mkdir()
        (d / "j10.model").write_text("# a transient\nmatrix [[-1,10],\n[0,-1]]\n")
        assert run(["analyze", "--model-file", str(d / "j10.model"), "--rmax", "16",
                    "--out", str(tmp_path / "file")]) == 0
        assert run(["analyze", "--model", "matrix [[-1,10],[0,-1]]", "--rmax", "16",
                    "--out", str(tmp_path / "inline")]) == 0
        for suffix in (".json", ".entry.csv"):
            file_text = (tmp_path / f"file{suffix}").read_text()
            assert file_text.replace("file.entry.csv", "inline.entry.csv") == (
                tmp_path / f"inline{suffix}").read_text()
        assert run(["sweep", "--models", str(d), "--rmax", "16", "--out", str(tmp_path / "d.csv")]) == 0
        assert run(["sweep", "--models", "matrix [[-1,10],[0,-1]]", "--rmax", "16",
                    "--out", str(tmp_path / "i.csv")]) == 0
        assert (tmp_path / "d.csv").read_text() == (tmp_path / "i.csv").read_text()

    def test_empty_model_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.model"
        path.write_text("# nothing but a comment\n\n")
        assert run(["analyze", "--model-file", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "error: empty model spec" in capsys.readouterr().err

    def test_model_string_keeps_its_digits(self, tmp_path, capsys):
        spec = "matrix [[-1.23456789,1],[0,-1]]"
        assert run(["analyze", "--model", spec, "--rmax", "16", "--out", str(tmp_path / "m")]) == 0
        assert json.loads((tmp_path / "m.json").read_text())["model"] == spec
        assert capsys.readouterr().out.startswith(f"{spec}: ")
        out = tmp_path / "s.csv"
        assert run(["sweep", "--models", f"{spec};scalar-decay nu=2.123456789", "--rmax", "16",
                    "--out", str(out)]) == 0
        assert [r[0] for r in summary_rows(out)] == [spec, "scalar-decay nu=2.123456789"]

    def test_norm_floor_is_fixed_and_echoed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["analyze", "--model", "scalar-decay nu=2", "--norm-floor", "1e-300",
                 "--out", str(tmp_path / "nf")])
        assert exc.value.code == 2
        assert "--norm-floor" in capsys.readouterr().err
        assert not (tmp_path / "nf.json").exists()
        run(["analyze", "--model", "scalar-decay nu=2", "--rmax", "20", "--out", str(tmp_path / "ok")])
        assert json.loads((tmp_path / "ok.json").read_text())["config"]["norm_floor"] == 1e-300

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        code = run(["analyze", "--model", "bogus nu=2", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["nan", "inf", "64.5"])
    def test_fractional_cell_count_must_be_an_integer(self, tmp_path, capsys, n):
        code = run(["analyze", "--model", f"fractional-integration n={n}",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"error: n must be an integer, got {n}" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_bare_matrix_literal_exits_2(self, tmp_path, capsys):
        code = run(["analyze", "--model", "[[1]]", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_nan_norm_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(FractionalIntegration, "_log_norms",
                            lambda self, ts: np.full(np.shape(ts), np.nan))
        code = run(["analyze", "--model", "fractional-integration n=16",
                    "--out", str(tmp_path / "nan")])
        assert code == 3
        assert "numerics failure" in capsys.readouterr().err

    def test_stiff_generator_exits_3(self, tmp_path, capsys):
        # a computed norm above the Lumer-Phillips bound is a kernel error:
        # scaling and squaring beside the stiff mode rounds the decay of the
        # non-normal slow block away
        code = run(["analyze", "--model", "matrix [[-1e17,0,0],[0,-1,1],[0,0,-2]]",
                    "--out", str(tmp_path / "stiff")])
        assert code == 3
        assert "exceeds its Lumer-Phillips bound" in capsys.readouterr().err
        assert not (tmp_path / "stiff.json").exists()

    @pytest.mark.parametrize("spec", ["matrix [[-1e17,0],[0,-1]]", "matrix [[-1e9,0],[0,-1]]"])
    def test_stiff_diagonal_generator_reads_its_slow_mode(self, spec, tmp_path):
        # the shift s = -1 leaves the slow mode exactly 1, so the curve is
        # exactly e^-t; diag(-1e17, -1) once read "unstable" with exit 0,
        # then exited 3
        code = run(["analyze", "--model", spec, "--out", str(tmp_path / "stiff")])
        assert code == 0
        report = json.loads((tmp_path / "stiff.json").read_text())
        assert report["classification"]["verdict"] == "stable"
        assert abs(report["classification"]["nu"] - 1.0) <= 0.01

    @pytest.mark.parametrize("flag, value", [("--time-tol", "1e-20"), ("--horizon-cap", "inf")])
    def test_unusable_search_config_exits_2(self, flag, value, tmp_path):
        # a --time-tol below two ulps of the cap once stalled the bisection,
        # and an infinite cap raised OverflowError; a fresh interpreter with
        # a timeout, so a regression fails rather than hangs the suite
        src = os.path.dirname(os.path.dirname(semistab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "semistab.cli", "analyze", "--model", "scalar-decay nu=2",
             flag, value, "--out", str(tmp_path / "cfg")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_numpy_ma_stays_unimported(self, tmp_path):
        # np.unique imports numpy.ma (1.6 MiB) on first use; an analysis
        # needs none of it.  A fresh interpreter, since pytest imports it.
        # The cutoff and the fractional curve take the extinction seeds, the
        # plateau rows and the Illinois probes of the entry search.
        src = os.path.dirname(os.path.dirname(semistab.__file__))
        script = (
            "import sys\n"
            "from semistab.cli import main\n"
            "for i, spec in enumerate(sys.argv[2:]):\n"
            "    assert main(['analyze', '--model', spec, '--out', f'{sys.argv[1]}/m{i}']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), "scalar-decay nu=2",
             "matrix [[-6,14],[0,-6]]", "nilpotent-shift L=1.3", "fractional-integration n=16"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_missing_model_exits_2(self, tmp_path):
        assert run(["analyze", "--out", str(tmp_path / "x")]) == 2

    def test_unreadable_model_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.model"
        code = run(["analyze", "--model-file", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("command, out", [
        (["analyze", "--model", "scalar-decay nu=2"], "sd"),
        (["sweep", "--models", "scalar-decay nu=2"], "sd.csv"),
    ], ids=["analyze", "sweep"])
    def test_out_in_a_missing_directory_exits_2(self, tmp_path, capsys, command, out):
        path = tmp_path / "absent" / out
        code = run(command + ["--rmax", "20", "--out", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("command, out, named", [
        (["analyze", "--model", "scalar-decay nu=2"], "sd", "sd.entry.csv"),
        (["sweep", "--models", "scalar-decay nu=2"], "sd.csv", "sd.csv"),
    ], ids=["analyze", "sweep"])
    def test_missing_out_directory_is_found_before_analysis(self, tmp_path, capsys, monkeypatch,
                                                            command, out, named):
        def analysis_ran(*args, **kwargs):
            raise AssertionError("the analysis ran")

        monkeypatch.setattr(semistab.cli, "analyze_model", analysis_ran)
        path = tmp_path / "absent" / out
        code = run(command + ["--rmax", "20", "--out", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "absent" / named) in err

    def test_small_rmax_exits_2(self, tmp_path):
        code = run(["analyze", "--model", "gaussian-shift", "--rmax", "4",
                    "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("spec", ["matrix [[-1,10],[0,-1]]", "scalar-decay nu=1"],
                             ids=["j10", "scalar-decay"])
    def test_rmax_1000_exits_0(self, spec, tmp_path):
        # thresholds down to exp(-1001), far below any norm floor, are
        # entered: no finite log stands for an exact zero
        assert run(["analyze", "--model", spec, "--rmax", "1000", "--out", str(tmp_path / "r")]) == 0
        last = (tmp_path / "r.entry.csv").read_text().splitlines()[-1].split(",")
        assert last[0] == "1001" and last[3] == "bisected"
        if spec.startswith("scalar"):
            assert abs(float(last[1]) - 1001.0) <= semistab.SearchConfig().time_tol

    def test_horizon_limited_classification_exits_4(self, tmp_path, capsys):
        # a cap too tight to observe the quiet window leaves widened entries,
        # so the verdict is written but flagged inconclusive
        code = run(["analyze", "--model", "matrix [[-0.2,2],[0,-0.25]]",
                    "--rmax", "16", "--horizon-cap", "35", "--grid-step", "0.01",
                    "--out", str(tmp_path / "hz")])
        assert code == 4
        assert "widened entry-time searches" in capsys.readouterr().err
        report = json.loads((tmp_path / "hz.json").read_text())
        assert report["classification"]["confident"] is False
        assert report["entry"]["statuses"].get("widened", 0) > 0

    def test_horizon_entries_read_unstable_and_exit_0(self, tmp_path, capsys):
        # a table of horizon entries is a verdict, not an inconclusive one:
        # the norm of the nilpotent Jordan block grows like t
        code = run(["analyze", "--model", "matrix [[0,1],[0,0]]", "--out", str(tmp_path / "j")])
        assert code == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "j.json").read_text())
        assert report["classification"]["verdict"] == "unstable"
        assert report["classification"]["confident"] is True
        assert set(report["entry"]["statuses"]) == {"horizon"}
        assert report["pazy"]["overall"] == "inapplicable"

    def test_all_inconclusive_integrals_exit_4(self, tmp_path, capsys, monkeypatch):
        import semistab.pazy
        # one inconclusive result per weight of the stacked integrand
        monkeypatch.setattr(semistab.pazy, "integrate_adaptive",
                            lambda f, spec: [semistab.IntegralResult(semistab.INCONCLUSIVE)]
                            * len(f(np.empty(0))))
        code = run(["analyze", "--model", "scalar-decay nu=2", "--out", str(tmp_path / "q")])
        assert code == 4
        assert "every integral criterion was inconclusive" in capsys.readouterr().err
        report = json.loads((tmp_path / "q.json").read_text())
        assert report["classification"]["verdict"] == "stable"
        assert report["classification"]["confident"] is True
        assert report["pazy"]["overall"] == "inconclusive"

    def test_config_echo_reproduces_run(self, tmp_path):
        out1 = tmp_path / "a"
        run(["analyze", "--model", "scalar-decay nu=2", "--rmax", "20", "--out", str(out1)])
        cfg = json.loads((tmp_path / "a.json").read_text())["config"]
        out2 = tmp_path / "b"
        code = run([
            "analyze", "--model", "scalar-decay nu=2",
            "--rmax", str(cfg["rmax"]),
            "--time-tol", repr(cfg["time_tol"]),
            "--grid-step", repr(cfg["grid_step"]),
            "--horizon-start", repr(cfg["horizon_start"]),
            "--horizon-cap", repr(cfg["horizon_cap"]),
            "--eps-super", repr(cfg["eps_super"]),
            "--eps-tailsum", repr(cfg["eps_tailsum"]),
            "--plateau-window", str(cfg["plateau_window"]),
            "--tail-decay-ratio", repr(cfg["tail_decay_ratio"]),
            "--pazy-a", repr(cfg["pazy_a"]),
            "--quad-abs-tol", repr(cfg["quad_abs_tol"]),
            "--quad-rel-tol", repr(cfg["quad_rel_tol"]),
            "--out", str(out2),
        ])
        assert code == 0
        assert (tmp_path / "a.entry.csv").read_bytes() == (tmp_path / "b.entry.csv").read_bytes()
        ra = json.loads((tmp_path / "a.json").read_text())
        rb = json.loads((tmp_path / "b.json").read_text())
        ra["entry"].pop("csv"), rb["entry"].pop("csv")
        assert ra == rb


class TestOptions:
    """Each SearchConfig and ClassifyThresholds field is one option, with its default, echoed."""

    CLASSES = (semistab.SearchConfig, semistab.ClassifyThresholds)

    def test_no_options_give_the_default_configs(self):
        args = build_parser().parse_args(["analyze"])
        for cls in self.CLASSES:
            assert _config(cls, args) == cls()

    def test_parser_is_built_once_and_parsing_leaves_it_unchanged(self):
        parser = build_parser()
        help_text = parser.format_help()
        assert parser.parse_args(["analyze", "--rmax", "7", "--time-tol", "1e-3"]).rmax == 7
        assert build_parser() is parser
        args = parser.parse_args(["analyze"])
        assert args.rmax == 40 and _config(semistab.SearchConfig, args) == semistab.SearchConfig()
        assert parser.format_help() == help_text

    @pytest.mark.parametrize("command", [["analyze"], ["sweep", "--models", "gaussian-shift"]])
    def test_every_field_has_a_flag(self, command):
        for cls in self.CLASSES:
            for f in dataclasses.fields(cls):
                value = 2 * f.default
                args = build_parser().parse_args(
                    command + ["--" + f.name.replace("_", "-"), str(value)])
                assert getattr(args, f.name) == value and type(getattr(args, f.name)) is type(value)

    def test_report_echoes_every_field(self, tmp_path):
        cfg = semistab.SearchConfig(time_tol=2e-8, grid_step=2e-3, horizon_start=20.0,
                                    horizon_cap=2e4)
        th = semistab.ClassifyThresholds(eps_super=2e-2, eps_tailsum=2e-3, plateau_window=6,
                                         tail_decay_ratio=0.8)
        flags = [arg for obj in (cfg, th) for f in dataclasses.fields(obj)
                 for arg in ("--" + f.name.replace("_", "-"), repr(getattr(obj, f.name)))]
        assert run(["analyze", "--model", "scalar-decay nu=2", "--rmax", "16", *flags,
                    "--out", str(tmp_path / "e")]) == 0
        report = json.loads((tmp_path / "e.json").read_text())
        names = [[f.name for f in dataclasses.fields(cls)] for cls in self.CLASSES]
        expected = ["rmax", *names[0], "norm_floor", *names[1]]
        assert list(report["config"])[:len(expected)] == expected
        assert {k: report["config"][k] for k in names[0]} == dataclasses.asdict(cfg)
        assert {k: report["config"][k] for k in names[1]} == dataclasses.asdict(th)
        assert {k: report["classification"]["diagnostics"][k] for k in names[1]} == (
            dataclasses.asdict(th))


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        for spec in ("matrix [[-1,2],[0,-2]]", "fractional-integration n=64"):
            for name in ("one", "two"):
                code = run(["analyze", "--model", spec, "--rmax", "20",
                            "--out", str(tmp_path / name)])
                assert code == 0
            assert (tmp_path / "one.entry.csv").read_bytes() == (tmp_path / "two.entry.csv").read_bytes()
            ra = json.loads((tmp_path / "one.json").read_text())
            rb = json.loads((tmp_path / "two.json").read_text())
            ra["entry"].pop("csv"), rb["entry"].pop("csv")
            assert ra == rb


class TestSweep:
    def test_reference_model_gallery(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--models",
                    "scalar-decay nu=2;gaussian-shift;nilpotent-shift L=1;fractional-integration n=64",
                    "--rmax", "20", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "model,r,t_r,u_r,status,verdict,nu,k,omega_entry"
        verdicts = [r[5] for r in summary_rows(out)]
        assert sorted(verdicts) == ["finite-time-extinction", "stable", "superstable", "superstable"]

    def test_zero_rmax_exits_2(self, tmp_path):
        code = run(["sweep", "--models", "gaussian-shift", "--rmax", "0",
                    "--out", str(tmp_path / "s.csv")])
        assert code == 2

    def test_random_triangular_sign_oracle(self, tmp_path):
        rng = np.random.default_rng(99)
        specs = []
        expected = []
        for stable in (True, True, False):
            diag = -rng.uniform(0.4, 1.5, 3) if stable else np.array([0.4, -1.0, -0.5])
            a = np.triu(rng.uniform(-1, 1, (3, 3)), 1) + np.diag(diag)
            rows = ",".join("[" + ",".join(f"{v:.6f}" for v in row) + "]" for row in a)
            specs.append(f"matrix [{rows}]")
            expected.append("stable" if spectral_abscissa_triangular(a) < 0 else "unstable")
        out = tmp_path / "rand.csv"
        code = run(["sweep", "--models", ";".join(specs), "--rmax", "16",
                    "--grid-step", "0.01", "--out", str(out)])
        assert code == 0
        got = [r[5] for r in summary_rows(out)]
        assert got == expected

    def test_partial_failure_keeps_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = run(["sweep", "--models", "gaussian-shift;bogus-model x=1",
                    "--rmax", "20", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "error:SpecError" in text
        assert "superstable" in text

    def test_bad_cell_count_gives_only_its_error_row(self, tmp_path):
        out = tmp_path / "n.csv"
        specs = ["fractional-integration n=nan", "scalar-decay nu=1",
                 "fractional-integration n=inf", "fractional-integration n=64.5"]
        code = run(["sweep", "--models", ";".join(specs), "--rmax", "20", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert [ln for ln in lines if "fractional" in ln] == [
            f'"{spec}",summary,,,error:SpecError,,,,' for spec in specs if "fractional" in spec]
        assert [r[4:6] for r in summary_rows(out) if r[0] == "scalar-decay nu=1"] == [
            ["ok", "stable"]]

    def test_numerics_failure_gives_only_its_error_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(FractionalIntegration, "_log_norms",
                            lambda self, ts: np.full(np.shape(ts), np.nan))
        out = tmp_path / "nan.csv"
        code = run(["sweep", "--models", "gaussian-shift;fractional-integration n=16",
                    "--rmax", "20", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert [ln for ln in lines if "fractional" in ln] == [
            '"fractional-integration n=16",summary,,,error:NumericsFailure,,,,']
        gaussian = [ln.split(",") for ln in lines if ln.startswith('"gaussian-shift"')]
        assert [row[1] for row in gaussian] == [str(r) for r in range(21)] + ["summary"]
        assert gaussian[-1][4:6] == ["ok", "superstable"]

    def test_all_fail_exits_2(self, tmp_path):
        code = run(["sweep", "--models", "bogus;also-bogus", "--rmax", "20",
                    "--out", str(tmp_path / "f.csv")])
        assert code == 2

    def test_error_rows_quote_the_spec(self, tmp_path):
        # a spec holding quotes and commas stays one field of the 9 columns
        out = tmp_path / "q.csv"
        bad = 'bad",x,y'
        code = run(["sweep", "--models", f"{bad};scalar-decay nu=1", "--rmax", "20",
                    "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {9}
        assert rows[1] == [bad, "summary", "", "", "error:SpecError", "", "", "", ""]
        assert rows[-1][:6] == ["scalar-decay nu=1", "summary", "", "", "ok", "stable"]

    def test_unreadable_model_in_directory_exits_2(self, tmp_path, capsys):
        d = tmp_path / "models"
        d.mkdir()
        (d / "a.model").write_text("scalar-decay nu=1\n")
        (d / "b.model").mkdir()  # open() fails on it
        out = tmp_path / "dir.csv"
        code = run(["sweep", "--models", str(d), "--rmax", "20", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(d / "b.model") in err
        assert not out.exists()

    def test_directory_of_model_files(self, tmp_path):
        d = tmp_path / "models"
        d.mkdir()
        (d / "a.model").write_text("scalar-decay nu=1\n")
        (d / "b.model").write_text("nilpotent-shift L=1\n")
        (d / "ignored.txt").write_text("not a model\n")
        out = tmp_path / "dir.csv"
        code = run(["sweep", "--models", str(d), "--rmax", "20", "--out", str(out)])
        assert code == 0
        verdicts = [r[5] for r in summary_rows(out)]
        assert sorted(verdicts) == ["finite-time-extinction", "stable"]


class TestNoPowerIteration:
    """No analysis or spectral-radius path reaches the power iteration."""

    SPECS = ("scalar-decay nu=2", "gaussian-shift", "nilpotent-shift L=1",
             "damped-nilpotent nu=1 L=1", "fractional-integration n=16",
             "matrix [[-1,10],[0,-1]]")

    def test_every_path_avoids_power_iteration(self, tmp_path, monkeypatch):
        from semistab import models, numerics

        assert {spec.split()[0] for spec in self.SPECS} == set(models._KINDS)

        def forbidden(*args, **kwargs):
            raise AssertionError("power iteration reached")

        monkeypatch.setattr(numerics, "_power_iteration", forbidden)
        for i, spec in enumerate(self.SPECS):
            code = run(["analyze", "--model", spec, "--rmax", "16", "--out", str(tmp_path / str(i))])
            assert code == 0, spec
        matrix = models.MatrixSemigroup(np.array([[-1.0, 10.0], [0.0, -1.0]]))
        assert semistab.gelfand_spectral_radius(matrix, 1.0) > 0.0
        kernel = FractionalIntegration(16).kernel_matrix(1.0)
        assert semistab.spectral_radius_estimate(kernel) > 0.0


def _round_tree(obj):
    """The report with every float at its 12-digit CSV text, as the writer once built it."""
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        # inf, -inf and nan stay strings in JSON
        text = _csv_number(obj)
        return float(text) if math.isfinite(obj) else text
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _reference_text(report):
    return json.dumps(_round_tree(report), indent=2)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 1e300, -1e-300]),
    st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(), st.text(alphabet=st.sampled_from(['"', "\\", "\n", "\x00", "é", " ", "日"])),
)


class TestReportWriter:
    """The report writer's one pass gives the bytes of json.dumps on the rounded tree."""

    def test_gallery_reports_match_json_dumps(self, tmp_path, monkeypatch):
        # every analysis of the three benchmark galleries at seed 1
        spec = importlib.util.spec_from_file_location(
            "_writer_gallery", os.path.join(ROOT, "perfbench", "gallery.py"))
        gallery = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, gallery)  # its dataclass looks itself up
        spec.loader.exec_module(gallery)
        specs = dict.fromkeys(case.spec for workload in gallery.WORKLOADS
                              for case in gallery.build(workload, 1))
        reports = []
        monkeypatch.setattr(cli, "_json_text", lambda obj, indent="", write=cli._json_text:
                            (reports.append(obj) if not indent else None) or write(obj, indent))
        for i, model in enumerate(specs):
            out = tmp_path / str(i)
            assert main(["analyze", "--model", model, "--out", str(out)]) in (0, 4), model
            assert (tmp_path / f"{i}.json").read_text() == _reference_text(reports[-1]) + "\n"
        assert len(reports) == len(specs) > 90

    @settings(max_examples=200, deadline=None)
    @given(tree=st.recursive(_SCALARS, lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), kids, max_size=4)), max_leaves=30))
    def test_any_tree_matches_json_dumps(self, tree):
        assert cli._json_text(tree) == _reference_text(tree)
