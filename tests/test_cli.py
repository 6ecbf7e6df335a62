import csv
import io
import json

import numpy as np

from semistab.cli import main
from semistab.models import FractionalIntegration
from semistab.oracles import spectral_abscissa_triangular


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

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        code = run(["analyze", "--model", "bogus nu=2", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bare_matrix_literal_exits_2(self, tmp_path, capsys):
        code = run(["analyze", "--model", "[[1]]", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_nan_norm_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(FractionalIntegration, "norm_at_many",
                            lambda self, ts: np.full(np.shape(ts), np.nan))
        code = run(["analyze", "--model", "fractional-integration n=16",
                    "--out", str(tmp_path / "nan")])
        assert code == 3
        assert "numerics failure" in capsys.readouterr().err

    def test_missing_model_exits_2(self, tmp_path):
        assert run(["analyze", "--out", str(tmp_path / "x")]) == 2

    def test_small_rmax_exits_2(self, tmp_path):
        code = run(["analyze", "--model", "gaussian-shift", "--rmax", "4",
                    "--out", str(tmp_path / "x")])
        assert code == 2

    def test_horizon_limited_classification_exits_4(self, tmp_path):
        # a cap too tight to observe the quiet window leaves widened entries,
        # so the verdict is written but flagged inconclusive
        code = run(["analyze", "--model", "matrix [[-0.2,2],[0,-0.25]]",
                    "--rmax", "16", "--horizon-cap", "35", "--grid-step", "0.01",
                    "--out", str(tmp_path / "hz")])
        assert code == 4
        report = json.loads((tmp_path / "hz.json").read_text())
        assert report["classification"]["confident"] is False
        assert report["entry"]["statuses"].get("widened", 0) > 0

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

    def test_all_fail_exits_2(self, tmp_path):
        code = run(["sweep", "--models", "bogus;also-bogus", "--rmax", "20",
                    "--out", str(tmp_path / "f.csv")])
        assert code == 2

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
