import json
import os
import subprocess
import sys

import pytest

import fishershift
from fishershift.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fishershift.__file__)))


@pytest.fixture()
def recipe_path(tmp_path):
    path = tmp_path / "drift.json"
    path.write_text(json.dumps({
        "kind": "mean_drift", "batch_count": 3, "features": 4,
        "classes": 2, "separation": 3.0, "delta": 0.5,
    }))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestTrain:
    def test_writes_schema_valid_trace(self, recipe_path, tmp_path, capsys):
        out = str(tmp_path / "run.json")
        code = run_cli(
            "train", "--synth", recipe_path, "--batches", "3", "--lambda", "0.1",
            "--seed", "7", "--epochs", "2", "--samples-per-batch", "60", "--out", out,
        )
        assert code == 0
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["schema_version"] == 1
        assert len(payload["records"]) == 2 * 3
        assert "final_params" in payload

    def test_rerun_is_byte_identical(self, recipe_path, tmp_path):
        args = [
            "train", "--synth", recipe_path, "--lambda", "0.1", "--seed", "3",
            "--epochs", "1", "--samples-per-batch", "60",
        ]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_batches_exits_2_naming_flag(self, recipe_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--synth", recipe_path, "--batches", "0",
                    "--out", str(tmp_path / "x.json"))
        assert exc.value.code == 2
        assert "--batches" in capsys.readouterr().err

    def test_missing_source_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--out", str(tmp_path / "x.json"))
        assert exc.value.code == 2
        assert "data source" in capsys.readouterr().err

    def test_csv_source(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        rows = ["f0,f1,label"]
        rows += [f"{i * 0.1},{1.0 - i * 0.1},{'a' if i % 2 else 'b'}" for i in range(40)]
        csv_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "run.json"
        code = run_cli(
            "train", "--csv", str(csv_path), "--batches", "2", "--epochs", "1",
            "--out", str(out),
        )
        assert code == 0 and out.exists()

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        code = run_cli("train", "--synth", str(tmp_path / "missing.json"),
                       "--out", str(tmp_path / "x.json"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_feature_exits_1_with_one_line(self, tmp_path, capsys):
        # The dataset rejects a NaN feature before any training step.
        csv_path = tmp_path / "nan.csv"
        rows = ["f0,f1,label"] + [f"{i * 0.1},{1.0 - i * 0.1},{i % 2}" for i in range(40)]
        rows[7] = "nan,0.5,1"
        csv_path.write_text("\n".join(rows) + "\n")
        code = run_cli("train", "--csv", str(csv_path), "--batches", "2",
                       "--out", str(tmp_path / "x.json"))
        assert code == 1
        assert capsys.readouterr().err == "error: feature values must be finite\n"

    def test_diverging_run_exits_1_with_one_line(self, recipe_path, tmp_path):
        # A subprocess, so numpy's floating-point warnings would reach stderr.
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run(
            [sys.executable, "-m", "fishershift.cli", "train", "--synth", recipe_path,
             "--optimizer", "sgd", "--learning-rate", "1e300", "--epochs", "2",
             "--samples-per-batch", "60", "--out", str(tmp_path / "x.json")],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 1
        assert done.stderr.splitlines() == ["error: non-finite cross-entropy loss"]


class TestSweep:
    def test_default_grid_produces_four_rows(self, recipe_path, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "sweep", "--synth", recipe_path, "--batches", "2", "--repetitions", "1",
            "--epochs", "1", "--samples", "120", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert [row["lambda"] for row in payload["rows"]] == [0.01, 0.04, 0.07, 0.1]
        assert (tmp_path / "report.series.csv").exists()

    def test_empty_values_exit_2(self, recipe_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--synth", recipe_path, "--values", "",
                    "--out", str(tmp_path / "r.json"))
        assert exc.value.code == 2
        assert "--values" in capsys.readouterr().err

    def test_zero_value_row_matches_baseline(self, recipe_path, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "sweep", "--synth", recipe_path, "--values", "0", "--batches", "2",
            "--repetitions", "1", "--epochs", "1", "--samples", "120", "--out", str(out),
        )
        assert code == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["mean"]["c3"] == row["mean"]["cv_sequential"]


class TestSynth:
    def test_materialises_reproducibly(self, recipe_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("synth", "--recipe", recipe_path, "--samples-per-batch", "30",
                           "--seed", "5", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["batch_sizes"] == [30, 30, 30]


class TestReport:
    def make_report(self, recipe_path, tmp_path):
        out = tmp_path / "report.json"
        run_cli("sweep", "--synth", recipe_path, "--values", "0.1", "--batches", "2",
                "--repetitions", "1", "--epochs", "1", "--samples", "120", "--out", str(out))
        return out

    def test_markdown_render_contains_delta3(self, recipe_path, tmp_path):
        src = self.make_report(recipe_path, tmp_path)
        out = tmp_path / "report.md"
        assert run_cli("report", "--in", str(src), "--format", "markdown",
                       "--out", str(out)) == 0
        assert "Δ₃" in out.read_text()

    def test_json_round_trip_identical(self, recipe_path, tmp_path):
        src = self.make_report(recipe_path, tmp_path)
        out = tmp_path / "copy.json"
        assert run_cli("report", "--in", str(src), "--format", "json",
                       "--out", str(out)) == 0
        assert out.read_bytes() == src.read_bytes()

    def tampered(self, recipe_path, tmp_path, edit):
        src = self.make_report(recipe_path, tmp_path)
        payload = json.loads(src.read_text())
        edit(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        return str(bad)

    def test_tampered_series_exits_1(self, recipe_path, tmp_path, capsys):
        def edit(payload):
            payload["lambda_series"][0][1] += 5.0

        bad = self.tampered(recipe_path, tmp_path, edit)
        capsys.readouterr()
        assert run_cli("report", "--in", bad) == 1
        err = capsys.readouterr().err
        assert err == "error: stored lambda series is inconsistent with the rows\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.pop("rows"), "report: missing key 'rows'"),
            (lambda p: p.update(rows={"0": {}}), "report: 'rows' must be a list"),
            (lambda p: p["rows"][0].pop("mean"), "report row 0: missing key 'mean'"),
        ],
        ids=["rows_missing", "rows_not_list", "row_without_mean"],
    )
    def test_malformed_report_exits_1_with_one_line(
        self, recipe_path, tmp_path, capsys, edit, message
    ):
        bad = self.tampered(recipe_path, tmp_path, edit)
        capsys.readouterr()
        assert run_cli("report", "--in", bad) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_path_exits_1(self, tmp_path, capsys):
        assert run_cli("report", "--in", str(tmp_path / "nope.json")) == 1
        assert "error:" in capsys.readouterr().err


class TestHelp:
    @pytest.mark.parametrize("sub", ["train", "sweep", "synth", "report"])
    def test_help_lists_defaults(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(sub, "--help")
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "default" in text

    def test_documented_defaults(self, capsys):
        for sub, token in (("train", "0.1"), ("train", "10"), ("train", "32"),
                           ("sweep", "5")):
            with pytest.raises(SystemExit):
                run_cli(sub, "--help")
            assert token in capsys.readouterr().out
