"""The demos run as scripts and leave no file behind."""

import pathlib
import runpy
import tempfile

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


def test_sequential_training_demo_resumes_in_process(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "03_sequential_training.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "final parameters equal the continuous run's: True" in out
    assert list(tmp_path.iterdir()) == []


def test_ingestion_demo_leaves_no_temporary_files(tmp_path, monkeypatch, capsys):
    # tempfile caches its directory in-process, so TMPDIR alone would not reach it.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(DEMOS / "05_ingestion.py"), run_name="__main__")
    assert "features equal: True" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
