import dataclasses
import hashlib
import json
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import weakref

import pytest

import fishershift
import fishershift.bench as bench
import fishershift.cli as cli
from fishershift import trainer
from fishershift.cli import build_parser, main, model_spec, protocol_spec, train_config

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


def write_csv_source(path, rows=40):
    lines = ["f0,f1,label"]
    lines += [f"{i * 0.1},{1.0 - i * 0.1},{'a' if i % 2 else 'b'}" for i in range(rows)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


RECIPE = {"kind": "mean_drift", "batch_count": 3, "features": 4}
MALFORMED_RECIPES = {
    "not_object": ([1, 2], "recipe must be a JSON object"),
    "string_int": ({**RECIPE, "batch_count": "5"}, "recipe: 'batch_count' must be an integer"),
    "bool_int": ({**RECIPE, "batch_count": True}, "recipe: 'batch_count' must be an integer"),
    "null_number": ({**RECIPE, "delta": None}, "recipe: 'delta' must be a number"),
    "nan_number": ({**RECIPE, "delta": float("nan")}, "recipe numbers must be finite"),
    "missing_kind": ({"batch_count": 3}, "recipe: missing key 'kind'"),
}


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

    @pytest.mark.parametrize("shuffle, digest", [
        ("auto", "067740ea8b2e4c478ff21889f4e848590c838c04badd573839d2c12f43bcced8"),
        ("on", "b4e0acbdb5322a3af29631cc2bb37ca46dcffa7e25d29b2efd5c6aab73dc8f66"),
    ])
    def test_synth_trace_bytes_are_pinned(self, recipe_path, tmp_path, shuffle, digest):
        # Pins the recipe path of `train` (materialise, hold out, fragment);
        # the perfbench golden traces cover only file sources.
        out = tmp_path / "run.json"
        assert run_cli(
            "train", "--synth", recipe_path, "--batches", "2", "--seed", "7", "--epochs", "2",
            "--samples-per-batch", "60", "--learning-rate", "0.05", "--shuffle", shuffle,
            "--out", str(out),
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("batches, samples, digest", [
        ("2", "60", "d876f8935a68556d1bc2ef0a5480ab023f374fa2f37e66be26ec7cf9ac77ea49"),
        ("3", "61", "a6d5e26035b7a1d9632360dc8fab5482afface09c48ff4bf56ac75ecb098d1d5"),
    ], ids=["even", "ragged"])
    def test_independent_trace_bytes_are_pinned(self, recipe_path, tmp_path, batches, samples,
                                                digest):
        # Batch sizes 48/48 and 49/49/48: the ragged plan's batches cannot
        # all step in one group.
        out = tmp_path / "run.json"
        assert run_cli(
            "train", "--synth", recipe_path, "--batches", batches, "--seed", "7",
            "--epochs", "2", "--samples-per-batch", samples, "--learning-rate", "0.05",
            "--baseline", "cv_independent", "--out", str(out),
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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
        err = capsys.readouterr().err
        assert all(flag in err for flag in ("--synth", "--csv", "--idx-images"))

    def test_csv_source(self, tmp_path):
        out = tmp_path / "run.json"
        code = run_cli(
            "train", "--csv", write_csv_source(tmp_path / "data.csv"), "--batches", "2",
            "--epochs", "1", "--out", str(out),
        )
        assert code == 0 and out.exists()

    def test_the_loaded_dataset_is_freed_before_training(self, tmp_path, monkeypatch):
        # Only the split's copies of the rows train, so the loaded matrix is
        # let go before the run starts.
        loaded, alive = [], []
        resolve_source, shift_correction = cli.resolve_source, cli.shift_correction

        def resolve_spy(args):
            source = resolve_source(args)
            loaded.append(weakref.ref(source))
            return source

        def train_spy(*args, **kwargs):
            alive.append(loaded[0]() is not None)
            return shift_correction(*args, **kwargs)

        monkeypatch.setattr(cli, "resolve_source", resolve_spy)
        monkeypatch.setattr(cli, "shift_correction", train_spy)
        code = run_cli("train", "--csv", write_csv_source(tmp_path / "data.csv"),
                       "--batches", "2", "--epochs", "1", "--out", str(tmp_path / "run.json"))
        assert code == 0 and alive == [False]

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


def test_importing_the_cli_loads_no_process_pool():
    # Only sweep --jobs > 1 needs the pool, so train and a one-process sweep
    # never pay for loading it. A fresh interpreter: this one may hold it.
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    pool_modules = ("multiprocessing", "concurrent.futures.process")
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, fishershift.cli; print([m for m in {pool_modules!r} if m in sys.modules])"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout == "[]\n"


def test_train_and_a_one_process_sweep_start_no_thread(recipe_path, tmp_path):
    # Tabular validation sets are evaluated inline, so these runs never load
    # concurrent.futures or start the evaluation thread; and nothing they run
    # loads numpy.ma (np.unique's masked-array probe does). A fresh
    # interpreter: this one may hold the modules already.
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    train = ["train", "--synth", recipe_path, "--epochs", "1", "--samples-per-batch", "60",
             "--out", str(tmp_path / "run.json")]
    sweep = ["sweep", "--synth", recipe_path, "--values", "0.1", "--batches", "2",
             "--repetitions", "2", "--epochs", "1", "--samples", "120",
             "--out", str(tmp_path / "report.json")]
    script = (
        "import sys, threading\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda self: (started.append(self.name), start(self))\n"
        "from fishershift.cli import main\n"
        f"codes = [main({train!r}), main({sweep!r})]\n"
        "print(codes, started, 'concurrent.futures' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0] [] False False"


def test_every_train_config_field_is_set_by_a_flag():
    # A config field that no flag sets is an option only tests can reach.
    args = build_parser().parse_args([
        "train", "--synth", "drift.json", "--out", "run.json", "--lambda", "0.5",
        "--epochs", "3", "--minibatch", "8", "--optimizer", "sgd",
        "--learning-rate", "0.5", "--seed", "4", "--baseline", "cv_sequential",
    ])
    cfg = train_config(args, args.baseline)
    for config in (cfg, cfg.optimizer, cfg.penalty):
        default = type(config)()
        for field in dataclasses.fields(config):
            assert getattr(config, field.name) != getattr(default, field.name), field.name


# Each case is (command, flags, the flag stderr must name). MISSING stands
# for a data path that does not exist, so a run that read a file before it
# checked its arguments would exit 1, not 2.
MISSING = "<missing>"
BAD_ARGUMENTS = {
    # Each parses as a number or a path; only the flag's domain, or a rule
    # between two flags, stops it before a file is read.
    "foldwise-one-fold": ("sweep", ["--protocol", "foldwise", "--folds", "1"], "--folds"),
    "zero-learning-rate": ("train", ["--learning-rate", "0"], "--learning-rate"),
    "nan-learning-rate": ("sweep", ["--learning-rate", "nan"], "--learning-rate"),
    "zero-hidden-width": ("train", ["--hidden", "4", "0"], "--hidden"),
    "inf-lambda": ("train", ["--lambda", "inf"], "--lambda"),
    "nan-lambda": ("sweep", ["--lambda", "nan"], "--lambda"),
    "inf-in-values": ("sweep", ["--values", "0.1,inf"], "--values"),
    "train-negative-seed": ("train", ["--seed", "-1"], "--seed"),
    "synth-negative-seed": ("synth", ["--seed", "-1"], "--seed"),
    "sweep-negative-seed": ("sweep", ["--seed", "-1"], "--seed"),
    "headerless-named-label": ("train", ["--csv", MISSING, "--no-header"], "--label-column"),
    "too-few-samples": ("sweep", ["--batches", "2", "--samples", "3"], "--samples"),
    # One value outside each flag's domain.
    "train-epochs": ("train", ["--epochs", "0"], "--epochs"),
    "train-minibatch": ("train", ["--minibatch", "1.5"], "--minibatch"),
    "train-lambda": ("train", ["--lambda", "-0.1"], "--lambda"),
    "train-learning-rate": ("train", ["--learning-rate", "-1"], "--learning-rate"),
    "train-val-fraction": ("train", ["--val-fraction", "1"], "--val-fraction"),
    "train-batches": ("train", ["--batches", "0"], "--batches"),
    "train-samples-per-batch": ("train", ["--samples-per-batch", "1"], "--samples-per-batch"),
    "sweep-epochs": ("sweep", ["--epochs", "-3"], "--epochs"),
    "sweep-minibatch": ("sweep", ["--minibatch", "0"], "--minibatch"),
    "sweep-hidden": ("sweep", ["--hidden", "two"], "--hidden"),
    "sweep-val-fraction": ("sweep", ["--val-fraction", "nan"], "--val-fraction"),
    "sweep-values": ("sweep", ["--values", "0.1,x"], "--values"),
    "sweep-batches": ("sweep", ["--batches", "0"], "--batches"),
    "sweep-repetitions": ("sweep", ["--repetitions", "0"], "--repetitions"),
    "sweep-jobs": ("sweep", ["--jobs", "0"], "--jobs"),
    "synth-samples-per-batch": ("synth", ["--samples-per-batch", "1"], "--samples-per-batch"),
    "two-sources": ("train", ["--synth", MISSING, "--csv", MISSING], "--csv"),
    "images-without-labels": ("train", ["--idx-images", MISSING], "--idx-labels"),
}


@pytest.mark.parametrize("command, flags, named", BAD_ARGUMENTS.values(),
                         ids=BAD_ARGUMENTS.keys())
def test_bad_argument_exits_2_before_any_file_is_read(command, flags, named, tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    flags = [missing if flag == MISSING else flag for flag in flags]
    source = []
    if not {"--synth", "--csv", "--idx-images"} & set(flags):
        source = ["--recipe" if command == "synth" else "--synth", missing]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *source, *flags, "--out", str(tmp_path / "out.json"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert named in err
    # The subcommand's own usage and prefix, for a rule between two flags too.
    assert err.startswith(f"usage: fishershift {command} ")
    assert f"\nfishershift {command}: error: " in err
    assert not list(tmp_path.iterdir())


# A prefix of a flag is not that flag: train's --samples would otherwise set
# --samples-per-batch, while sweep's --samples counts all rows.
ABBREVIATED = {
    "train-samples": ("train", ["--samples", "100"]),
    "train-lam": ("train", ["--lam", "0.1"]),
    "sweep-samp": ("sweep", ["--samp", "100"]),
    "sweep-lam": ("sweep", ["--lam", "0.1"]),
    "synth-samples": ("synth", ["--samples", "7"]),
    "report-form": ("report", ["--form", "csv"]),
}


@pytest.mark.parametrize("command, flags", ABBREVIATED.values(), ids=ABBREVIATED.keys())
def test_a_prefix_of_a_flag_exits_2_before_any_file_is_read(command, flags, tmp_path, capsys):
    source = {"train": "--synth", "sweep": "--synth", "synth": "--recipe", "report": "--in"}
    with pytest.raises(SystemExit) as exc:
        run_cli(command, source[command], str(tmp_path / "missing.json"), *flags,
                "--out", str(tmp_path / "out.json"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fishershift ")
    assert f"error: unrecognized arguments: {' '.join(flags)}\n" in err
    assert not list(tmp_path.iterdir())


def test_a_prefix_of_help_is_not_help(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--he")
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: fishershift ")


@pytest.mark.parametrize("command, flag", [
    ("train", "--out"), ("sweep", "--out"), ("sweep", "--series-out"), ("synth", "--out"),
])
def test_missing_output_directory_exits_1_before_any_work(command, flag, recipe_path, tmp_path,
                                                          monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("shift_correction", "lambda_sweep", "synth_shift"):
        monkeypatch.setattr(cli, name, no_work)
    bad = str(tmp_path / "no_such_dir" / "out.json")
    outputs = ["--out", bad]
    if flag == "--series-out":
        outputs = ["--out", str(tmp_path / "r.json"), "--series-out", bad]
    source = "--recipe" if command == "synth" else "--synth"
    assert run_cli(command, source, recipe_path, *outputs) == 1
    assert capsys.readouterr().err == f"error: cannot write {bad}: its directory does not exist\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["drift.json"]


@pytest.mark.parametrize("edge", ["smallest", "largest"])
@pytest.mark.parametrize("protocol", ["batchwise", "foldwise"])
def test_every_value_the_parser_accepts_builds_the_configs(edge, protocol):
    # So no argument can pass the parser and then fail a library config
    # check, which would exit 1.
    values = {
        "smallest": ["--epochs", "1", "--minibatch", "1", "--lambda", "0", "--learning-rate",
                     "5e-324", "--hidden", "1", "--val-fraction", "5e-324", "--seed", "0",
                     "--values", "0", "--batches", "1", "--folds", "2", "--repetitions", "1",
                     "--jobs", "1"],
        "largest": ["--epochs", "1000000", "--minibatch", "1000000", "--lambda", "1.7e308",
                    "--learning-rate", "1.7e308", "--hidden", "--val-fraction",
                    "0.9999999999999999", "--seed", str(2 ** 64), "--values", "1.7e308",
                    "--batches", "1000000", "--folds", "1000000", "--repetitions", "1000000",
                    "--jobs", "1000000"],
    }[edge]
    args = build_parser().parse_args(["sweep", "--synth", "drift.json", "--out", "r.json",
                                      "--protocol", protocol, *values])
    train_config(args, "c3")
    protocol_spec(args)
    model_spec(args, 1, 2)


def kill_this_process(task):
    """A sweep task that kills the worker running it (module level, so the
    pool can send it by name)."""
    os.kill(os.getpid(), signal.SIGKILL)


HUGE = str(10**15)


@pytest.mark.parametrize("argv", [
    ["train", "--synth", "{recipe}", "--samples-per-batch", HUGE, "--out", "{out}"],
    ["sweep", "--synth", "{recipe}", "--samples", HUGE, "--out", "{out}"],
    ["synth", "--recipe", "{recipe}", "--samples-per-batch", HUGE, "--out", "{out}"],
], ids=["train", "sweep", "synth"])
def test_out_of_memory_exits_1_with_one_line(argv, recipe_path, tmp_path):
    # A fresh interpreter with its own address space capped at 4 GB, so the
    # allocation fails in it whatever the host's memory.
    argv = [a.format(recipe=recipe_path, out=tmp_path / "out") for a in argv]
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 4_000_000_000 if hard == resource.RLIM_INFINITY else min(hard, 4_000_000_000)
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {hard}))\n"
        "from fishershift.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 1
    (line,) = done.stderr.splitlines()
    assert line.startswith(f"error: {argv[0]} ran out of memory. Unable to allocate ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["drift.json"]


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

    def test_samples_per_batch_is_not_a_sweep_flag(self, recipe_path, tmp_path, capsys):
        # sweep sizes its data by --samples alone.
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--synth", recipe_path, "--samples-per-batch", "7",
                    "--out", str(tmp_path / "r.json"))
        assert exc.value.code == 2
        assert "--samples-per-batch" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--protocol", "foldwise", "--folds", "3", "--samples", "-100"),
        ("--batches", "2", "--samples", "0"),
    ], ids=["negative-foldwise", "zero-batchwise"])
    def test_too_few_samples_exit_2(self, recipe_path, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--synth", recipe_path, *flags, "--out", str(tmp_path / "r.json"))
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_empty_values_exit_2(self, recipe_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--synth", recipe_path, "--values", "",
                    "--out", str(tmp_path / "r.json"))
        assert exc.value.code == 2
        assert "--values" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_diverging_sweep_exits_1_with_one_line_at_any_jobs(self, tmp_path, jobs):
        # One map runs every split's tasks; a task that raises fails the sweep
        # with the worker's error, and the pool is gone when main returns. A
        # subprocess, so numpy's floating-point warnings would reach stderr.
        recipe = tmp_path / "drift2.json"
        recipe.write_text(json.dumps(dataclasses.asdict(fishershift.drift_benchmark_recipe(2))))
        out = tmp_path / "report.json"
        argv = ["sweep", "--synth", str(recipe), "--optimizer", "sgd", "--learning-rate", "0.5",
                "--values", "0,0.1,1e300", "--repetitions", "2", "--samples", "400",
                "--epochs", "2", "--jobs", jobs, "--out", str(out)]
        script = (
            "import multiprocessing\n"
            "from fishershift.cli import main\n"
            f"print(main({argv!r}), multiprocessing.active_children())\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert (done.stdout, done.stderr) == ("1 []\n", "error: non-finite cross-entropy loss\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["drift2.json"]

    def test_a_worker_that_dies_exits_1_with_one_line(self, recipe_path, tmp_path, monkeypatch,
                                                      capsys):
        # Each forked worker kills itself, as an out-of-memory kill would. The
        # pool ends the other worker, and the sweep fails with one line,
        # writes no report and leaves no child process.
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(bench, "_run_reps", kill_this_process)
        code = run_cli(
            "sweep", "--synth", recipe_path, "--values", "0.1", "--batches", "2",
            "--repetitions", "2", "--epochs", "1", "--samples", "120", "--jobs", "2",
            "--out", str(tmp_path / "report.json"),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: a sweep worker process ended abruptly (killed, or out of memory)\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["drift.json"]
        assert multiprocessing.active_children() == []

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

    def test_failed_write_leaves_earlier_csv_intact(self, recipe_path, tmp_path, monkeypatch,
                                                    capsys):
        out = tmp_path / "data.csv"
        argv = ["synth", "--recipe", recipe_path, "--samples-per-batch", "30", "--out", str(out)]
        assert run_cli(*argv, "--seed", "1") == 0
        earlier = out.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        capsys.readouterr()
        assert run_cli(*argv, "--seed", "2") == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert out.read_bytes() == earlier
        assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("recipe, message", MALFORMED_RECIPES.values(),
                         ids=MALFORMED_RECIPES.keys())
@pytest.mark.parametrize("command", ["train", "synth", "sweep"])
def test_malformed_recipe_exits_1_with_one_line(command, recipe, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(recipe))
    flag = "--recipe" if command == "synth" else "--synth"
    assert run_cli(command, flag, str(path), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag", [("train", "--synth"), ("synth", "--recipe"),
                                           ("sweep", "--synth"), ("report", "--in")])
def test_input_that_is_not_json_exits_1_with_one_line(command, flag, tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("garbage")
    argv = [command, flag, str(path)] + ([] if command == "report" else ["--out", str(tmp_path / "out")])
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid JSON (") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_shuffle_auto_keeps_recipe_order_and_shuffles_datasets(recipe_path, tmp_path):
    runs = {
        "train-recipe": ["train", "--synth", recipe_path, "--samples-per-batch", "60"],
        "train-csv": ["train", "--csv", write_csv_source(tmp_path / "data.csv")],
        "sweep-recipe": ["sweep", "--synth", recipe_path, "--values", "0.1", "--repetitions",
                         "1", "--samples", "200", "--learning-rate", "0.15"],
    }
    out = {}
    for name, argv in runs.items():
        for choice in ("auto", "on", "off"):
            path = tmp_path / f"{name}-{choice}.json"
            assert run_cli(*argv, "--batches", "2", "--epochs", "2", "--shuffle", choice,
                           "--out", str(path)) == 0
            out[name, choice] = path.read_bytes()
    for name, same in (("train-recipe", "off"), ("train-csv", "on"), ("sweep-recipe", "off")):
        other = "on" if same == "off" else "off"
        assert out[name, "auto"] == out[name, same] != out[name, other]


ROW_0 = "Training data = 50% , batches = 2"


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

    def test_report_with_a_delta2_exits_1_with_one_line(self, recipe_path, tmp_path, capsys):
        # No reference accuracy is stored anywhere, so a delta2 cannot be
        # recomputed; rendering it would print a number nothing checked.
        def edit(payload):
            payload["rows"][0]["delta2"] = 5.0

        bad = self.tampered(recipe_path, tmp_path, edit)
        capsys.readouterr()
        assert run_cli("report", "--in", bad) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: Training data = 50% , batches = 2 | lambda=0.1: delta2 must be null: "
            "no reference accuracy is stored to check it against\n"
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.pop("rows"), "report: missing key 'rows'"),
            (lambda p: p.update(rows={"0": {}}), "report: 'rows' must be a list"),
            (lambda p: p["rows"][0].pop("mean"), "report row 0: missing key 'mean'"),
            # "\ud800" is valid JSON; json.loads reads it as a lone surrogate,
            # which neither a UTF-8 file nor stdout can hold.
            (lambda p: p["rows"][0].update(label="x\ud800"),
             "report row 0: 'label' must be a string that UTF-8 can encode"),
            (lambda p: p["rows"][0].update(fraction=float("nan")),
             f"{ROW_0} | lambda=0.1: fraction must hold finite numbers"),
            (lambda p: p["rows"][0]["final_acc"].update(c3=float("inf")),
             f"{ROW_0} | lambda=0.1: final_acc must hold finite numbers"),
            (lambda p: p["rows"][0].update({"lambda": -0.5}),
             f"{ROW_0} | lambda=-0.5: lambda must be a finite number >= 0"),
        ],
        ids=["rows_missing", "rows_not_list", "row_without_mean", "label_surrogate",
             "nan_fraction", "inf_final_acc", "negative_lambda"],
    )
    def test_malformed_report_exits_1_with_one_line(
        self, recipe_path, tmp_path, capsys, edit, message
    ):
        bad = self.tampered(recipe_path, tmp_path, edit)
        capsys.readouterr()
        assert run_cli("report", "--in", bad) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_row_without_batches_exits_1_with_one_line(self, recipe_path, tmp_path):
        def edit(payload):
            row = payload["rows"][0]
            row["batch_count"] = 0
            row["batch_acc"] = {mode: [] for mode in row["batch_acc"]}

        bad = self.tampered(recipe_path, tmp_path, edit)
        # A subprocess, so a numpy warning about an empty mean would reach stderr.
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run(
            [sys.executable, "-m", "fishershift.cli", "report", "--in", bad],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "error: Training data = 50% , batches = 2: batch_count must be >= 1, got 0"
        ]

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
        # A default that is None is computed elsewhere; the help says how.
        assert "(default: None)" not in text

    def test_documented_defaults(self, capsys):
        for sub, token in (("train", "0.1"), ("train", "10"), ("train", "32"),
                           ("sweep", "5")):
            with pytest.raises(SystemExit):
                run_cli(sub, "--help")
            assert token in capsys.readouterr().out
