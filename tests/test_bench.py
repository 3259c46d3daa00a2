import concurrent.futures
import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import fishershift.bench as bench
from fishershift import trainer
from fishershift.bench import (
    BATCHWISE_GRID,
    BenchError,
    ExperimentReport,
    LAMBDA_GRID,
    ProtocolSpec,
    ReportRow,
    batchwise_split,
    delta_value,
    derive_seed,
    drift_benchmark_config,
    drift_benchmark_recipe,
    emit_report,
    emit_series_csv,
    format_delta,
    lambda_sweep,
    population_variance,
    tabular_spec,
    verify_report,
)
from fishershift.cli import main
from fishershift.data import ShiftRecipe, synth_shift
from fishershift.numerics import MlpSpec, OptimizerConfig, canonical_json, parse_json
from fishershift.penalty import PenaltyConfig
from fishershift.trainer import TrainConfig, shift_correction

RECIPE = ShiftRecipe(kind="mean_drift", batch_count=2, features=4, classes=2, delta=0.5)


def small_config(lam=0.1, seed=0):
    return TrainConfig(
        epochs=2,
        minibatch_size=32,
        optimizer=OptimizerConfig(learning_rate=0.05),
        penalty=PenaltyConfig(lam=lam),
        seed=seed,
    )


def small_protocol(**kw):
    defaults = dict(splits=((0.5, 2),), repetitions=2)
    defaults.update(kw)
    return ProtocolSpec(**defaults)


@pytest.fixture(scope="module")
def small_report():
    return lambda_sweep(
        RECIPE, (0.1,), small_protocol(), small_config(), tabular_spec(4), samples=400
    )


class TestProtocolSpec:
    def test_stock_grid_is_valid(self):
        ProtocolSpec(splits=BATCHWISE_GRID)
        assert LAMBDA_GRID == (0.01, 0.04, 0.07, 0.1)

    def test_grid_fractions_consistent_with_batch_counts(self):
        for fraction, k in BATCHWISE_GRID:
            assert abs(fraction - 1.0 / k) <= 0.025 + 1e-12

    def test_inconsistent_split_rejected(self):
        with pytest.raises(BenchError, match="inconsistent"):
            ProtocolSpec(splits=((0.5, 5),))

    def test_nan_split_fraction_rejected_before_any_work(self, monkeypatch):
        # NaN fails every comparison, so only a test that NaN cannot pass
        # rejects it; else the sweep trains and writes a NaN fraction.
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(bench, "_run_reps", no_work)
        with pytest.raises(BenchError, match="split fraction nan inconsistent with batch count 2"):
            lambda_sweep(RECIPE, (0.1,), small_protocol(splits=((math.nan, 2),)),
                         small_config(), tabular_spec(4))

    def test_bad_mode_rejected(self):
        with pytest.raises(BenchError, match="mode"):
            ProtocolSpec(mode="diagonal")

    def test_zero_repetitions_rejected(self):
        with pytest.raises(BenchError, match="repetitions"):
            ProtocolSpec(repetitions=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, math.nan])
    @pytest.mark.parametrize("mode", ["batchwise", "foldwise"])
    def test_validation_fraction_outside_unit_interval_rejected(self, mode, fraction):
        with pytest.raises(BenchError, match=r"validation_fraction must lie in \(0, 1\)"):
            ProtocolSpec(mode=mode, validation_fraction=fraction)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = derive_seed(7, "batchwise:0.5:2", 0)
        assert a == derive_seed(7, "batchwise:0.5:2", 0)
        assert a != derive_seed(7, "batchwise:0.5:2", 1)
        assert a != derive_seed(8, "batchwise:0.5:2", 0)
        assert a != derive_seed(7, "batchwise:0.25:4", 0)

    def test_seed_fits_numpy_generator(self):
        seed = derive_seed(0, "x", 0)
        np.random.default_rng(seed)


class TestDeltas:
    def test_table_arithmetic(self):
        assert delta_value(97.9, 94.8) == pytest.approx(3.1, abs=1e-9)
        assert delta_value(91.2, 88.7) == pytest.approx(2.5, abs=1e-9)

    def test_format_arrows(self):
        assert format_delta(2.5) == "↑ 2.5"
        assert format_delta(-0.1) == "↓ 0.1"
        assert format_delta(0.0) == "0"
        assert format_delta(None) == ""

    def test_population_variance(self):
        # Matches a row where the listed variance of the batch accuracies is
        # the K-denominator variance.
        accs = [90.7, 90.6, 91.0, 91.7, 91.4, 91.8]
        assert population_variance(accs) == pytest.approx(np.var(accs), abs=1e-12)


class TestRunProtocol:
    """A protocol run at one penalty strength: a one-point lambda grid."""

    def test_report_structure_and_consistency(self, small_report):
        assert len(small_report.rows) == 1
        row = small_report.rows[0]
        assert row.batch_count == 2
        assert len(row.batch_acc["c3"]) == 2
        assert len(row.seeds) == 2
        verify_report(small_report)

    def test_zero_lambda_collapses_delta3(self):
        report = lambda_sweep(
            RECIPE, (0.0,), small_protocol(repetitions=1), small_config(), tabular_spec(4),
            samples=400,
        )
        row = report.rows[0]
        assert row.batch_acc["c3"] == row.batch_acc["cv_sequential"]
        assert row.delta3 == 0.0

    def test_reproducible_bit_for_bit(self):
        args = RECIPE, (0.1,), small_protocol(), small_config(), tabular_spec(4)
        a = lambda_sweep(*args, samples=400)
        b = lambda_sweep(*args, samples=400)
        assert a.to_json() == b.to_json()

    def test_parallel_jobs_match_serial(self, small_report):
        parallel = lambda_sweep(
            RECIPE, (0.1,), small_protocol(), small_config(), tabular_spec(4), samples=400,
            jobs=2,
        )
        assert parallel.to_json() == small_report.to_json()

    def test_delta2_absent_without_reference(self, small_report):
        assert small_report.rows[0].delta2 is None

    def test_one_point_series_is_the_row_mean(self, small_report):
        row = small_report.rows[0]
        assert small_report.lambda_series == ((0.1, row.mean["c3"]),)

    @pytest.mark.parametrize(
        "proto", [small_protocol(), ProtocolSpec(mode="foldwise", folds=3, repetitions=1)],
        ids=["batchwise", "foldwise"],
    )
    def test_too_few_samples_per_batch_rejected(self, proto):
        with pytest.raises(BenchError, match="samples 3 gives fewer than 2 rows"):
            lambda_sweep(RECIPE, (0.1,), proto, small_config(), tabular_spec(4), samples=3)

    def test_infeasible_split_raises(self):
        proto = small_protocol(splits=((0.05, 20),))
        with pytest.raises(Exception):
            lambda_sweep(RECIPE, (0.1,), proto, small_config(), tabular_spec(4), samples=20)


class TestBatchwiseSplit:
    def test_overlapping_holdout_rows_are_rejected(self, monkeypatch):
        # A split that handed back a holdout row among the training rows
        # would bias the validation accuracy, so batchwise_split refuses it.
        split = bench.train_validation_split

        def overlapping(dataset, *args, **kwargs):
            train, val, train_idx, val_idx = split(dataset, *args, **kwargs)
            return train, val, train_idx, np.append(val_idx, train_idx[-1])

        monkeypatch.setattr(bench, "train_validation_split", overlapping)
        with pytest.raises(BenchError, match="^validation rows overlap the training rows$"):
            batchwise_split(RECIPE, 2, 50, 0.2, None, 0)


class TestFoldwise:
    def test_five_rotations_cover_dataset_once(self):
        proto = ProtocolSpec(mode="foldwise", folds=5, repetitions=1)
        report = lambda_sweep(RECIPE, (0.1,), proto, small_config(), tabular_spec(4),
                              samples=500)
        row = report.rows[0]
        assert row.batch_count == 4  # k - 1 causal batches per rotation
        assert len(row.batch_acc["c3"]) == 4
        verify_report(report)

    def test_fold_partition(self):
        # Folds are produced by the standard fragmentation, whose partition
        # property is tested there; here check the foldwise label and shape.
        proto = ProtocolSpec(mode="foldwise", folds=3, repetitions=1)
        report = lambda_sweep(RECIPE, (0.1,), proto, small_config(), tabular_spec(4),
                              samples=300)
        assert report.rows[0].label == "Foldwise k = 3"

    def test_foldwise_row_matches_manual_rotation_loop(self):
        # Recompute one foldwise cell by hand: every fold is held out exactly
        # once and the reported columns are the rotation averages.
        from dataclasses import replace as dc_replace

        import fishershift.bench as bench
        from fishershift.data import FragmentationPlan, fragment, synth_shift
        from fishershift.trainer import shift_correction

        folds = 3
        cfg = small_config()
        proto = ProtocolSpec(mode="foldwise", folds=folds, repetitions=1)
        report = lambda_sweep(RECIPE, (0.1,), proto, cfg, tabular_spec(4), samples=300)
        row = report.rows[0]

        seed = bench.derive_seed(cfg.seed, f"foldwise:None:{folds - 1}", 0)
        ds, _ = synth_shift(dc_replace(RECIPE, batch_count=folds), 300 // folds, seed=seed)
        fold_plan = fragment(ds, folds)
        sums = np.zeros(folds - 1)
        held_out = []
        for rot in range(folds):
            held_out.append(np.r_[fold_plan.batch(rot)])
            val = ds.subset(fold_plan.batch(rot))
            others = [i for i in range(folds) if i != rot]
            train = ds.subset(np.r_[tuple(fold_plan.batch(i) for i in others)])
            plan = FragmentationPlan(tuple(fold_plan.sizes[i] for i in others))
            run_cfg = dc_replace(cfg, seed=seed, baseline_mode="c3")
            trace = shift_correction(train, val, plan, tabular_spec(4), run_cfg)
            sums += np.asarray(trace.per_batch_accuracies()) * 100.0
        covered = np.sort(np.concatenate(held_out))
        assert np.array_equal(covered, np.arange(ds.n))  # each row held out once
        assert np.allclose(np.asarray(row.batch_acc["c3"]), sums / folds, atol=1e-12)


class TestLambdaSweep:
    def test_one_row_per_lambda_and_series(self):
        report = lambda_sweep(
            RECIPE, (0.0, 0.1), small_protocol(), small_config(), tabular_spec(4), samples=400
        )
        assert len(report.rows) == 2
        assert [lam for lam, _ in report.lambda_series] == [0.0, 0.1]
        verify_report(report)

    def test_zero_lambda_row_equals_baseline(self):
        report = lambda_sweep(
            RECIPE, (0.0,), small_protocol(repetitions=1), small_config(), tabular_spec(4),
            samples=400,
        )
        row = report.rows[0]
        assert row.mean["c3"] == pytest.approx(row.mean["cv_sequential"], abs=1e-12)

    def test_duplicate_values_give_identical_rows(self):
        report = lambda_sweep(
            RECIPE, (0.1, 0.1), small_protocol(repetitions=1), small_config(), tabular_spec(4),
            samples=400,
        )
        a, b = report.rows
        assert a.batch_acc == b.batch_acc
        assert report.lambda_series[0][1] == report.lambda_series[1][1]

    def test_empty_values_rejected(self):
        with pytest.raises(BenchError, match="at least one value"):
            lambda_sweep(RECIPE, (), small_protocol(), small_config(), tabular_spec(4))

    def test_negative_lambda_rejected(self):
        with pytest.raises(BenchError, match=">= 0"):
            lambda_sweep(RECIPE, (-0.1,), small_protocol(), small_config(), tabular_spec(4))

    @pytest.mark.parametrize("jobs, values, message", [
        (0, (0.1,), "jobs must be >= 1"),
        (-1, (0.1,), "jobs must be >= 1"),
        # inf and NaN both pass a `v < 0` test; caught only by PenaltyConfig,
        # they would stop the sweep after cv_independent had trained.
        (1, (0.1, math.inf), "lambda values must be finite and >= 0"),
        (1, (math.nan,), "lambda values must be finite and >= 0"),
    ], ids=["0-lambda_sweep", "-1-lambda_sweep", "inf-lambda_sweep", "nan-lambda_sweep"])
    def test_jobs_below_one_rejected_before_any_work(self, monkeypatch, jobs, values, message):
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(bench, "_run_reps", no_work)
        with pytest.raises(BenchError, match=message):
            lambda_sweep(RECIPE, values, small_protocol(), small_config(), tabular_spec(4),
                         jobs=jobs)

    @pytest.mark.parametrize("proto", [
        small_protocol(), ProtocolSpec(mode="foldwise", folds=3, repetitions=1),
    ], ids=["batchwise", "foldwise"])
    def test_unsupported_source_rejected(self, proto):
        with pytest.raises(BenchError, match="unsupported data source str"):
            lambda_sweep("drift.json", (0.1,), proto, small_config(), tabular_spec(4))

    def test_default_grid_comes_from_protocol(self):
        report = lambda_sweep(
            RECIPE, None, small_protocol(repetitions=1), small_config(), tabular_spec(4),
            samples=400,
        )
        assert [row.lam for row in report.rows] == list(LAMBDA_GRID)


class TestSharedBaselines:
    """A sweep trains each baseline once per (split, repetition)."""

    LAMBDAS = (0.0, 0.05, 0.1)

    def count_trainings(self, monkeypatch):
        """The configs of each training call: one for ``shift_correction``,
        one per member for a stacked ``train_members``."""
        calls = []
        real_single, real_stack = bench.shift_correction, bench.train_members

        def single(*args, **kwargs):
            calls.append((args[4],))
            return real_single(*args, **kwargs)

        def stacked(*args, **kwargs):
            calls.append(tuple(run.cfg for run in args[0]))
            return real_stack(*args, **kwargs)

        monkeypatch.setattr(bench, "shift_correction", single)
        monkeypatch.setattr(bench, "train_members", stacked)
        return calls

    @pytest.mark.parametrize(
        "proto, splits, rotations",
        [
            (small_protocol(splits=((0.5, 2), (0.25, 4))), 2, 1),
            (ProtocolSpec(mode="foldwise", folds=3, repetitions=2), 1, 3),
        ],
        ids=["batchwise", "foldwise"],
    )
    def test_one_training_per_distinct_run(self, monkeypatch, proto, splits, rotations):
        calls = self.count_trainings(monkeypatch)
        cfg = small_config()
        report = lambda_sweep(
            RECIPE, self.LAMBDAS, proto, cfg, tabular_spec(4), samples=400
        )
        # Per split: cv_independent alone for every (repetition, fold
        # rotation), then cv_sequential and one c3 per lambda of all of them
        # as one stack.
        units = proto.repetitions * rotations
        assert [len(call) for call in calls] == splits * (
            [1] * units + [units * (len(self.LAMBDAS) + 1)]
        )
        configs = [cfg for call in calls for cfg in call]
        assert len(configs) == units * splits * (len(self.LAMBDAS) + 2)
        monkeypatch.undo()

        for lam in self.LAMBDAS:
            single = lambda_sweep(RECIPE, (lam,), proto, cfg, tabular_spec(4), samples=400)
            swept = [row for row in report.rows if row.lam == lam]
            assert len(swept) == len(single.rows)
            for a, b in zip(swept, single.rows):
                # Every column, the shared baseline ones included, bit for bit.
                assert a.to_json_dict() == b.to_json_dict()

    def test_duplicate_lambdas_train_once(self, monkeypatch):
        calls = self.count_trainings(monkeypatch)
        lambda_sweep(
            RECIPE, (0.1, 0.1), small_protocol(repetitions=1), small_config(), tabular_spec(4),
            samples=400,
        )
        configs = [cfg for call in calls for cfg in call]
        assert len(configs) == 1 * 1 * (1 + 2)
        assert len(set(configs)) == len(configs)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_repetition_chunks_give_the_serial_report(self, jobs):
        args = (RECIPE, self.LAMBDAS, small_protocol(repetitions=3), small_config(),
                tabular_spec(4))
        serial = lambda_sweep(*args, samples=400)
        chunked = lambda_sweep(*args, samples=400, jobs=jobs)
        assert chunked.to_json() == serial.to_json()

    def test_chunks_cut_repetitions_in_order(self):
        seeds = [11, 12, 13, 14, 15]
        assert bench._chunks(seeds, 1) == [seeds]
        assert bench._chunks(seeds, 2) == [[11, 12, 13], [14, 15]]
        assert bench._chunks(seeds, 9) == [[s] for s in seeds]

    @pytest.mark.parametrize("cut", ["one_per_repetition", "one_for_all"])
    @pytest.mark.parametrize("proto", [
        small_protocol(splits=((0.5, 2), (0.25, 4)), repetitions=3),
        ProtocolSpec(mode="foldwise", folds=3, repetitions=3),
    ], ids=["batchwise", "foldwise"])
    def test_the_report_does_not_depend_on_the_chunk_cut(self, monkeypatch, proto, cut):
        # Whichever stacks the repetitions of a split train in, one task
        # each or all in one, the report bytes are those of the default cut.
        args = (RECIPE, self.LAMBDAS, proto, small_config(), tabular_spec(4))
        default = lambda_sweep(*args, samples=400, jobs=1)
        monkeypatch.setattr(bench, "_chunks", {
            "one_per_repetition": lambda seeds, jobs: [[seed] for seed in seeds],
            "one_for_all": lambda seeds, jobs: [seeds],
        }[cut])
        assert lambda_sweep(*args, samples=400, jobs=1).to_json() == default.to_json()

    @pytest.mark.parametrize("proto", [
        small_protocol(splits=((0.5, 2), (0.25, 4)), repetitions=2),
        ProtocolSpec(mode="foldwise", folds=3, repetitions=2),
    ], ids=["batchwise", "foldwise"])
    def test_the_report_does_not_depend_on_the_table_order(self, monkeypatch, proto):
        # Rows read the outcome table by run key, (mode, lambda), so a table
        # that lists its runs in another order gives the same bytes; the
        # grid repeats a lambda and holds lambda 0, the baselines' key.
        args = (RECIPE, (0.1, 0.0, 0.05, 0.1), proto, small_config(), tabular_spec(4))
        default = lambda_sweep(*args, samples=400)
        run_reps = bench._run_reps
        monkeypatch.setattr(bench, "_run_reps", lambda task: dict(reversed(run_reps(task).items())))
        assert lambda_sweep(*args, samples=400).to_json() == default.to_json()

    @pytest.mark.parametrize("splits, repetitions, jobs, cpus, workers, tasks", [
        (((0.5, 2),), 2, 8, 8, [2], [2]),
        (((0.5, 2), (0.25, 4)), 3, 2, 2, [2], [4]),
        (((0.5, 2),), 1, 4, 4, [], []),
        (((0.5, 2),), 3, 3, 2, [2], [2]),
    ], ids=["2reps-jobs8", "2splits-jobs2", "1task-jobs4", "jobs3-2cpus"])
    def test_one_map_over_every_split_and_no_surplus_worker(
        self, monkeypatch, splits, repetitions, jobs, cpus, workers, tasks
    ):
        # An executor that records what it is asked for and runs map inline,
        # so no process starts. A pool forks all its workers at once, so it
        # asks for no more than there are (split, chunk) tasks or usable CPUs
        # (pinned here, so the host's count does not matter), and one task
        # runs without a pool.
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: cpus)
        asked, mapped = [], []

        class InlinePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, items):
                items = list(items)
                mapped.append(len(items))
                return map(fn, items)

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        args = (RECIPE, (0.1,), small_protocol(splits=splits, repetitions=repetitions),
                small_config(), tabular_spec(4))
        report = lambda_sweep(*args, samples=400, jobs=jobs)
        assert (asked, mapped) == (workers, tasks)
        assert report.to_json() == lambda_sweep(*args, samples=400).to_json()

    def test_duplicate_splits_rejected(self):
        with pytest.raises(BenchError, match="distinct"):
            ProtocolSpec(splits=((0.5, 2), (0.5, 2)))


class TestPinnedReports:
    """Report bytes of grids the golden sweep cannot see: many repetitions,
    many foldwise rotations, several splits and duplicate lambdas. Averages
    over splits add them one at a time, in order, and the final accuracy
    over repetitions is a 1-D mean; another reduction order changes these
    digests."""

    RECIPE = drift_benchmark_recipe(3)
    CONFIG = replace(drift_benchmark_config(0.1, seed=3), epochs=2)

    @pytest.mark.parametrize(
        "proto, lambdas, jobs, digest",
        [
            (ProtocolSpec(mode="foldwise", folds=9, repetitions=9), (0.0, 0.05, 0.05, 0.1), 1,
             "0d7b01a090ba973dead16e08e25fd27076932b113de58ce231dbf29df67449b5"),
            (ProtocolSpec(splits=((0.5, 2), (0.25, 4), (0.1, 10)), repetitions=10),
             (0.1, 0.0, 0.1), 1,
             "29d7dfd4dd2d04f8129ba7e78b52ce1d188b77240ca87ddb5ad10f48993496b4"),
            (ProtocolSpec(splits=((0.5, 2), (0.25, 4), (0.1, 10)), repetitions=10),
             (0.1, 0.0, 0.1), 3,
             "29d7dfd4dd2d04f8129ba7e78b52ce1d188b77240ca87ddb5ad10f48993496b4"),
            (ProtocolSpec(mode="foldwise", folds=3, repetitions=8), (0.2,), 2,
             "d1ff02ee44173f9e8dcfb6409004aef280aa2efb71952c97ed9595b92eb16028"),
        ],
        ids=["foldwise9-jobs1", "batchwise3-jobs1", "batchwise3-jobs3", "foldwise3-jobs2"],
    )
    def test_sweep_bytes_are_pinned(self, proto, lambdas, jobs, digest):
        report = lambda_sweep(
            self.RECIPE, lambdas, proto, self.CONFIG, tabular_spec(10), samples=600, jobs=jobs
        )
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    def test_protocol_bytes_are_pinned(self):
        report = lambda_sweep(
            self.RECIPE, (0.1,), ProtocolSpec(splits=((0.5, 2),), repetitions=9), self.CONFIG,
            tabular_spec(10), samples=600,
        )
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
            "b1e5696201e77313de80e7716919941da416216adaa927d948950ef7664ead2c"
        )


class TestPinnedShuffledPaths:
    """Output bytes of the shuffled row orders: a dataset source (shuffled
    by default) under both protocols, and a train split with the shuffle
    left to the source and forced on."""

    CONFIG = replace(drift_benchmark_config(0.1, seed=3), epochs=2)

    @pytest.fixture(scope="class")
    def dataset(self):
        return synth_shift(drift_benchmark_recipe(3), 200, seed=5)[0]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "proto, digest",
        [
            (ProtocolSpec(mode="foldwise", folds=3, repetitions=3),
             "6ac3524533e836b263193896499708819e7b0a295150e7f2034ed5cad56254e2"),
            (ProtocolSpec(splits=((0.25, 4),), repetitions=3),
             "3cbb03a3dc848bcbb19da105c6b4113736857d22e45cfdacefe8ab720cdffad2"),
        ],
        ids=["foldwise3", "batchwise4"],
    )
    def test_dataset_sweep_bytes_are_pinned(self, dataset, proto, digest, jobs):
        report = lambda_sweep(dataset, (0.0, 0.1), proto, self.CONFIG, tabular_spec(10),
                                 jobs=jobs)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "recipe_source, k, samples, shuffle, digest",
        [
            (False, 4, 0, None,
             "568a0ad5649b895eb6ecfbc36e91d14035923e313c67c3dcf7bbc0ad91db16e1"),
            (True, 3, 200, True,
             "a482d019e93ca3d3960f21e153b9599302271fd5ddc2a835c21c7484fd9e5d62"),
        ],
        ids=["dataset-auto", "recipe-on"],
    )
    def test_shuffled_train_trace_bytes_are_pinned(self, dataset, recipe_source, k, samples,
                                                  shuffle, digest):
        source = drift_benchmark_recipe(3) if recipe_source else dataset
        train, val, plan = batchwise_split(source, k, samples, 0.2, shuffle, 3)
        trace = shift_correction(train, val, plan, tabular_spec(10), self.CONFIG)
        assert hashlib.sha256(trace.to_json().encode()).hexdigest() == digest


class TestEmission:
    def test_json_round_trip_is_byte_identical(self, small_report):
        text = emit_report(small_report, "json")
        back = ExperimentReport.from_json_dict(parse_json(text, "report", BenchError))
        assert emit_report(back, "json") == text

    def test_markdown_contains_table_columns(self, small_report):
        md = emit_report(small_report, "markdown")
        assert "Δ₃" in md
        assert "μ" in md
        assert "| B1 | B2 |" in md
        assert "Training data = 50% , batches = 2" in md

    def test_markdown_arrow_cells(self, small_report):
        md = emit_report(small_report, "markdown")
        row = small_report.rows[0]
        assert format_delta(row.delta3) in md

    def test_csv_has_config_metric_value_rows(self, small_report):
        text = emit_report(small_report, "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "config,metric,value"
        assert any("c3.B1" in line for line in lines)

    def test_series_csv(self):
        text = emit_series_csv(((0.01, 75.0), (0.1, 78.5)))
        lines = text.strip().splitlines()
        assert lines[0] == "lambda,mean_accuracy"
        assert len(lines) == 3

    def test_null_delta2_leaves_its_cells_empty(self, small_report):
        lines = emit_report(small_report, "csv").splitlines()
        assert not any(",delta2," in line for line in lines)
        c3 = next(line for line in emit_report(small_report, "markdown").splitlines()
                  if line.startswith("| c3 |"))
        delta1, delta2, delta3 = c3.split(" | ")[-3:]
        assert delta2 == ""
        assert delta1 == format_delta(small_report.rows[0].delta1)

    def test_delta2_read_from_a_file_is_rendered(self, small_report):
        payload = small_report.to_json_dict()
        payload["rows"][0]["delta2"] = -2.5
        report = ExperimentReport.from_json_dict(payload)
        assert report.rows[0].delta2 == -2.5
        assert '"Training data = 50% , batches = 2 | lambda=0.1",delta2,-2.5' in (
            emit_report(report, "csv").splitlines()
        )
        c3 = next(line for line in emit_report(report, "markdown").splitlines()
                  if line.startswith("| c3 |"))
        assert c3.split(" | ")[-2] == "↓ 2.5"

    def test_unknown_format_rejected(self, small_report):
        with pytest.raises(BenchError, match="format"):
            emit_report(small_report, "xml")


class TestSkippedKey:
    """No sweep skips a row: reports write ``"skipped": false``, and a row
    read from a file that says otherwise holds no outcomes to render."""

    def test_rows_write_skipped_false(self, small_report):
        assert small_report.to_json_dict()["rows"][0]["skipped"] is False

    def test_row_without_the_key_parses(self, small_report):
        payload = small_report.to_json_dict()
        del payload["rows"][0]["skipped"]
        assert ExperimentReport.from_json_dict(payload).to_json() == small_report.to_json()

    def test_skipped_row_exits_1_with_one_line(self, small_report, tmp_path, capsys):
        payload = small_report.to_json_dict()
        payload["rows"][0]["skipped"] = True
        path = tmp_path / "report.json"
        path.write_text(canonical_json(payload))
        assert main(["report", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: report row 0: a skipped row holds no outcomes to report\n"


class TestConfigHash:
    """The row's ``config_hash`` tells architectures apart, activations
    included; an all-relu spec keeps the hash it had before activations
    were hashed."""

    KEY = "batchwise:0.5:2"

    @pytest.mark.parametrize("hidden, digest", [
        (((4, "relu"),), "d5f7eeb93bce"),
        ((), "d48b29bb78a5"),
    ], ids=["relu", "linear"])
    def test_relu_and_linear_hashes_are_pinned(self, hidden, digest):
        assert bench._config_hash(self.KEY, small_config(), MlpSpec(4, hidden)) == digest

    def test_activation_changes_the_hash(self):
        hashes = {
            bench._config_hash(self.KEY, small_config(), MlpSpec(4, hidden))
            for hidden in (((4, "relu"),), ((4, "identity"),),
                           ((3, "relu"), (2, "identity")), ((3, "identity"), (2, "relu")))
        }
        assert len(hashes) == 4


class TestVerifier:
    def test_detects_tampered_mean(self, small_report):
        row = small_report.rows[0]
        tampered = ReportRow.from_json_dict(
            {**row.to_json_dict(), "mean": {**row.mean, "c3": row.mean["c3"] + 1.0}}
        )
        bad = ExperimentReport(base_seed=0, rows=(tampered,))
        with pytest.raises(BenchError, match="mean"):
            verify_report(bad)

    def test_detects_tampered_lambda_series(self):
        report = lambda_sweep(
            RECIPE, (0.0, 0.1), small_protocol(repetitions=1), small_config(), tabular_spec(4),
            samples=400,
        )
        verify_report(report)
        payload = report.to_json_dict()
        payload["lambda_series"][0][1] += 5.0
        with pytest.raises(BenchError, match="lambda series"):
            verify_report(ExperimentReport.from_json_dict(payload))
        series = report.lambda_series
        for bad in (series[:1], series[::-1], series + series[:1]):
            with pytest.raises(BenchError, match="lambda series"):
                verify_report(replace(report, lambda_series=bad))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r["mean"].update(c3=float("nan")), "stored mean for c3"),
            (lambda r: r["batch_acc"].pop("cv_sequential"), "batch_acc must hold exactly"),
            (lambda r: r["batch_acc"]["c3"].append(50.0), "c3 holds 3 batch accuracies"),
            (lambda r: r.update(delta1=None), "stored delta1"),
            (lambda r: r["mean"].update(c3=10**400), "stored mean for c3"),
            (lambda r: r.update(delta3=-math.inf), "stored delta3"),
            # json.loads reads NaN, Infinity and integers of any size.
            (lambda r: r.update(fraction=math.nan), "lambda=0.1: fraction must hold finite"),
            (lambda r: r["final_acc"].update(c3=math.inf), "final_acc must hold finite"),
            (lambda r: r["batch_acc"].update(c3=[50.0, -math.inf]), "batch_acc must hold finite"),
            (lambda r: r["batch_acc"].update(c3=[10**400, 50.0]), "batch_acc must hold finite"),
            (lambda r: r.update({"lambda": -0.5}), "lambda=-0.5: lambda must be a finite number"),
            (lambda r: r.update({"lambda": math.inf}), "lambda must be a finite number >= 0"),
        ],
        ids=["nan_mean", "missing_mode", "extra_batch", "null_delta", "huge_mean", "inf_delta",
             "nan_fraction", "inf_final_acc", "-inf_batch_acc", "huge_batch_acc",
             "negative_lambda", "inf_lambda"],
    )
    def test_detects_inconsistent_row(self, small_report, edit, message):
        payload = small_report.rows[0].to_json_dict()
        edit(payload)
        tampered = ReportRow.from_json_dict(payload)
        with pytest.raises(BenchError, match=message):
            verify_report(ExperimentReport(base_seed=0, rows=(tampered,)))

    def test_tolerance_is_absolute(self, small_report):
        row = small_report.rows[0]

        def shifted(by):
            mean = {**row.mean, "c3": row.mean["c3"] + by}
            return ExperimentReport(
                base_seed=0, rows=(ReportRow.from_json_dict({**row.to_json_dict(), "mean": mean}),)
            )

        verify_report(shifted(bench.VERIFY_TOL / 2))
        with pytest.raises(BenchError, match="stored mean for c3"):
            verify_report(shifted(2 * bench.VERIFY_TOL))

    def test_detects_tampered_delta(self, small_report):
        row = small_report.rows[0]
        tampered = ReportRow.from_json_dict({**row.to_json_dict(), "delta3": 123.0})
        bad = ExperimentReport(base_seed=0, rows=(tampered,))
        with pytest.raises(BenchError, match="delta3"):
            verify_report(bad)


class TestEmptySeries:
    """A report whose ``lambda_series`` is empty, as a report read from a file
    may be, still parses, verifies and renders, without a series section."""

    def test_report_without_series_parses_verifies_and_renders(self, small_report, tmp_path,
                                                                capsys):
        assert "### λ sweep" in emit_report(small_report, "markdown")
        payload = small_report.to_json_dict()
        payload["lambda_series"] = []
        report = ExperimentReport.from_json_dict(payload)
        assert report.lambda_series == ()
        verify_report(report)
        path = tmp_path / "report.json"
        path.write_text(report.to_json())
        assert main(["report", "--in", str(path)]) == 0
        markdown = capsys.readouterr().out
        assert "### Training data = 50% , batches = 2 (λ = 0.1)" in markdown
        assert "### λ sweep" not in markdown


class TestReportParsing:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.pop("rows"), "report: missing key 'rows'"),
            (lambda p: p.update(rows="x"), "report: 'rows' must be a list"),
            (lambda p: p["rows"][0].pop("mean"), "report row 0: missing key 'mean'"),
            (lambda p: p["rows"][0].update(batch_count="2"), "'batch_count' must be an integer"),
            (lambda p: p["rows"][0]["batch_acc"].update(c3=[1, "x"]), "'batch_acc' must be"),
            (lambda p: p["rows"][0].update(skipped=0), "'skipped' must be a boolean"),
            (lambda p: p.update(lambda_series=[[0.1]]), "'lambda_series' must be"),
            (lambda p: p["rows"].append([]), "report row 1 must be a JSON object"),
        ],
    )
    def test_malformed_payload_raises_bench_error(self, small_report, edit, message):
        payload = small_report.to_json_dict()
        edit(payload)
        with pytest.raises(BenchError, match=re.escape(message)):
            ExperimentReport.from_json_dict(payload)

    def test_non_object_report_rejected(self):
        with pytest.raises(BenchError, match="JSON object"):
            ExperimentReport.from_json_dict([])
