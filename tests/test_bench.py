import itertools
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import fishershift.bench as bench
from fishershift.bench import (
    BATCHWISE_GRID,
    BenchError,
    ExperimentReport,
    LAMBDA_GRID,
    ProtocolSpec,
    ReportRow,
    delta_value,
    derive_seed,
    emit_report,
    emit_series_csv,
    format_delta,
    lambda_sweep,
    population_variance,
    recalibrated,
    run_protocol,
    tabular_spec,
    verify_report,
)
from fishershift.data import ShiftRecipe
from fishershift.numerics import OptimizerConfig
from fishershift.penalty import PenaltyConfig
from fishershift.trainer import TrainConfig

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
    return run_protocol(RECIPE, small_protocol(), small_config(), tabular_spec(4), samples=400)


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

    def test_bad_mode_rejected(self):
        with pytest.raises(BenchError, match="mode"):
            ProtocolSpec(mode="diagonal")

    def test_zero_repetitions_rejected(self):
        with pytest.raises(BenchError, match="repetitions"):
            ProtocolSpec(repetitions=0)


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


class TestRecalibrated:
    def test_effective_strength(self):
        cfg = PenaltyConfig(lam=0.1)
        assert recalibrated(cfg).lam == pytest.approx(0.1 / 1.1, abs=1e-15)

    def test_zero_stays_zero(self):
        assert recalibrated(PenaltyConfig(lam=0.0)).lam == 0.0


class TestRunProtocol:
    def test_report_structure_and_consistency(self, small_report):
        assert len(small_report.rows) == 1
        row = small_report.rows[0]
        assert row.batch_count == 2
        assert len(row.batch_acc["c3"]) == 2
        assert len(row.seeds) == 2
        verify_report(small_report)

    def test_zero_lambda_collapses_delta3(self):
        report = run_protocol(
            RECIPE, small_protocol(repetitions=1), small_config(lam=0.0),
            tabular_spec(4), samples=400,
        )
        row = report.rows[0]
        assert row.batch_acc["c3"] == row.batch_acc["cv_sequential"]
        assert row.delta3 == 0.0

    def test_reproducible_bit_for_bit(self):
        a = run_protocol(RECIPE, small_protocol(), small_config(), tabular_spec(4), samples=400)
        b = run_protocol(RECIPE, small_protocol(), small_config(), tabular_spec(4), samples=400)
        assert a.to_json() == b.to_json()

    def test_parallel_jobs_match_serial(self, small_report):
        parallel = run_protocol(
            RECIPE, small_protocol(), small_config(), tabular_spec(4), samples=400, jobs=2
        )
        assert parallel.to_json() == small_report.to_json()

    def test_reference_accuracy_fills_delta2(self):
        report = run_protocol(
            RECIPE, small_protocol(repetitions=1), small_config(), tabular_spec(4),
            samples=400, reference_accuracy=90.0,
        )
        row = report.rows[0]
        assert row.delta2 == pytest.approx(row.mean["c3"] - 90.0, abs=1e-12)

    def test_delta2_absent_without_reference(self, small_report):
        assert small_report.rows[0].delta2 is None

    def test_time_budget_marks_skipped_cells(self):
        proto = small_protocol(splits=((0.5, 2), (0.25, 4)), time_budget_s=0.0)
        report = run_protocol(RECIPE, proto, small_config(), tabular_spec(4), samples=400)
        assert all(row.skipped for row in report.rows)
        verify_report(report)  # skipped rows are ignored, not errors

    def test_infeasible_split_raises(self):
        proto = small_protocol(splits=((0.05, 20),))
        with pytest.raises(Exception):
            run_protocol(RECIPE, proto, small_config(), tabular_spec(4), samples=20)


class TestFoldwise:
    def test_five_rotations_cover_dataset_once(self):
        proto = ProtocolSpec(mode="foldwise", folds=5, repetitions=1)
        report = run_protocol(RECIPE, proto, small_config(), tabular_spec(4), samples=500)
        row = report.rows[0]
        assert row.batch_count == 4  # k - 1 causal batches per rotation
        assert len(row.batch_acc["c3"]) == 4
        verify_report(report)

    def test_fold_partition(self):
        # Folds are produced by the standard fragmentation, whose partition
        # property is tested there; here check the foldwise label and shape.
        proto = ProtocolSpec(mode="foldwise", folds=3, repetitions=1)
        report = run_protocol(RECIPE, proto, small_config(), tabular_spec(4), samples=300)
        assert report.rows[0].label == "Foldwise k = 3"

    def test_foldwise_row_matches_manual_rotation_loop(self):
        # Recompute one foldwise cell by hand: every fold is held out exactly
        # once and the reported columns are the rotation averages.
        from dataclasses import replace as dc_replace

        import fishershift.bench as bench
        from fishershift.data import fragment, synth_shift
        from fishershift.trainer import shift_correction

        folds = 3
        cfg = small_config()
        proto = ProtocolSpec(mode="foldwise", folds=folds, repetitions=1)
        report = run_protocol(RECIPE, proto, cfg, tabular_spec(4), samples=300)
        row = report.rows[0]

        seed = bench.derive_seed(cfg.seed, f"foldwise:None:{folds - 1}", 0)
        ds, _ = synth_shift(dc_replace(RECIPE, batch_count=folds), 300 // folds, seed=seed)
        fold_plan = fragment(ds, folds, seed=seed, shuffle=False)
        sums = np.zeros(folds - 1)
        held_out = []
        for rot in range(folds):
            held_out.append(fold_plan.batch_indices(rot))
            val = ds.subset(fold_plan.batch_indices(rot))
            train_rows = [fold_plan.batch_indices(i) for i in range(folds) if i != rot]
            train = ds.subset(np.concatenate(train_rows))
            plan = bench._plan_from_sizes([r.size for r in train_rows])
            run_cfg = dc_replace(cfg, seed=seed, baseline_mode="c3")
            trace = shift_correction(train, val, plan, tabular_spec(4), run_cfg)
            sums += np.asarray(trace.per_batch_accuracies()) * 100.0
        covered = np.sort(np.concatenate(held_out))
        assert np.array_equal(covered, np.arange(ds.n))  # each row held out once
        assert np.allclose(np.asarray(row.batch_acc["c3"]), sums / folds, atol=1e-12)


class TestLambdaSweep:
    def test_one_row_per_lambda_and_series(self):
        report, series = lambda_sweep(
            RECIPE, (0.0, 0.1), small_protocol(), small_config(), tabular_spec(4), samples=400
        )
        assert len(report.rows) == 2
        assert [lam for lam, _ in series] == [0.0, 0.1]
        verify_report(report)

    def test_zero_lambda_row_equals_baseline(self):
        report, _ = lambda_sweep(
            RECIPE, (0.0,), small_protocol(repetitions=1), small_config(), tabular_spec(4),
            samples=400,
        )
        row = report.rows[0]
        assert row.mean["c3"] == pytest.approx(row.mean["cv_sequential"], abs=1e-12)

    def test_duplicate_values_give_identical_rows(self):
        report, series = lambda_sweep(
            RECIPE, (0.1, 0.1), small_protocol(repetitions=1), small_config(), tabular_spec(4),
            samples=400,
        )
        a, b = report.rows
        assert a.batch_acc == b.batch_acc
        assert series[0][1] == series[1][1]

    def test_empty_values_rejected(self):
        with pytest.raises(BenchError, match="at least one value"):
            lambda_sweep(RECIPE, (), small_protocol(), small_config(), tabular_spec(4))

    def test_negative_lambda_rejected(self):
        with pytest.raises(BenchError, match=">= 0"):
            lambda_sweep(RECIPE, (-0.1,), small_protocol(), small_config(), tabular_spec(4))

    def test_default_grid_comes_from_protocol(self):
        report, series = lambda_sweep(
            RECIPE, None, small_protocol(repetitions=1), small_config(), tabular_spec(4),
            samples=400,
        )
        assert [row.lam for row in report.rows] == list(LAMBDA_GRID)


class TestSharedBaselines:
    """A sweep trains each baseline once per (split, repetition)."""

    LAMBDAS = (0.0, 0.05, 0.1)

    def count_trainings(self, monkeypatch):
        configs = []
        real = bench.shift_correction

        def counting(*args, **kwargs):
            configs.append(args[4])
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "shift_correction", counting)
        return configs

    @pytest.mark.parametrize(
        "proto, units",
        [
            (small_protocol(splits=((0.5, 2), (0.25, 4))), 2),
            (ProtocolSpec(mode="foldwise", folds=3, repetitions=2), 3),
        ],
        ids=["batchwise", "foldwise"],
    )
    def test_one_training_per_distinct_run(self, monkeypatch, proto, units):
        configs = self.count_trainings(monkeypatch)
        cfg = small_config()
        report, _ = lambda_sweep(
            RECIPE, self.LAMBDAS, proto, cfg, tabular_spec(4), samples=400
        )
        # Per (split or fold rotation, repetition): both baselines, one c3 per lambda.
        assert len(configs) == proto.repetitions * units * (len(self.LAMBDAS) + 2)
        monkeypatch.undo()

        for lam in self.LAMBDAS:
            single = run_protocol(
                RECIPE, proto, replace(cfg, penalty=PenaltyConfig(lam=lam)), tabular_spec(4),
                samples=400,
            )
            swept = [row for row in report.rows if row.lam == lam]
            assert len(swept) == len(single.rows)
            for a, b in zip(swept, single.rows):
                # Every column, the shared baseline ones included, bit for bit.
                assert a.to_json_dict() == b.to_json_dict()

    def test_duplicate_lambdas_train_once(self, monkeypatch):
        configs = self.count_trainings(monkeypatch)
        lambda_sweep(
            RECIPE, (0.1, 0.1), small_protocol(repetitions=1), small_config(), tabular_spec(4),
            samples=400,
        )
        assert len(configs) == 1 * 1 * (1 + 2)
        assert len(set(configs)) == len(configs)

    def test_time_budget_skips_whole_splits(self, monkeypatch):
        # A clock that advances 10 s per reading: the budget check before the
        # first split reads 10 s, before the second 20 s.
        ticks = itertools.count(0.0, 10.0)
        monkeypatch.setattr(bench, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        proto = small_protocol(splits=((0.5, 2), (0.25, 4)), time_budget_s=15.0)
        report, series = lambda_sweep(
            RECIPE, (0.0, 0.1), proto, small_config(), tabular_spec(4), samples=400
        )
        assert [(row.batch_count, row.skipped) for row in report.rows] == [
            (2, False), (2, False), (4, True), (4, True)
        ]
        assert [lam for lam, _ in series] == [0.0, 0.1]
        assert series[1][1] == report.rows[1].mean["c3"]
        verify_report(report)

    def test_duplicate_splits_rejected(self):
        with pytest.raises(BenchError, match="distinct"):
            ProtocolSpec(splits=((0.5, 2), (0.5, 2)))


class TestEmission:
    def test_json_round_trip_is_byte_identical(self, small_report):
        text = emit_report(small_report, "json")
        back = ExperimentReport.from_json(text)
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

    def test_unknown_format_rejected(self, small_report):
        with pytest.raises(BenchError, match="format"):
            emit_report(small_report, "xml")


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
        report, series = lambda_sweep(
            RECIPE, (0.0, 0.1), small_protocol(repetitions=1), small_config(), tabular_spec(4),
            samples=400,
        )
        verify_report(report)
        payload = report.to_json_dict()
        payload["lambda_series"][0][1] += 5.0
        with pytest.raises(BenchError, match="lambda series"):
            verify_report(ExperimentReport.from_json_dict(payload))
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
        ],
        ids=["nan_mean", "missing_mode", "extra_batch", "null_delta"],
    )
    def test_detects_inconsistent_row(self, small_report, edit, message):
        payload = small_report.rows[0].to_json_dict()
        edit(payload)
        tampered = ReportRow.from_json_dict(payload)
        with pytest.raises(BenchError, match=message):
            verify_report(ExperimentReport(base_seed=0, rows=(tampered,)))

    def test_detects_tampered_delta(self, small_report):
        row = small_report.rows[0]
        tampered = ReportRow.from_json_dict({**row.to_json_dict(), "delta3": 123.0})
        bad = ExperimentReport(base_seed=0, rows=(tampered,))
        with pytest.raises(BenchError, match="delta3"):
            verify_report(bad)


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
