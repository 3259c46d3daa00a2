from dataclasses import replace

import numpy as np
import pytest

from fishershift.data import (
    Dataset,
    ShiftRecipe,
    fragment,
    synth_shift,
    train_validation_split,
)
from fishershift.numerics import (
    MlpSpec,
    NumericsError,
    OptimizerConfig,
    init_optimizer_state,
    init_params,
    loss_and_gradient,
    optimizer_step,
    zero_params,
)
from fishershift.penalty import PenaltyConfig
from fishershift.trainer import (
    RunTrace,
    TrainConfig,
    TrainerError,
    cv_baseline,
    evaluate,
    kl_diagnostic_matrix,
    shift_correction,
)

SPEC = MlpSpec(input_dim=4, hidden_layers=((4, "relu"),), output_classes=2)


def drift_setup(k=3, n_per_batch=120, seed=0, delta=0.5):
    recipe = ShiftRecipe(kind="mean_drift", batch_count=k, features=4, delta=delta)
    ds, _ = synth_shift(recipe, n_per_batch, seed=seed)
    train, val, _, _ = train_validation_split(ds, 0.2, seed=seed)
    plan = fragment(train, k, seed=seed, shuffle=False)
    return train, val, plan


def quick_config(**kw):
    defaults = dict(epochs=2, minibatch_size=32, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestEvaluate:
    def test_zero_params_tie_break_to_class_zero(self):
        rng = np.random.default_rng(0)
        labels = np.array([0, 1] * 10)
        ds = Dataset(rng.normal(size=(20, 4)), labels, 2)
        acc = evaluate(SPEC, zero_params(SPEC), ds)
        assert acc == pytest.approx(0.5)

    def test_converged_model_separates_wide_classes(self):
        # Separation 8 puts the clusters ~8 sigma apart, so a converged model
        # should be nearly perfect on held-out data.
        recipe = ShiftRecipe(kind="mean_drift", batch_count=1, features=4, delta=0.0,
                             separation=8.0)
        ds, _ = synth_shift(recipe, 500, seed=0)
        train, val, _, _ = train_validation_split(ds, 0.2, seed=0)
        plan = fragment(train, 1, shuffle=False)
        cfg = quick_config(epochs=30, optimizer=OptimizerConfig(learning_rate=0.02),
                           baseline_mode="cv_sequential")
        trace = shift_correction(train, val, plan, SPEC, cfg)
        assert evaluate(SPEC, trace.final_params, val) > 0.97

    def test_overfit_training_batch_scores_at_least_heldout(self):
        rng = np.random.default_rng(3)
        tiny = Dataset(rng.normal(size=(16, 4)), rng.integers(0, 2, size=16), 2)
        held = Dataset(rng.normal(size=(200, 4)), rng.integers(0, 2, size=200), 2)
        plan = fragment(tiny, 1)
        cfg = quick_config(epochs=300, optimizer=OptimizerConfig(learning_rate=0.05),
                           baseline_mode="cv_sequential")
        trace = shift_correction(tiny, held, plan, SPEC, cfg)
        assert evaluate(SPEC, trace.final_params, tiny) >= evaluate(SPEC, trace.final_params, held)


class TestReduction:
    def test_k1_lambda_zero_equals_plain_minibatch_training(self):
        train, val, plan = drift_setup(k=1, n_per_batch=100)
        cfg = quick_config(penalty=PenaltyConfig(lam=0.0))
        trace = shift_correction(train, val, plan, SPEC, cfg)

        # Manual loop over the same minibatch schedule.
        params = init_params(SPEC, cfg.seed)
        opt = init_optimizer_state(cfg.optimizer, params.size)
        x, y = train.rows(plan.batch_indices(0))
        for _ in range(cfg.epochs):
            for start in range(0, x.shape[0], cfg.minibatch_size):
                sl = slice(start, start + cfg.minibatch_size)
                _, grad = loss_and_gradient(SPEC, params, x[sl], y[sl])
                params, opt = optimizer_step(opt, params, grad)
        assert np.array_equal(trace.final_params.values, params.values)

    @pytest.mark.parametrize("k", [2, 5])
    def test_lambda_zero_matches_cv_sequential_bitwise(self, k):
        train, val, plan = drift_setup(k=k, n_per_batch=80)
        c3_cfg = quick_config(penalty=PenaltyConfig(lam=0.0), baseline_mode="c3")
        cv_cfg = quick_config(penalty=PenaltyConfig(lam=0.1), baseline_mode="cv_sequential")
        a = shift_correction(train, val, plan, SPEC, c3_cfg)
        b = cv_baseline(train, val, plan, SPEC, cv_cfg)
        assert np.array_equal(a.final_params.values, b.final_params.values)
        assert a.records == b.records

    def test_positive_lambda_changes_the_trajectory(self):
        train, val, plan = drift_setup(k=3, n_per_batch=80)
        a = shift_correction(train, val, plan, SPEC, quick_config(penalty=PenaltyConfig(lam=0.5)))
        b = shift_correction(train, val, plan, SPEC, quick_config(penalty=PenaltyConfig(lam=0.0)))
        assert not np.array_equal(a.final_params.values, b.final_params.values)

    def test_reset_state_each_epoch_limits_accumulation(self):
        train, val, plan = drift_setup(k=3, n_per_batch=80)
        cfg = quick_config(epochs=4, penalty=PenaltyConfig(lam=0.2))
        persistent = shift_correction(train, val, plan, SPEC, cfg)
        resetting = shift_correction(
            train, val, plan, SPEC, replace(cfg, reset_state_each_epoch=True)
        )
        # Persistent state keeps absorbing across epochs; the resetting run
        # only ever holds one epoch's worth of batches.
        assert persistent.final_penalty_state.batches_consumed == 4 * 3
        assert resetting.final_penalty_state.batches_consumed == 3
        assert not np.array_equal(
            persistent.final_params.values, resetting.final_params.values
        )

    def test_reset_flag_is_inert_for_single_epoch(self):
        train, val, plan = drift_setup(k=2, n_per_batch=60)
        cfg = quick_config(epochs=1, penalty=PenaltyConfig(lam=0.2))
        a = shift_correction(train, val, plan, SPEC, cfg)
        b = shift_correction(train, val, plan, SPEC, replace(cfg, reset_state_each_epoch=True))
        assert np.array_equal(a.final_params.values, b.final_params.values)


class TestDeterminismAndCausality:
    def test_identical_config_gives_identical_trace(self):
        train, val, plan = drift_setup(k=3, n_per_batch=60)
        cfg = quick_config(penalty=PenaltyConfig(lam=0.1))
        a = shift_correction(train, val, plan, SPEC, cfg)
        b = shift_correction(train, val, plan, SPEC, cfg)
        assert a.records == b.records
        assert np.array_equal(a.final_params.values, b.final_params.values)

    def test_truncated_run_reproduces_prefix(self):
        # Batches 1..3 of a 5-batch plan, run standalone, must match the first
        # three visits of the full run exactly (single epoch).
        k_full, k_prefix = 5, 3
        recipe = ShiftRecipe(kind="mean_drift", batch_count=k_full, features=4, delta=0.4)
        ds, plan = synth_shift(recipe, 100, seed=4)
        val = Dataset(ds.features[:50], ds.labels[:50], ds.class_count)
        cfg = quick_config(epochs=1, penalty=PenaltyConfig(lam=0.2))

        full = shift_correction(ds, val, plan, SPEC, cfg)

        prefix_rows = np.concatenate([plan.batch_indices(i) for i in range(k_prefix)])
        prefix_ds = ds.subset(prefix_rows)
        prefix_plan = fragment(prefix_ds, k_prefix, shuffle=False)
        prefix = shift_correction(prefix_ds, val, prefix_plan, SPEC, cfg)

        assert prefix.records == full.records[:k_prefix]
        assert prefix.final_penalty_state.batches_consumed == k_prefix

    def test_resume_from_snapshot_matches_continuous_run(self):
        recipe = ShiftRecipe(kind="mean_drift", batch_count=4, features=4, delta=0.4)
        ds, plan = synth_shift(recipe, 80, seed=5)
        val = Dataset(ds.features[:40], ds.labels[:40], ds.class_count)
        cfg = quick_config(epochs=1, penalty=PenaltyConfig(lam=0.3))

        full = shift_correction(ds, val, plan, SPEC, cfg)

        head_rows = np.concatenate([plan.batch_indices(i) for i in range(2)])
        head = shift_correction(
            ds.subset(head_rows), val, fragment(ds.subset(head_rows), 2, shuffle=False), SPEC, cfg
        )
        tail_rows = np.concatenate([plan.batch_indices(i) for i in range(2, 4)])
        tail = shift_correction(
            ds.subset(tail_rows),
            val,
            fragment(ds.subset(tail_rows), 2, shuffle=False),
            SPEC,
            cfg,
            initial_params=head.final_params,
            initial_penalty_state=head.final_penalty_state,
            initial_optimizer_state=head.final_optimizer_state,
        )
        assert np.array_equal(tail.final_params.values, full.final_params.values)
        resumed_acc = [r.validation_accuracy for r in tail.records]
        full_acc = [r.validation_accuracy for r in full.records[2:]]
        assert resumed_acc == full_acc

    def test_records_only_reference_earlier_batches(self):
        train, val, plan = drift_setup(k=4, n_per_batch=60)
        trace = shift_correction(train, val, plan, SPEC, quick_config(epochs=1))
        for r in trace.records:
            assert len(r.kl_to_earlier) == r.batch_index


class TestKlDiagnostics:
    def test_matrix_nonnegative_zero_diagonal(self):
        train, _, plan = drift_setup(k=4, n_per_batch=100)
        m = kl_diagnostic_matrix(train, plan)
        assert np.all(m >= 0.0)
        assert np.allclose(np.diag(m), 0.0, atol=1e-9)

    def test_recorded_diagnostics_match_matrix(self):
        train, val, plan = drift_setup(k=3, n_per_batch=100)
        m = kl_diagnostic_matrix(train, plan)
        trace = shift_correction(train, val, plan, SPEC, quick_config(epochs=1))
        for r in trace.records:
            for j, value in enumerate(r.kl_to_earlier):
                assert value == pytest.approx(m[r.batch_index, j], abs=1e-12)


class TestIndependentBaseline:
    def test_identical_distribution_batches_score_alike(self):
        recipe = ShiftRecipe(kind="mean_drift", batch_count=3, features=4, delta=0.0)
        ds, plan = synth_shift(recipe, 150, seed=6)
        train, val, _, _ = train_validation_split(ds, 0.2, seed=6)
        plan = fragment(train, 3, shuffle=False)
        cfg = quick_config(epochs=5, baseline_mode="cv_independent",
                           optimizer=OptimizerConfig(learning_rate=0.05))
        accs = shift_correction(train, val, plan, SPEC, cfg).per_batch_accuracies()
        assert max(accs) - min(accs) < 0.1

    def test_batch_block_permutation_permutes_accuracies(self):
        # Re-ordering identically-distributed batch blocks must permute the
        # per-batch accuracies exactly: each batch trains from the same init.
        recipe = ShiftRecipe(kind="mean_drift", batch_count=3, features=4, delta=0.0)
        ds, plan = synth_shift(recipe, 90, seed=7)
        val = Dataset(ds.features[:50], ds.labels[:50], ds.class_count)
        cfg = quick_config(epochs=2, baseline_mode="cv_independent")

        original = shift_correction(ds, val, plan, SPEC, cfg).per_batch_accuracies()

        swapped_rows = np.concatenate(
            [plan.batch_indices(2), plan.batch_indices(0), plan.batch_indices(1)]
        )
        swapped_ds = ds.subset(swapped_rows)
        swapped = shift_correction(
            swapped_ds, val, fragment(swapped_ds, 3, shuffle=False), SPEC, cfg
        ).per_batch_accuracies()
        assert sorted(swapped) == sorted(original)

    def test_batch_hook_called_after_every_visit(self):
        train, val, plan = drift_setup(k=3, n_per_batch=60)
        cfg = quick_config(epochs=2, baseline_mode="cv_independent")
        seen = []
        trace = shift_correction(
            train, val, plan, SPEC, cfg,
            batch_hook=lambda epoch, i, params: seen.append((epoch, i, params)),
        )
        # Batch-major: every epoch of batch 0, then of batch 1, ...
        assert [(e, i) for e, i, _ in seen] == [(1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2)]
        assert [(r.epoch, r.batch_index) for r in trace.records] == [(e, i) for e, i, _ in seen]
        for record, (_, _, params) in zip(trace.records, seen):
            assert evaluate(SPEC, params, val) == record.validation_accuracy
        assert seen[-1][2] is trace.final_params

    @pytest.mark.parametrize(
        "initial", ["initial_params", "initial_penalty_state", "initial_optimizer_state"]
    )
    def test_rejects_initial_state(self, initial):
        train, val, plan = drift_setup(k=2, n_per_batch=60)
        head = shift_correction(train, val, plan, SPEC, quick_config(epochs=1))
        values = {
            "initial_params": head.final_params,
            "initial_penalty_state": head.final_penalty_state,
            "initial_optimizer_state": head.final_optimizer_state,
        }
        cfg = quick_config(baseline_mode="cv_independent")
        with pytest.raises(TrainerError, match="initial_"):
            shift_correction(train, val, plan, SPEC, cfg, **{initial: values[initial]})

    def test_cv_baseline_rejects_c3_mode(self):
        train, val, plan = drift_setup(k=2, n_per_batch=60)
        with pytest.raises(TrainerError, match="cv_sequential or cv_independent"):
            cv_baseline(train, val, plan, SPEC, quick_config(baseline_mode="c3"))


class TestNonFiniteTraining:
    def test_nan_feature_raises_numerics_error(self):
        # Training batches are summarised (moments) before any step, so a NaN
        # there is an InformationError; a NaN in validation rows reaches the
        # model. The kernel's own NaN check is in test_visit_kernel.
        train, val, plan = drift_setup(k=2, n_per_batch=60)
        val.features[3, 0] = np.nan  # after the dataset's own check
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="non-finite"):
            shift_correction(train, val, plan, SPEC, quick_config())

    def test_diverging_learning_rate_raises_numerics_error(self):
        train, val, plan = drift_setup(k=2, n_per_batch=60)
        cfg = quick_config(optimizer=OptimizerConfig(kind="sgd", learning_rate=1e300))
        with np.errstate(all="ignore"), pytest.raises(NumericsError, match="non-finite"):
            shift_correction(train, val, plan, SPEC, cfg)


class TestTraceSerialization:
    def test_json_round_trip(self):
        train, val, plan = drift_setup(k=2, n_per_batch=60)
        trace = shift_correction(train, val, plan, SPEC, quick_config(epochs=1))
        restored = RunTrace.from_json_dict(trace.to_json_dict())
        assert restored.records == trace.records
        assert np.array_equal(restored.final_params.values, trace.final_params.values)
        assert restored.to_json() == trace.to_json()

    def test_per_batch_accuracies_take_last_epoch(self):
        train, val, plan = drift_setup(k=2, n_per_batch=60)
        trace = shift_correction(train, val, plan, SPEC, quick_config(epochs=3))
        last_epoch = [r for r in trace.records if r.epoch == 3]
        assert trace.per_batch_accuracies() == tuple(
            r.validation_accuracy for r in sorted(last_epoch, key=lambda r: r.batch_index)
        )

    def test_unsupported_schema_rejected(self):
        with pytest.raises(TrainerError, match="schema"):
            RunTrace.from_json_dict({"schema_version": 999})


class TestConfigValidation:
    def test_bad_epochs(self):
        with pytest.raises(TrainerError, match="epochs"):
            TrainConfig(epochs=0)

    def test_bad_mode(self):
        with pytest.raises(TrainerError, match="baseline mode"):
            TrainConfig(baseline_mode="bogus")
