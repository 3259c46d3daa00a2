import json
import threading
from dataclasses import replace

import numpy as np
import pytest

from fishershift import trainer
from fishershift.data import (
    Dataset,
    FragmentationPlan,
    ShiftRecipe,
    batch_moments,
    fragment,
    synth_shift,
    train_validation_split,
)
from fishershift.information import empirical_fisher_diagonal, gaussian_kl
from fishershift.numerics import (
    MlpSpec,
    NumericsError,
    OptimizerConfig,
    init_optimizer_state,
    init_params,
    loss_and_gradient,
    optimizer_step,
)
from fishershift.penalty import PenaltyConfig, absorb_batch
from fishershift.trainer import (
    Run,
    RunTrace,
    TrainConfig,
    TrainerError,
    evaluate,
    shift_correction,
    train_members,
)
from oracles import zero_params

SPEC = MlpSpec(input_dim=4, hidden_layers=((4, "relu"),), output_classes=2)


def drift_setup(k=3, n_per_batch=120, seed=0, delta=0.5):
    recipe = ShiftRecipe(kind="mean_drift", batch_count=k, features=4, delta=delta)
    ds, _ = synth_shift(recipe, n_per_batch, seed=seed)
    train, val, _, _ = train_validation_split(ds, 0.2, seed=seed)
    plan = fragment(train, k)
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
        plan = fragment(train, 1)
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
        x, y = train.rows(plan.batch(0))
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
        b = shift_correction(train, val, plan, SPEC, cv_cfg)
        assert np.array_equal(a.final_params.values, b.final_params.values)
        assert a.records == b.records
        # c3 absorbs its batches even at lambda 0; cv_sequential absorbs none.
        assert a.final_penalty_state is not None
        assert b.final_penalty_state is None

    def test_positive_lambda_changes_the_trajectory(self):
        train, val, plan = drift_setup(k=3, n_per_batch=80)
        visits = []
        a = shift_correction(train, val, plan, SPEC, quick_config(penalty=PenaltyConfig(lam=0.5)),
                             batch_hook=lambda *visit: visits.append(visit))
        b = shift_correction(train, val, plan, SPEC, quick_config(penalty=PenaltyConfig(lam=0.0)))
        assert not np.array_equal(a.final_params.values, b.final_params.values)
        # The penalty state is never reset: every visit of every epoch adds its batch.
        assert len(visits) == 2 * 3
        assert_same_penalty_state(a.final_penalty_state, absorbed(train, plan, visits))
        assert a.final_penalty_state.sample_count == 2 * train.n


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

        prefix_rows = np.r_[tuple(plan.batch(i) for i in range(k_prefix))]
        prefix_ds = ds.subset(prefix_rows)
        prefix_plan = fragment(prefix_ds, k_prefix)
        visits = []
        prefix = shift_correction(prefix_ds, val, prefix_plan, SPEC, cfg,
                                  batch_hook=lambda *visit: visits.append(visit))

        assert prefix.records == full.records[:k_prefix]
        assert_same_penalty_state(prefix.final_penalty_state,
                                  absorbed(prefix_ds, prefix_plan, visits))
        assert prefix.final_penalty_state.sample_count == prefix_ds.n

    def resumable_run(self, baseline="c3", **kw):
        """A 4-batch run, and a run of its first two batches to resume from."""
        recipe = ShiftRecipe(kind="mean_drift", batch_count=4, features=4, delta=0.4)
        ds, plan = synth_shift(recipe, 80, seed=5)
        val = Dataset(ds.features[:40], ds.labels[:40], ds.class_count)
        cfg = quick_config(epochs=1, penalty=PenaltyConfig(lam=0.3), baseline_mode=baseline, **kw)
        head_ds = ds.subset(np.r_[plan.batch(0), plan.batch(1)])
        head = shift_correction(head_ds, val, fragment(head_ds, 2), SPEC, cfg)
        return ds, val, plan, cfg, head

    @pytest.mark.parametrize("baseline", ["c3", "cv_sequential"])
    def test_resumed_run_matches_continuous_run(self, baseline):
        ds, val, plan, cfg, head = self.resumable_run(baseline)
        full = shift_correction(ds, val, plan, SPEC, cfg)
        tail_ds = ds.subset(np.r_[plan.batch(2), plan.batch(3)])
        tail = shift_correction(tail_ds, val, fragment(tail_ds, 2), SPEC, cfg, resume=head)
        # The tail's own plan numbers its batches from 0, so its records
        # differ in batch index and KL; the rest of each visit is the same.
        assert [(r.validation_accuracy, r.mean_loss) for r in tail.records] == [
            (r.validation_accuracy, r.mean_loss) for r in full.records[2:]
        ]
        # Parameters, Adam state and penalty state, bit for bit.
        assert_same_run(replace(tail, records=full.records), full)

    def test_resumed_sgd_run_matches_continuous_run(self):
        # The optimizer check compares configs, so an SGD trace resumes under
        # the same SGD config.
        ds, val, plan, cfg, head = self.resumable_run(
            optimizer=OptimizerConfig(kind="sgd", learning_rate=0.05))
        full = shift_correction(ds, val, plan, SPEC, cfg)
        tail_ds = ds.subset(np.r_[plan.batch(2), plan.batch(3)])
        tail = shift_correction(tail_ds, val, fragment(tail_ds, 2), SPEC, cfg, resume=head)
        assert_same_run(replace(tail, records=full.records), full)

    def test_trace_read_from_json_has_no_final_states(self):
        _, _, _, _, head = self.resumable_run()
        assert head.final_penalty_state is not None and head.final_optimizer_state is not None
        read_back = RunTrace.from_json_dict(json.loads(head.to_json()))
        assert read_back.final_penalty_state is None
        assert read_back.final_optimizer_state is None
        assert np.array_equal(read_back.final_params.values, head.final_params.values)

    def test_resume_needs_a_trace_with_final_states(self):
        ds, val, plan, cfg, head = self.resumable_run()
        read_back = RunTrace.from_json_dict(json.loads(head.to_json()))
        with pytest.raises(TrainerError, match="final states"):
            shift_correction(ds, val, plan, SPEC, cfg, resume=read_back)

    def test_resume_rejects_another_optimizer(self):
        # The trace's Adam state would otherwise win over cfg.optimizer unseen.
        ds, val, plan, cfg, head = self.resumable_run()
        sgd = replace(cfg, optimizer=OptimizerConfig(kind="sgd", learning_rate=0.5))
        with pytest.raises(TrainerError, match="optimizer") as exc:
            shift_correction(ds, val, plan, SPEC, sgd, resume=head)
        message = str(exc.value)
        assert "\n" not in message and "'adam'" in message and "'sgd'" in message

    def test_resume_rejects_another_learning_rate(self):
        ds, val, plan, cfg, head = self.resumable_run()
        faster = replace(cfg, optimizer=OptimizerConfig(learning_rate=0.01))
        with pytest.raises(TrainerError, match="optimizer") as exc:
            shift_correction(ds, val, plan, SPEC, faster, resume=head)
        assert "0.001" in str(exc.value) and "0.01" in str(exc.value)

    def test_records_only_reference_earlier_batches(self):
        train, val, plan = drift_setup(k=4, n_per_batch=60)
        trace = shift_correction(train, val, plan, SPEC, quick_config(epochs=1))
        for r in trace.records:
            assert len(r.kl_to_earlier) == r.batch_index


class TestKlDiagnostics:
    def test_batch_kls_nonnegative_zero_to_itself(self):
        train, _, plan = drift_setup(k=4, n_per_batch=100)
        moments = [batch_moments(train, plan, i) for i in range(plan.batch_count)]
        for i, p in enumerate(moments):
            for j, q in enumerate(moments):
                kl = gaussian_kl(p, q)
                assert kl >= 0.0
                if i == j:
                    assert kl == pytest.approx(0.0, abs=1e-9)

    def test_recorded_diagnostics_match_batch_moments(self):
        train, val, plan = drift_setup(k=3, n_per_batch=100)
        trace = shift_correction(train, val, plan, SPEC, quick_config(epochs=2))
        assert len(trace.records) == 2 * plan.batch_count
        for r in trace.records:
            moments = batch_moments(train, plan, r.batch_index)
            assert r.kl_to_earlier == tuple(
                gaussian_kl(moments, batch_moments(train, plan, j)) for j in range(r.batch_index)
            )


class TestIndependentBaseline:
    def test_identical_distribution_batches_score_alike(self):
        recipe = ShiftRecipe(kind="mean_drift", batch_count=3, features=4, delta=0.0)
        ds, plan = synth_shift(recipe, 150, seed=6)
        train, val, _, _ = train_validation_split(ds, 0.2, seed=6)
        plan = fragment(train, 3)
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

        swapped_rows = np.r_[plan.batch(2), plan.batch(0), plan.batch(1)]
        swapped_ds = ds.subset(swapped_rows)
        swapped = shift_correction(
            swapped_ds, val, fragment(swapped_ds, 3), SPEC, cfg
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

    def test_each_batch_trains_alone_from_the_seed(self):
        # Ragged batches (49/49/48 rows) step in two groups.
        train, val, plan = drift_setup(k=3, n_per_batch=61)
        assert plan.sizes == (49, 49, 48)
        cfg = quick_config(epochs=3, baseline_mode="cv_independent")
        trace = shift_correction(train, val, plan, SPEC, cfg)
        for i in range(3):
            part = train.subset(plan.batch(i))
            alone = shift_correction(part, val, fragment(part, 1), SPEC,
                                     replace(cfg, baseline_mode="cv_sequential"))
            got = trace.records[3 * i:3 * (i + 1)]
            assert [(r.epoch, r.batch_index) for r in got] == [(1, i), (2, i), (3, i)]
            assert [(r.validation_accuracy, r.mean_loss) for r in got] == [
                (r.validation_accuracy, r.mean_loss) for r in alone.records
            ]
        # The final state is the last batch's.
        assert_same_run(replace(trace, records=alone.records), alone)

    def test_rejects_resume(self):
        train, val, plan = drift_setup(k=2, n_per_batch=60)
        head = shift_correction(train, val, plan, SPEC, quick_config(epochs=1))
        cfg = quick_config(baseline_mode="cv_independent")
        with pytest.raises(TrainerError, match="cannot resume"):
            shift_correction(train, val, plan, SPEC, cfg, resume=head)


def member_configs(**kw):
    """cv_sequential and c3 at three lambdas: the members of one sweep stack."""
    base = quick_config(epochs=3, **kw)
    return [replace(base, baseline_mode="cv_sequential")] + [
        replace(base, penalty=replace(base.penalty, lam=lam)) for lam in (0.0, 0.05, 0.1)
    ]


def shared_runs(train, val, plan, cfgs):
    """One run per config, all on the same data."""
    return [Run(train, val, plan, cfg) for cfg in cfgs]


def assert_same_run(got, want):
    assert got.records == want.records
    assert np.array_equal(got.final_params.values, want.final_params.values)
    assert got.final_params.layout == want.final_params.layout
    opt, want_opt = got.final_optimizer_state, want.final_optimizer_state
    assert opt.step_count == want_opt.step_count and opt.config == want_opt.config
    assert np.array_equal(opt.m, want_opt.m) and np.array_equal(opt.v, want_opt.v)
    assert_same_penalty_state(got.final_penalty_state, want.final_penalty_state)


def assert_same_penalty_state(state, want):
    assert (state is None) == (want is None)
    if want is not None:
        assert np.array_equal(state.diagonal, want.diagonal)
        assert np.array_equal(state.anchor.values, want.anchor.values)
        assert state.sample_count == want.sample_count


def absorbed(dataset, plan, visits):
    """The penalty state a c3 run should end with, from its ``batch_hook``
    visits: each visit's Fisher diagonal on its batch, at the parameters the
    visit ended with, folded through ``absorb_batch``."""
    state = None
    for _, i, params in visits:
        x, y = dataset.rows(plan.batch(i))
        state = absorb_batch(state, empirical_fisher_diagonal(SPEC, params, x, y))
    return state


class TestStackedMembers:
    @pytest.mark.parametrize(
        "optimizer", [OptimizerConfig(), OptimizerConfig(kind="sgd", learning_rate=0.05)],
        ids=["adam", "sgd"],
    )
    def test_each_member_equals_its_own_run_bitwise(self, optimizer):
        train, val, plan = drift_setup(k=3, n_per_batch=80)
        cfgs = member_configs(optimizer=optimizer)
        stacked = train_members(shared_runs(train, val, plan, cfgs), SPEC)
        assert len(stacked) == len(cfgs)
        for got, cfg in zip(stacked, cfgs):
            assert_same_run(got, shift_correction(train, val, plan, SPEC, cfg))
        # The lambda-0 member is the cv_sequential run, and the lambdas matter.
        assert stacked[1].records == stacked[0].records
        assert not np.array_equal(stacked[3].final_params.values, stacked[0].final_params.values)

    @pytest.mark.parametrize("order", ["given", "reversed", "permuted", "cut"])
    def test_runs_with_any_configs_equal_their_own_runs(self, order):
        # A run with fewer epochs drops out early, one with another seed
        # steps with the others, and ones with another learning rate or
        # minibatch size step in groups of their own. A
        # cv_independent run is one member per batch, here on data shared
        # with other runs and on data of its own. No run's bits depend on
        # where it sits in the stack, or on which runs share its call: the
        # runs go in as given, reversed, in a seeded permutation, or cut
        # into two calls.
        train, val, plan = drift_setup(k=3, n_per_batch=80)
        other = drift_setup(k=2, n_per_batch=70, seed=2)
        cfgs = member_configs()
        c3 = cfgs[-1]
        runs = shared_runs(train, val, plan, cfgs + [
            replace(c3, epochs=2),
            replace(c3, optimizer=OptimizerConfig(learning_rate=0.5)),
            replace(c3, seed=1),
            replace(c3, minibatch_size=20),
            replace(c3, baseline_mode="cv_independent", seed=3),
        ]) + [Run(*other, replace(c3, baseline_mode="cv_independent", epochs=4, seed=5))]
        positions = {
            "given": range(len(runs)),
            "reversed": range(len(runs) - 1, -1, -1),
            "permuted": np.random.default_rng(0).permutation(len(runs)),
            "cut": range(len(runs)),
        }[order]
        runs = [runs[i] for i in positions]
        if order == "cut":
            half = len(runs) // 2
            traces = train_members(runs[:half], SPEC) + train_members(runs[half:], SPEC)
        else:
            traces = train_members(runs, SPEC)
        for got, run in zip(traces, runs, strict=True):
            assert_same_run(got, shift_correction(*run[:3], SPEC, run.cfg))

    @pytest.mark.parametrize("stack", ["paired", "mixed"])
    def test_runs_with_their_own_seeds_and_data_equal_their_own_runs(self, stack):
        a = drift_setup(k=3, n_per_batch=80, seed=0)
        b = drift_setup(k=3, n_per_batch=80, seed=1)
        c = drift_setup(k=2, n_per_batch=70, seed=2)  # other batch sizes, fewer visits
        base = quick_config(epochs=3)

        def cfg(mode, lam, seed):
            return replace(base, baseline_mode=mode, seed=seed,
                           penalty=replace(base.penalty, lam=lam))

        runs = {
            # Two batches per visit, each shared by two members.
            "paired": [Run(*a, cfg("cv_sequential", 0.0, 4)), Run(*a, cfg("c3", 0.1, 4)),
                       Run(*b, cfg("cv_sequential", 0.0, 5)), Run(*b, cfg("c3", 0.05, 5))],
            # Unequal sharing (one batch per member), and a run in a group of
            # its own that drops out after 2 of the 3 batches.
            "mixed": [Run(*a, cfg("c3", 0.1, 4)), Run(*c, cfg("c3", 0.1, 6)),
                      Run(*b, cfg("cv_sequential", 0.0, 5)), Run(*a, cfg("cv_sequential", 0.0, 7)),
                      Run(*a, cfg("c3", 0.05, 8))],
        }[stack]
        for got, run in zip(train_members(runs, SPEC), runs, strict=True):
            assert_same_run(got, shift_correction(*run[:3], SPEC, run.cfg))

    def test_empty_stack_rejected(self):
        train, val, plan = drift_setup(k=2, n_per_batch=60)
        with pytest.raises(TrainerError, match="at least one"):
            train_members([], SPEC)

    def test_one_diverging_member_raises_numerics_error(self):
        train, val, plan = drift_setup(k=2, n_per_batch=60)
        cfgs = member_configs(optimizer=OptimizerConfig(kind="sgd", learning_rate=0.1))
        diverging = replace(cfgs[-1], penalty=PenaltyConfig(lam=1e300))
        with np.errstate(all="ignore"):
            with pytest.raises(NumericsError, match="non-finite"):
                shift_correction(train, val, plan, SPEC, diverging)
            with pytest.raises(NumericsError, match="non-finite"):
                train_members(shared_runs(train, val, plan, cfgs[:-1] + [diverging]), SPEC)


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

    def test_an_overflowing_penalty_value_is_not_recorded(self):
        # The penalty gradient stays finite while its value overflows, so the
        # kernel's checks pass and only the record sees the infinite loss.
        spec = MlpSpec(input_dim=3, hidden_layers=((2, "relu"),), output_classes=2)
        recipe = ShiftRecipe(kind="mean_drift", batch_count=2, features=3, delta=0.5)
        data, _ = synth_shift(recipe, 40, seed=0)
        cfg = quick_config(optimizer=OptimizerConfig(kind="adam", learning_rate=3.0),
                           penalty=PenaltyConfig(lam=1.7e308))
        with np.errstate(all="ignore"), pytest.raises(TrainerError, match="mean loss"):
            shift_correction(data, data, fragment(data, 2), spec, cfg)


WIDE_SPEC = MlpSpec(input_dim=784, hidden_layers=((8, "relu"),), output_classes=10)


def wide_setup(seed=0, rows=800, k=3):
    """784 features, 10 classes and 200 validation rows: a pass too small for
    the evaluation thread unless the path is forced."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 784))
    ds = Dataset(x, np.argmax(x @ rng.normal(size=(784, 10)), axis=1), 10)
    train, val, _, _ = train_validation_split(ds, 0.25, seed=seed)
    return train, val, fragment(train, k)


@pytest.fixture()
def force(monkeypatch):
    """``force(threaded)`` picks the evaluation path by the CPU count alone,
    and returns the list that gets, per validation pass, whether it ran on
    the main thread and numpy's error state there."""
    passes = []
    evaluate_stack = trainer._evaluate_stack

    def spy(*args):
        passes.append((threading.current_thread() is threading.main_thread(), np.geterr()))
        return evaluate_stack(*args)

    def force_path(threaded):
        monkeypatch.setattr(trainer, "_THREAD_EVAL_SIZE", 0)
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2 if threaded else 1)
        passes.clear()
        return passes

    monkeypatch.setattr(trainer, "_evaluate_stack", spy)
    return force_path


class TestEvaluationThread:
    """Visit v's validation passes run inline or, for large validation sets
    on a host with a second CPU, on a thread while visit v+1 trains; both
    paths give the same bytes, hook calls and errors."""

    @pytest.mark.parametrize("mode", ["c3", "cv_sequential", "cv_independent"])
    def test_both_paths_give_the_same_trace_and_hook_calls(self, force, mode):
        train, val, plan = wide_setup()
        cfg = quick_config(baseline_mode=mode, penalty=PenaltyConfig(lam=0.1))
        threads = threading.active_count()
        traces, calls = {}, {False: [], True: []}
        for threaded in (False, True):
            passes = force(threaded)
            traces[threaded] = shift_correction(
                train, val, plan, WIDE_SPEC, cfg,
                batch_hook=lambda epoch, i, params, seen=calls[threaded]: seen.append(
                    (epoch, i, params.values.tobytes())),
            )
            assert threading.active_count() == threads
            assert passes and [on_main for on_main, _ in passes] == [not threaded] * len(passes)
        assert traces[True].to_json() == traces[False].to_json()
        assert_same_run(traces[True], traces[False])
        assert calls[True] == calls[False]

    def test_a_mixed_stack_gives_the_same_traces_on_both_paths(self, force):
        # Two validation sets (one pass each per visit), the three modes, and
        # a run that drops out after fewer visits.
        a, b = wide_setup(seed=0), wide_setup(seed=1, rows=600, k=2)
        base = quick_config(epochs=3)
        runs = [Run(*a, replace(base, penalty=PenaltyConfig(lam=0.1))),
                Run(*a, replace(base, baseline_mode="cv_sequential")),
                Run(*b, replace(base, baseline_mode="cv_independent", seed=2)),
                Run(*b, replace(base, epochs=1, seed=3))]
        traces = {}
        for threaded in (False, True):
            passes = force(threaded)
            traces[threaded] = train_members(runs, WIDE_SPEC)
            assert {on_main for on_main, _ in passes} == {not threaded}
        for got, want in zip(traces[True], traces[False], strict=True):
            assert got.to_json() == want.to_json()
            assert_same_run(got, want)

    def test_the_thread_evaluates_under_the_callers_numpy_error_state(self, force):
        train, val, plan = wide_setup()
        for threaded in (False, True):
            passes = force(threaded)
            with np.errstate(over="raise", invalid="ignore"):
                shift_correction(train, val, plan, WIDE_SPEC, quick_config(epochs=1))
            assert [(err["over"], err["invalid"]) for _, err in passes] == [
                ("raise", "ignore")] * plan.batch_count

    def test_a_diverging_run_raises_the_same_first_error_on_both_paths(self, force):
        # Visit 0 evaluates; visit 1's training diverges.
        train, val, plan = wide_setup()
        cfg = quick_config(optimizer=OptimizerConfig(kind="sgd", learning_rate=1e3))
        threads = threading.active_count()
        errors = []
        for threaded in (False, True):
            passes = force(threaded)
            with np.errstate(all="ignore"), pytest.raises(NumericsError) as exc:
                shift_correction(train, val, plan, WIDE_SPEC, cfg)
            assert threading.active_count() == threads
            assert len(passes) == 1
            errors.append(str(exc.value))
        assert errors == ["non-finite cross-entropy loss"] * 2

    def test_a_visits_evaluation_error_comes_before_the_next_visits_training_error(
            self, force, monkeypatch):
        train, val, plan = wide_setup()
        step, evaluate_stack = trainer._step, trainer._evaluate_stack

        def failing_step(spec, members, v):
            if v == 1:
                raise NumericsError("training visit 1")
            step(spec, members, v)

        def failing_evaluation(*args):
            evaluate_stack(*args)
            raise TrainerError("evaluating visit 0")

        monkeypatch.setattr(trainer, "_step", failing_step)
        threads = threading.active_count()
        for threaded in (False, True):
            force(threaded)
            monkeypatch.setattr(trainer, "_evaluate_stack", failing_evaluation)
            with pytest.raises(TrainerError, match="evaluating visit 0"):
                shift_correction(train, val, plan, WIDE_SPEC, quick_config())
            assert threading.active_count() == threads

    @pytest.mark.parametrize("threshold, cpus, on_thread", [
        (0, 2, True), (0, 1, False), (1, 2, False),
    ], ids=["at-the-size", "one-cpu", "below-the-size"])
    def test_the_path_follows_the_size_and_the_cpu_count(self, force, monkeypatch,
                                                         threshold, cpus, on_thread):
        train, val, plan = wide_setup()
        passes = force(True)
        # The threshold sits at (or one value above) this run's pass size.
        monkeypatch.setattr(trainer, "_THREAD_EVAL_SIZE", val.n * 784 + threshold)
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: cpus)
        shift_correction(train, val, plan, WIDE_SPEC, quick_config(epochs=1))
        assert [on_main for on_main, _ in passes] == [not on_thread] * plan.batch_count


OPTIMIZERS = (OptimizerConfig(learning_rate=0.01), OptimizerConfig(kind="sgd", learning_rate=0.05))


def draw_stack(rng):
    """A mixed stack drawn by ``rng``: a spec of 10 or 784 inputs; one or two
    training sets, each cut by one or two plans, into near-equal batches or
    batches of random sizes (8 rows or more); a validation set of each
    training set's own and one that every run may share; and 4-8 runs of
    any mode, seed 0-2 and lambda 0, 0.1 or (with Adam, whose steps stay
    bounded) 1e12. Each run's optimizer (SGD or Adam), epochs (1-3) and
    minibatch size (5, 8, 16 or 32) are the draw's own or, a quarter of the
    time, drawn for the run, so that runs step in shared groups and in
    groups of their own."""
    dim = int(rng.choice([10, 784]))
    classes = int(rng.integers(2, 4))
    spec = MlpSpec(input_dim=dim, hidden_layers=((int(rng.integers(2, 6)), "relu"),),
                   output_classes=classes)
    weights = rng.normal(size=(dim, classes))

    def data(rows):
        x = rng.normal(size=(rows, dim))
        return Dataset(x, np.argmax(x @ weights, axis=1), classes)

    shared_validation = data(int(rng.integers(10, 30)))
    sources = []
    for _ in range(rng.integers(1, 3)):
        train = data(int(rng.integers(40, 100)))
        k = int(rng.integers(1, 5))
        if rng.integers(2):
            plans = [fragment(train, k)]
        else:
            sizes = 8 + rng.multinomial(train.n - 8 * k, [1 / k] * k)
            plans = [FragmentationPlan(tuple(sizes.tolist()))]
        if rng.integers(2):
            # The same batch sizes in reverse: runs of the two plans meet at
            # equal sizes after unequal numbers of steps.
            plans.append(FragmentationPlan(plans[0].sizes[::-1]))
        sources.append((train, plans, (data(int(rng.integers(10, 30))), shared_validation)))

    def optimizer():
        return OPTIMIZERS[rng.integers(len(OPTIMIZERS))]

    def epochs():
        return int(rng.integers(1, 4))

    def minibatch_size():
        return int(rng.choice([5, 8, 16, 32]))

    own = optimizer(), epochs(), minibatch_size()
    runs = []
    for _ in range(rng.integers(4, 9)):
        train, plans, validations = sources[rng.integers(len(sources))]
        opt, n_epochs, size = (mine if rng.integers(4) else fresh()
                               for mine, fresh in zip(own, (optimizer, epochs, minibatch_size)))
        lams = (0.0, 0.1, 1e12) if opt.kind == "adam" else (0.0, 0.1)
        cfg = TrainConfig(
            epochs=n_epochs,
            minibatch_size=size,
            optimizer=opt,
            penalty=PenaltyConfig(lam=float(rng.choice(lams))),
            seed=int(rng.integers(3)),
            baseline_mode=str(rng.choice(trainer.RUN_MODES)),
        )
        runs.append(Run(train, validations[rng.integers(2)], plans[rng.integers(len(plans))], cfg))
    return spec, runs


class TestStackContract:
    """A run's bytes do not depend on which runs share its stack, on their
    order, or on how the runs are cut into ``train_members`` calls; seeded
    draws of mixed stacks check it."""

    DRAWS = 12

    def test_the_draws_cover_every_kind_of_run_and_sharing(self):
        draws = [draw_stack(np.random.default_rng(draw)) for draw in range(self.DRAWS)]
        runs = [run for _, stack in draws for run in stack]
        c3 = {run.cfg.penalty.lam for run in runs if run.cfg.baseline_mode == "c3"}
        assert {run.cfg.baseline_mode for run in runs} == set(trainer.RUN_MODES)
        assert {0.0, 1e12} <= c3
        assert {run.cfg.optimizer.kind for run in runs} == {"adam", "sgd"}
        assert {run.cfg.epochs for run in runs} == {1, 2, 3}
        assert any(size % run.cfg.minibatch_size for run in runs for size in run.plan.sizes)
        assert {spec.input_dim for spec, _ in draws} == {10, 784}

        def shares(stack, part):
            """Whether two runs of ``stack`` share, and two do not share, ``part``."""
            ids = [id(getattr(run, part)) for run in stack]
            return len(set(ids)) < len(ids), len(set(ids)) > 1

        for part in ("dataset", "plan", "validation"):
            assert (True, True) in {shares(stack, part) for _, stack in draws}, part
        # Two plans of one training set in one stack.
        assert any(len({(id(a.dataset), id(a.plan)) for a in stack}) >
                   len({id(a.dataset) for a in stack}) for _, stack in draws)

    @pytest.mark.parametrize("draw", range(DRAWS))
    def test_a_drawn_stack_trains_each_run_as_alone(self, force, draw):
        rng = np.random.default_rng(draw)
        spec, runs = draw_stack(rng)
        alone = [shift_correction(*run[:3], spec, run.cfg) for run in runs]
        alone_json = [trace.to_json() for trace in alone]
        everyone = np.arange(len(runs))
        cuts = np.sort(rng.choice(everyone[1:], size=rng.integers(1, 3), replace=False))
        arrangements = {
            "whole": [everyone],
            "permuted": [rng.permutation(everyone)],
            "partitioned": np.split(rng.permutation(everyone), cuts),
        }
        for threaded in (False, True):
            passes = force(threaded)
            for name, calls in arrangements.items():
                traces = {}
                for call in calls:
                    traces.update(zip(call, train_members([runs[i] for i in call], spec),
                                      strict=True))
                for i, trace in traces.items():
                    assert trace.to_json() == alone_json[i], (name, i)
                    assert_same_run(trace, alone[i])
            assert {on_main for on_main, _ in passes} == {not threaded}


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
