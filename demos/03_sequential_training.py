"""Sequential training over drifting batches, with and without the penalty.

Generates a two-class dataset whose clusters drift batch by batch, trains a
small MLP through the batch sequence, and compares the plain warm-started
baseline against the penalised run. Then resumes a penalised run from the
in-process trace of its first batches and checks it against one continuous
run. Writes no files.
"""

from dataclasses import replace

import numpy as np

from fishershift import (
    PenaltyConfig,
    drift_benchmark_config,
    drift_benchmark_recipe,
    fragment,
    kl_diagnostic_matrix,
    shift_correction,
    synth_shift,
    tabular_spec,
    train_validation_split,
)

K = 5
recipe = drift_benchmark_recipe(batch_count=K)
dataset, _ = synth_shift(recipe, 1000, seed=7)
train, validation, _, _ = train_validation_split(dataset, 0.2, seed=7)
plan = fragment(train, K)  # K consecutive batches: the rows keep their causal order
spec = tabular_spec(recipe.features)

print("== Pairwise batch-distribution KL (rows drift away from columns) ==")
matrix = kl_diagnostic_matrix(train, plan)
for row in matrix:
    print("  " + "  ".join(f"{v:7.3f}" for v in row))

print()
print("== Per-batch validation accuracy after each visit (last epoch) ==")
results = {}
for lam in (0.0, 0.1):
    cfg = replace(drift_benchmark_config(seed=7), penalty=PenaltyConfig(lam=lam))
    if lam == 0.0:
        cfg = replace(cfg, baseline_mode="cv_sequential")
    results[lam] = shift_correction(train, validation, plan, spec, cfg)
    accs = results[lam].per_batch_accuracies()
    mean = float(np.mean(accs)) * 100
    cells = "  ".join(f"{a * 100:5.1f}" for a in accs)
    print(f"  lambda={lam:<4}  [{cells}]  mean {mean:5.2f}%")

gap = (np.mean(results[0.1].per_batch_accuracies())
       - np.mean(results[0.0].per_batch_accuracies())) * 100
print(f"  penalty advantage: {gap:+.2f} percentage points")

print()
print("== Resume: batches 0-1, then 2-3 from the first run's trace (one epoch) ==")
cfg = replace(drift_benchmark_config(seed=7), epochs=1, penalty=PenaltyConfig(lam=0.1))


def batches(*indices):
    """The rows of the given batches, in order, with a plan that keeps them apart."""
    part = train.subset(np.r_[tuple(plan.batch(i) for i in indices)])
    return part, fragment(part, len(indices))


head_rows, head_plan = batches(0, 1)
head = shift_correction(head_rows, validation, head_plan, spec, cfg)
tail_rows, tail_plan = batches(2, 3)
tail = shift_correction(tail_rows, validation, tail_plan, spec, cfg, resume=head)
full_rows, full_plan = batches(0, 1, 2, 3)
full = shift_correction(full_rows, validation, full_plan, spec, cfg)
same = np.array_equal(tail.final_params.values, full.final_params.values)
print(f"  final parameters equal the continuous run's: {same}")
state = tail.final_penalty_state
print(f"  accumulated samples: {state.sample_count}")
print(f"  fisher mass (sum of diagonal): {state.diagonal.sum():.4f}")
