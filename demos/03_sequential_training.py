"""Sequential training over drifting batches, with and without the penalty.

Generates a two-class dataset whose clusters drift batch by batch, trains a
small MLP through the batch sequence, and compares the plain warm-started
baseline against the penalised run. Also shows the penalty snapshot format
used to resume training across process restarts.
"""

import tempfile
from dataclasses import replace

import numpy as np

from fishershift import (
    PenaltyConfig,
    drift_benchmark_config,
    drift_benchmark_recipe,
    fragment,
    kl_diagnostic_matrix,
    load_state,
    save_state,
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
print("== Penalty state snapshot (resume across restarts) ==")
state = results[0.1].final_penalty_state
with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as fh:
    path = fh.name
save_state(state, path)
restored = load_state(path)
print(f"  batches consumed: {restored.batches_consumed}")
print(f"  accumulated samples: {restored.accumulated.sample_count}")
print(f"  fisher mass (sum of diagonal): {restored.accumulated.diagonal.sum():.4f}")
print(f"  diagonal intact after reload: "
      f"{np.array_equal(restored.accumulated.diagonal, state.accumulated.diagonal)}")
