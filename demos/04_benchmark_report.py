"""The experiment harness end to end: grid run, report, and penalty sweep.

Runs a reduced split grid on the stock drift scenario at one penalty
strength (a one-point sweep), renders the markdown report the batchwise
tables use, verifies the stored statistics against the raw accuracy columns,
and sweeps the penalty grid for the strength-response series.
"""

from fishershift import (
    ProtocolSpec,
    drift_benchmark_config,
    drift_benchmark_recipe,
    emit_report,
    emit_series_csv,
    lambda_sweep,
    tabular_spec,
    verify_report,
)

recipe = drift_benchmark_recipe()
cfg = drift_benchmark_config(lam=0.1, seed=0)
spec = tabular_spec(recipe.features)

print("== Split grid: 50%x2 and 20%x5 cells, 2 repetitions ==")
proto = ProtocolSpec(splits=((0.50, 2), (0.20, 5)), repetitions=2)
report = lambda_sweep(recipe, (cfg.penalty.lam,), proto, cfg, spec, samples=2000)
verify_report(report)
print("(derived statistics re-verified against raw columns)")
print()
print(emit_report(report, "markdown"))

print("== Penalty-strength sweep on the 2-batch cell ==")
sweep_proto = ProtocolSpec(splits=((0.50, 2),), repetitions=2)
sweep_report = lambda_sweep(
    recipe, (0.01, 0.04, 0.07, 0.1), sweep_proto, cfg, spec, samples=2000
)
verify_report(sweep_report)
print(emit_series_csv(sweep_report.lambda_series))
print("Accuracy rises with the penalty strength on drifting batches; the")
print("series CSV above is the two-column plot input.")
