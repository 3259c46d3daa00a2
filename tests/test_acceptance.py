"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Exact-math criteria run at tight tolerances; the
directional benchmark criteria run the stock drift scenario end to end.
"""

import hashlib
import itertools
import os
import struct
import time
from dataclasses import replace

import numpy as np
import pytest

from fishershift.bench import (
    ProtocolSpec,
    delta_value,
    derive_seed,
    drift_benchmark_config,
    drift_benchmark_recipe,
    lambda_sweep,
    tabular_spec,
    verify_report,
)
from fishershift.data import (
    DataError,
    load_csv,
    load_idx,
    fragment,
    synth_shift,
    train_validation_split,
    write_csv,
)
from fishershift.information import (
    Bernoulli,
    GaussianMean,
    GaussianMoments,
    crlb_verify,
    discrete_kl,
    empirical_fisher_diagonal,
    empirical_fisher_scalar,
    gaussian_kl,
    kl_second_order,
)
from fishershift.numerics import MlpSpec, init_params, loss_and_gradient
from fishershift.penalty import (
    PenaltyConfig,
    absorb_batch,
    penalty_gradient,
    penalty_value,
)
from fishershift.information import FisherEstimate
from fishershift.trainer import TrainConfig, shift_correction
from oracles import (
    central_difference_gradient,
    gaussian_kl_quadrature,
    hessian_diagonal_fd_oracle,
    max_relative_error,
    zero_params,
)


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_closed_form_kl_matches_quadrature():
    started = time.monotonic()
    grid = np.linspace(-3.0, 3.0, 5)
    var_grid = np.linspace(0.25, 4.0, 5)
    worst = 0.0
    for mu_p, var_p, mu_q, var_q in itertools.product(grid, var_grid, grid, var_grid):
        p = GaussianMoments(mu_p, var_p)
        q = GaussianMoments(mu_q, var_q)
        worst = max(worst, abs(gaussian_kl(p, q) - gaussian_kl_quadrature(p, q)))
    elapsed = time.monotonic() - started
    ok = worst < 1e-6 and elapsed < 5.0
    report_line(1, ok, f"625-point grid, worst |closed - quadrature| = {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < 5.0


def test_criterion_02_empirical_fisher_matches_analytic_and_hessian():
    started = time.monotonic()
    rng = np.random.default_rng(20)
    bern = Bernoulli()
    bern_emp = empirical_fisher_scalar(bern, 0.5, bern.simulate(rng, 0.5, 100_000))
    gauss = GaussianMean(4.0)
    gauss_emp = empirical_fisher_scalar(gauss, 0.0, gauss.simulate(rng, 0.0, 100_000))
    bern_err = abs(bern_emp - bern.fisher(0.5)) / 4.0
    gauss_err = abs(gauss_emp - gauss.fisher(0.0)) / 0.25

    # Logistic toy: one weight per class, smooth everywhere, labels sampled
    # from the model itself.
    spec = MlpSpec(input_dim=1, hidden_layers=(), output_classes=2, bias=False)
    params = zero_params(spec).with_values(np.array([0.0, 0.6]))
    x = rng.normal(size=(10_000, 1))
    from fishershift.numerics import cross_entropy_loss, forward

    _, prob = cross_entropy_loss(forward(spec, params, x), np.zeros(10_000, dtype=int))
    labels = (rng.random(10_000) > prob[:, 0]).astype(int)
    fisher = empirical_fisher_diagonal(spec, params, x, labels).diagonal
    hess = hessian_diagonal_fd_oracle(spec, params, x, labels)
    logistic_err = float(np.max(np.abs(fisher - hess) / np.abs(hess)))
    elapsed = time.monotonic() - started

    ok = bern_err < 0.02 and gauss_err < 0.02 and logistic_err < 0.05 and elapsed < 30.0
    report_line(
        2, ok,
        f"bernoulli {bern_emp:.4f} (err {bern_err:.2%}), gaussian {gauss_emp:.4f} "
        f"(err {gauss_err:.2%}), logistic vs Hessian err {logistic_err:.2%}, {elapsed:.1f}s",
    )
    assert bern_err < 0.02
    assert gauss_err < 0.02
    assert logistic_err < 0.05
    assert elapsed < 30.0


def test_criterion_03_crlb_suite():
    started = time.monotonic()
    cases = [
        (GaussianMean(1.0), 0.0, 10, 31),
        (GaussianMean(1.0), 0.0, 100, 32),
        (Bernoulli(), 0.5, 50, 33),
        (Bernoulli(), 0.5, 200, 34),
    ]
    details = []
    ok = True
    for family, param, n, seed in cases:
        check = crlb_verify(family, param, n=n, replications=10_000, seed=seed)
        ratio = check.estimator_variance / check.bound
        ok = ok and check.satisfied and abs(ratio - 1.0) <= 0.05
        details.append(f"{type(family).__name__} n={n}: var/bound={ratio:.4f}")
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    report_line(3, ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert ok


def test_criterion_04_taylor_link():
    errors = []
    for delta in (0.1, 0.05, 0.025):
        exact = discrete_kl([0.5, 0.5], [0.5 + delta, 0.5 - delta])
        approx = kl_second_order(0.5 + delta, 0.5, Bernoulli().fisher(0.5))
        errors.append(abs(exact - approx))
    ratio1 = errors[0] / errors[1]
    ratio2 = errors[1] / errors[2]

    shift = 0.35
    exact_gauss = gaussian_kl(GaussianMoments(0.0, 1.0), GaussianMoments(shift, 1.0))
    approx_gauss = kl_second_order(shift, 0.0, 1.0)
    gauss_gap = abs(exact_gauss - approx_gauss)

    ok = ratio1 >= 6.0 and ratio2 >= 6.0 and gauss_gap < 1e-12
    report_line(
        4, ok,
        f"bernoulli error ratios {ratio1:.1f}, {ratio2:.1f} (>= 6); "
        f"gaussian mean-shift gap {gauss_gap:.1e}",
    )
    assert ratio1 >= 6.0
    assert ratio2 >= 6.0
    assert gauss_gap < 1e-12


def test_criterion_05_reduction_invariant():
    started = time.monotonic()
    spec = tabular_spec(10)
    ok = True
    for k in (2, 5):
        recipe = drift_benchmark_recipe(batch_count=k)
        ds, _ = synth_shift(recipe, 1000 // k, seed=11)
        train, val, _, _ = train_validation_split(ds, 0.2, seed=11)
        plan = fragment(train, k)
        base = TrainConfig(epochs=3, minibatch_size=32, seed=11)

        snapshots = {"c3": [], "cv_sequential": []}
        traces = {}
        for mode, lam in (("c3", 0.0), ("cv_sequential", 0.7)):
            cfg = replace(base, baseline_mode=mode, penalty=PenaltyConfig(lam=lam))
            traces[mode] = shift_correction(
                train, val, plan, spec, cfg,
                batch_hook=lambda e, i, p, m=mode: snapshots[m].append(p.values.copy()),
            )
        trajectories_equal = all(
            np.array_equal(a, b) for a, b in zip(snapshots["c3"], snapshots["cv_sequential"])
        )
        traces_equal = (
            traces["c3"].records == traces["cv_sequential"].records
            and np.array_equal(
                traces["c3"].final_params.values, traces["cv_sequential"].final_params.values
            )
            and traces["c3"].to_json() == traces["cv_sequential"].to_json()
        )
        ok = ok and trajectories_equal and traces_equal
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    report_line(5, ok, f"K in (2, 5): bitwise trajectory and trace equality, {elapsed:.1f}s")
    assert ok


def test_criterion_06_gradient_fidelity():
    worst_ce = 0.0
    worst_pen = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        spec = MlpSpec(
            input_dim=int(rng.integers(2, 5)),
            hidden_layers=((int(rng.integers(2, 6)), "relu"),),
            output_classes=int(rng.integers(2, 4)),
        )
        params = init_params(spec, seed=seed + 500)
        x = rng.normal(size=(6, spec.input_dim))
        labels = rng.integers(0, spec.output_classes, size=6)

        def ce_at(theta):
            return loss_and_gradient(spec, params.with_values(theta), x, labels)[0]

        fd = central_difference_gradient(ce_at, params.values, step=1e-5)
        analytic = loss_and_gradient(spec, params, x, labels)[1].values
        worst_ce = max(worst_ce, max_relative_error(analytic, fd, floor=1e-8))

        anchor = params.with_values(params.values + rng.normal(scale=0.2, size=params.size))
        fisher = FisherEstimate(rng.uniform(0.05, 2.0, size=params.size), anchor, 10)
        cfg = PenaltyConfig(lam=0.3)
        state = absorb_batch(None, fisher)

        def pen_at(theta):
            return penalty_value(state, params.with_values(theta), cfg)

        # The penalty is exactly quadratic, so central differences carry no
        # truncation error; a generous step just shrinks the roundoff.
        fd_pen = central_difference_gradient(pen_at, params.values, step=1e-4)
        analytic_pen = penalty_gradient(state, params, cfg)
        worst_pen = max(worst_pen, max_relative_error(analytic_pen, fd_pen, floor=1e-8))

    ok = worst_ce < 1e-4 and worst_pen < 1e-6
    report_line(
        6, ok,
        f"20 instances: CE max rel err {worst_ce:.2e} (< 1e-4), "
        f"penalty max rel err {worst_pen:.2e} (< 1e-6)",
    )
    assert worst_ce < 1e-4
    assert worst_pen < 1e-6


def run_drift_cell(k: int, lam: float, mode: str, seed: int):
    spec = tabular_spec(10)
    recipe = drift_benchmark_recipe(batch_count=k)
    ds, _ = synth_shift(recipe, 5000 // k, seed=seed)
    train, val, _, _ = train_validation_split(ds, 0.2, seed=seed)
    plan = fragment(train, k)
    cfg = replace(
        drift_benchmark_config(seed=seed),
        baseline_mode=mode,
        penalty=PenaltyConfig(lam=lam),
    )
    trace = shift_correction(train, val, plan, spec, cfg)
    return float(np.mean(trace.per_batch_accuracies())) * 100.0


def test_criterion_07_directional_batchwise_trend():
    started = time.monotonic()
    ok = True
    details = []
    for k in (2, 5):
        key = f"batchwise:{round(1.0 / k, 2)}:{k}"
        gaps = []
        for rep in range(5):
            seed = derive_seed(0, key, rep)
            penalised = run_drift_cell(k, 0.1, "c3", seed)
            plain = run_drift_cell(k, 0.0, "cv_sequential", seed)
            gaps.append(penalised - plain)
        mean_gap = float(np.mean(gaps))
        positives = sum(g > 0 for g in gaps)
        ok = ok and mean_gap >= 2.0 and positives >= 4
        details.append(f"K={k}: mean gap {mean_gap:+.2f}pp, positive {positives}/5")
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 600.0
    report_line(7, ok, "; ".join(details) + f", {elapsed:.0f}s")
    assert ok


CRITERION_08_REPORT_SHA256 = "5b5dc25be909e4e25f87f4b6f721e4de7d30321e54130c8c2d1ad389ba95c748"


def test_criterion_08_lambda_sweep_shape():
    started = time.monotonic()
    spec = tabular_spec(10)
    recipe = drift_benchmark_recipe(batch_count=2)
    proto = ProtocolSpec(splits=((0.5, 2),), repetitions=5)
    report = lambda_sweep(
        recipe, (0.01, 0.04, 0.07, 0.1), proto, drift_benchmark_config(seed=0), spec,
        samples=5000,
    )
    verify_report(report)
    series = report.lambda_series
    best_lam, best_acc = max(series, key=lambda point: point[1])
    # The same sweep is the benchmark's sweep_drift2 operation at seed 0; its
    # report bytes are pinned there too (perfbench/golden.json).
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    elapsed = time.monotonic() - started
    ok = best_lam == 0.1 and digest == CRITERION_08_REPORT_SHA256
    report_line(
        8, ok,
        "grid " + ", ".join(f"{lam:g}:{acc:.2f}" for lam, acc in series)
        + f"; best lambda = {best_lam:g}; report sha256 {digest[:16]}, {elapsed:.0f}s",
    )
    assert best_lam == 0.1
    assert digest == CRITERION_08_REPORT_SHA256


def test_criterion_09_report_integrity():
    d1 = delta_value(97.9, 94.8)
    d3 = delta_value(91.2, 88.7)
    arithmetic_ok = abs(d1 - 3.1) < 1e-9 and abs(d3 - 2.5) < 1e-9

    recipe = drift_benchmark_recipe(batch_count=2)
    cfg = replace(drift_benchmark_config(seed=0), epochs=2)
    proto = ProtocolSpec(splits=((0.5, 2),), repetitions=2)
    report = lambda_sweep(recipe, (cfg.penalty.lam,), proto, cfg, tabular_spec(10), samples=400)
    verify_report(report)  # raises on any stored-column inconsistency

    ok = arithmetic_ok
    report_line(
        9, ok,
        f"delta arithmetic (97.9, 94.8) -> {d1:.10g}, (91.2, 88.7) -> {d3:.10g}; "
        "emitted report columns verified against raw accuracies at 1e-9",
    )
    assert arithmetic_ok


def test_criterion_10_ingestion_round_trips(tmp_path):
    # CSV: write -> read is value-identical for canonical datasets.
    recipe = drift_benchmark_recipe(batch_count=3)
    ds, _ = synth_shift(recipe, 40, seed=13)
    csv_path = tmp_path / "round.csv"
    write_csv(ds, csv_path)
    back = load_csv(csv_path, label_column="label")
    csv_ok = (
        np.array_equal(back.features, ds.features)
        and np.array_equal(back.labels, ds.labels)
        and back.class_count == ds.class_count
    )

    # Hand-built binary fixture: 1 image of 2x2 pixels.
    images = tmp_path / "images.idx"
    labels = tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 1, 2, 2) + bytes([0, 255, 128, 64]))
    labels.write_bytes(struct.pack(">II", 0x801, 1) + bytes([3]))
    idx = load_idx(images, labels)
    idx_ok = np.array_equal(idx.features[0], np.array([0, 255, 128, 64]) / 255.0) and (
        idx.labels.tolist() == [3]
    )

    diagnostics_ok = True
    bad_magic = tmp_path / "bad_magic.idx"
    bad_magic.write_bytes(struct.pack(">IIII", 0x802, 1, 1, 1) + bytes([0]))
    with pytest.raises(DataError, match="unsupported magic"):
        load_idx(bad_magic, labels)
    short = tmp_path / "short.idx"
    short.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes([1, 2, 3]))
    with pytest.raises(DataError, match="truncated payload"):
        load_idx(short, labels)
    mismatch_labels = tmp_path / "mismatch.idx"
    mismatch_labels.write_bytes(struct.pack(">II", 0x801, 3) + bytes([0, 1, 2]))
    with pytest.raises(DataError, match="count mismatch"):
        load_idx(images, mismatch_labels)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(empty, label_column=0, has_header=False)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0,a\n1.0,b\n")
    with pytest.raises(DataError, match="ragged row"):
        load_csv(ragged, label_column=2, has_header=False)
    non_numeric = tmp_path / "nonnum.csv"
    non_numeric.write_text("1.0,oops,a\n")
    with pytest.raises(DataError, match="non-numeric feature"):
        load_csv(non_numeric, label_column=2, has_header=False)
    missing_label = tmp_path / "nolabel.csv"
    missing_label.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(DataError, match="label column"):
        load_csv(missing_label, label_column="label")

    ok = csv_ok and idx_ok and diagnostics_ok
    report_line(
        10, ok,
        "CSV write->read identity; binary fixture parses to exact /255 values; "
        "all malformed inputs raise their named diagnostics",
    )
    assert ok


MNIST_DIR = os.environ.get("FISHERSHIFT_MNIST_DIR", os.path.join("data", "mnist"))
MNIST_IMAGES = os.path.join(MNIST_DIR, "train-images-idx3-ubyte")
MNIST_LABELS = os.path.join(MNIST_DIR, "train-labels-idx1-ubyte")


@pytest.mark.skipif(
    not (os.path.exists(MNIST_IMAGES) and os.path.exists(MNIST_LABELS)),
    reason="digit-image files not supplied locally",
)
def test_criterion_11_optional_mnist_desk_scale():
    started = time.monotonic()
    full = load_idx(MNIST_IMAGES, MNIST_LABELS)
    subset = full.subset(np.arange(0, full.n, 10))  # 10% stride subset
    spec = MlpSpec(input_dim=subset.dim, hidden_layers=((16, "relu"),), output_classes=10)
    gaps = []
    for seed in range(3):
        train, val, _, _ = train_validation_split(subset, 0.2, seed=seed, shuffle=True)
        plan = fragment(train, 10)
        accs = {}
        for lam, mode in ((0.1, "c3"), (0.0, "cv_sequential")):
            cfg = TrainConfig(
                epochs=3, minibatch_size=32, seed=seed, baseline_mode=mode,
                penalty=PenaltyConfig(lam=lam),
            )
            trace = shift_correction(train, val, plan, spec, cfg)
            accs[mode] = float(np.mean(trace.per_batch_accuracies()))
        gaps.append((accs["c3"] - accs["cv_sequential"]) * 100.0)
    elapsed = time.monotonic() - started
    ok = float(np.mean(gaps)) >= 0.0 and elapsed < 900.0
    report_line(11, ok, f"digit-image mean gap {np.mean(gaps):+.2f}pp over 3 seeds, {elapsed:.0f}s")
    assert float(np.mean(gaps)) >= 0.0
    assert elapsed < 900.0
