"""Experiment harness: split grids, repetition averaging, and report emission.

A protocol names a list of batchwise splits (training fraction, batch count)
or a foldwise fold count, and ``lambda_sweep`` runs it at a grid of penalty
strengths; a single strength is a one-point grid. The
unit of work is the split. Each repetition, seeded by hashing the split
configuration, materialises its data, validation set and plan once
(``batchwise_split``, as ``train`` does; foldwise, once per fold rotation)
and trains ``cv_independent`` once (``trainer.shift_correction``). Then
``cv_sequential`` and the penalised trainer at every distinct lambda, for
every repetition, train once each, together as one stack
(``trainer.train_members``): the baselines do not depend on lambda, and
any runs may share a stack. ``jobs`` (at least 1, capped at the usable
CPUs, which more processes would only share) cuts each split's
repetitions into chunks, one stack per chunk; every (split, chunk) task of
the sweep goes through one ``map``, in at most ``jobs`` processes, and the
report bytes do not depend on it. The split's outcomes are one table, per
repetition: ``cv_independent``, ``cv_sequential``, then ``c3`` at each
distinct lambda, each K batch accuracies and the final accuracy. Every lambda
row reads its three columns from it, averaged over repetitions. Reports
store the raw per-batch accuracy columns next to every derived statistic so
a verifier can recompute them; printed deltas are never trusted anywhere.
The harness leaves ``delta2`` null: it has no reference run to compare
against, and the verifier rejects a report that carries one.

Accuracies inside reports are percentages, matching the tabular layout the
markdown emitter renders.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import (
    Dataset,
    FragmentationPlan,
    ShiftRecipe,
    fragment,
    row_order,
    shuffle_rows,
    synth_shift,
    train_validation_split,
)
from .numerics import (
    MlpSpec,
    OptimizerConfig,
    canonical_json,
    check_version,
    fields_from_json,
    json_field,
    json_object,
)
from . import trainer
from .penalty import PenaltyConfig
from .trainer import RUN_MODES, Run, TrainConfig, shift_correction, train_members

REPORT_SCHEMA_VERSION = 1

BATCHWISE_GRID = ((0.05, 20), (0.10, 10), (0.15, 6), (0.20, 5), (0.25, 4), (0.50, 2))

LAMBDA_GRID = (0.01, 0.04, 0.07, 0.1)


class BenchError(ValueError):
    """Invalid protocol or report payload."""


@dataclass(frozen=True)
class ProtocolSpec:
    """Grid definition: which splits (or folds), how many repetitions."""

    mode: str = "batchwise"
    splits: tuple[tuple[float, int], ...] = BATCHWISE_GRID
    folds: int = 5
    repetitions: int = 5
    validation_fraction: float = 0.2
    shuffle: bool | None = None

    def __post_init__(self):
        if self.mode not in ("batchwise", "foldwise"):
            raise BenchError(f"unknown protocol mode {self.mode!r}")
        if self.repetitions < 1:
            raise BenchError("repetitions must be >= 1")
        if not 0 < self.validation_fraction < 1:
            raise BenchError(
                f"validation_fraction must lie in (0, 1), got {self.validation_fraction}"
            )
        if self.mode == "foldwise" and self.folds < 2:
            raise BenchError("foldwise mode needs at least 2 folds")
        if len(set(self.splits)) != len(self.splits):
            raise BenchError("splits must be distinct")
        for fraction, k in self.splits:
            if k < 1:
                raise BenchError(f"batch count must be >= 1, got {k}")
            # The fraction is display metadata rounded to the nearest 5%, so
            # it must sit within half a step of 1/K.
            if abs(fraction - 1.0 / k) > 0.025 + 1e-12:
                raise BenchError(
                    f"split fraction {fraction} inconsistent with batch count {k}"
                )


def derive_seed(base_seed: int, cell_key: str, rep: int) -> int:
    """Stable 63-bit seed from the base seed, cell description, and repetition."""
    digest = hashlib.sha256(f"{base_seed}|{cell_key}|{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ReportRow:
    """One grid cell: raw accuracy columns plus recomputable statistics."""

    label: str
    fraction: float | None
    batch_count: int
    lam: float
    seeds: tuple[int, ...]
    config_hash: str
    batch_acc: dict[str, tuple[float, ...]]
    final_acc: dict[str, float]
    mean: dict[str, float]
    variance: dict[str, float]
    delta1: float | None
    delta2: float | None
    delta3: float | None

    def to_json_dict(self) -> dict:
        # "skipped" is a key of the report format, which no sweep sets.
        payload = {**asdict(self), "skipped": False}
        payload["lambda"] = payload.pop("lam")
        payload["seeds"] = list(self.seeds)
        payload["batch_acc"] = {m: list(v) for m, v in self.batch_acc.items()}
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict, where: str = "report row") -> "ReportRow":
        """Parse one row; a missing key, a wrongly typed value or a skipped
        row is a BenchError."""
        payload = dict(json_object(payload, where, BenchError))
        if "skipped" in payload and json_field(payload, "skipped", bool, where, BenchError):
            raise BenchError(f"{where}: a skipped row holds no outcomes to report")
        payload.pop("skipped", None)
        fields = fields_from_json(cls, payload, where, BenchError, keys={"lam": "lambda"})
        fields["seeds"] = tuple(fields["seeds"])
        fields["batch_acc"] = {m: tuple(v) for m, v in fields["batch_acc"].items()}
        return cls(**fields)


@dataclass(frozen=True)
class ExperimentReport:
    """Full harness output. It holds no wall-clock timing, so emitted reports
    are reproducible bit for bit."""

    base_seed: int
    rows: tuple[ReportRow, ...]
    lambda_series: tuple[tuple[float, float], ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "base_seed": self.base_seed,
            "rows": [r.to_json_dict() for r in self.rows],
            "lambda_series": [list(point) for point in self.lambda_series],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ExperimentReport":
        """Parse a report; a missing key or a wrongly typed value is a BenchError."""
        json_object(payload, "report", BenchError)
        check_version(payload, "schema_version", REPORT_SCHEMA_VERSION, "report schema",
                      BenchError)
        base_seed = json_field(payload, "base_seed", int, "report", BenchError)
        rows = json_field(payload, "rows", list, "report", BenchError)
        series = json_field(
            payload, "lambda_series", tuple[tuple[float, float], ...], "report", BenchError
        )
        return cls(
            base_seed=base_seed,
            rows=tuple(
                ReportRow.from_json_dict(r, f"report row {i}") for i, r in enumerate(rows)
            ),
            lambda_series=tuple((p[0], p[1]) for p in series),
        )


def delta_value(a: float, b: float) -> float:
    """Plain difference, used for every report delta column."""
    return a - b


def population_variance(values) -> float:
    return float(np.var(np.asarray(values, dtype=np.float64)))


def _cell_key(mode: str, fraction, k: int) -> str:
    # The penalty strength stays out of the key so sweep cells share data
    # draws and initialisations: lambda comparisons are then paired.
    return f"{mode}:{fraction}:{k}"


def _config_hash(cell_key: str, train_cfg: TrainConfig, spec: MlpSpec) -> str:
    payload = json.dumps(
        {
            "cell": cell_key,
            "epochs": train_cfg.epochs,
            "minibatch": train_cfg.minibatch_size,
            "optimizer": [
                train_cfg.optimizer.kind,
                train_cfg.optimizer.learning_rate,
                train_cfg.optimizer.beta1,
                train_cfg.optimizer.beta2,
                train_cfg.optimizer.eps,
            ],
            "penalty_mode": train_cfg.penalty.mode,
            "accumulation": train_cfg.penalty.accumulation,
            "spec": [spec.input_dim, list(spec.layer_dims), spec.bias] + (
                # Listed only off the default, so every relu hash keeps its bytes.
                [[a for _, a in spec.hidden_layers]]
                if any(a != "relu" for _, a in spec.hidden_layers) else []
            ),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _materialise(source, k: int, samples_per_batch: int, seed: int) -> Dataset:
    if isinstance(source, ShiftRecipe):
        recipe = replace(source, batch_count=k)
        return synth_shift(recipe, samples_per_batch, seed=seed)[0]
    if isinstance(source, Dataset):
        return source
    raise BenchError(f"unsupported data source {type(source).__name__}")


def batchwise_split(
    source, k: int, samples_per_batch: int, validation_fraction: float,
    shuffle: bool | None, seed: int,
) -> tuple[Dataset, Dataset, FragmentationPlan]:
    """(train, validation, plan) of one batchwise run: ``source`` (a recipe
    drawn as ``k`` batches of ``samples_per_batch`` rows, or a dataset) loses
    a seeded holdout, and the rest, shuffled if ``shuffle_rows`` says so,
    becomes ``k`` ordered batches."""
    dataset = _materialise(source, k, samples_per_batch, seed)
    train, val, train_idx, val_idx = train_validation_split(
        dataset, validation_fraction, seed=seed, shuffle=shuffle_rows(source, shuffle)
    )
    # A mask, not np.intersect1d: np.unique would import numpy.ma.
    held_out = np.zeros(dataset.n, dtype=bool)
    held_out[val_idx] = True
    if held_out[train_idx].any():
        raise BenchError("validation rows overlap the training rows")
    return train, val, fragment(train, k)


def _accuracies(trace) -> list[float]:
    """Per-batch accuracies, then the final accuracy, of one run, in percent."""
    return [a * 100.0 for a in trace.per_batch_accuracies()] + [trace.final_accuracy() * 100.0]


def _rep_splits(source, proto: ProtocolSpec, k: int, seed: int, samples: int) -> list[tuple]:
    """The (train, validation, plan) splits of one repetition: one batchwise
    split (``batchwise_split``, as ``train`` makes it), or one per foldwise
    rotation, each fold held out once. Folds are consecutive runs of the
    dataset's rows, shuffled first if ``shuffle_rows`` says so."""
    count, unit = (k, "batches") if proto.mode == "batchwise" else (proto.folds, "folds")
    if isinstance(source, ShiftRecipe) and samples // count < 2:
        raise BenchError(f"samples {samples} gives fewer than 2 rows to each of {count} {unit}")
    if proto.mode == "batchwise":
        return [batchwise_split(
            source, k, samples // k, proto.validation_fraction, proto.shuffle, seed
        )]
    dataset = _materialise(source, proto.folds, samples // proto.folds, seed)
    order = row_order(dataset.n, seed, shuffle_rows(source, proto.shuffle))
    folds = fragment(dataset, proto.folds)
    sizes = folds.sizes
    splits = []
    for rot in range(proto.folds):
        held_out = folds.batch(rot)
        splits.append((
            dataset.subset(np.delete(order, held_out)),
            dataset.subset(order[held_out]),
            FragmentationPlan(sizes[:rot] + sizes[rot + 1:]),
        ))
    return splits


def _run_reps(args) -> np.ndarray:
    """The outcome table of the repetitions ``seeds`` of one split; one
    argument tuple, so that one ``map`` call runs every task of a sweep.

    Every repetition materialises its data, validation set and plan once
    per split (one, or one per foldwise rotation) and trains
    ``cv_independent`` on each through ``shift_correction``. Then
    ``cv_sequential`` and ``c3`` at each of the distinct ``lambdas``, on
    every split of every repetition, train together as one
    ``train_members`` stack. Returns a (repetitions, 2 + L, K + 1) array:
    columns ``cv_independent``, ``cv_sequential``, then ``c3`` per lambda,
    each the K batch accuracies and the final accuracy, in percent,
    averaged over the repetition's splits.
    """
    (source, proto, train_cfg, spec, k, lambdas, seeds, samples) = args
    splits, independent = [], []
    for seed in seeds:
        for train, val, plan in _rep_splits(source, proto, k, seed, samples):
            splits.append((seed, train, val, plan))
            independent.append(_accuracies(shift_correction(
                train, val, plan, spec, _mode_config(train_cfg, "cv_independent", 0.0, seed)
            )))
    modes = [("cv_sequential", 0.0)] + [("c3", lam) for lam in lambdas]
    stacked = train_members(
        [Run(train, val, plan, _mode_config(train_cfg, mode, lam, seed))
         for seed, train, val, plan in splits for mode, lam in modes],
        spec,
    )
    table = np.concatenate([
        np.asarray(independent)[:, None],
        np.asarray([_accuracies(trace) for trace in stacked]).reshape(len(splits), len(modes), -1),
    ], axis=1).reshape(len(seeds), len(splits) // len(seeds), len(modes) + 1, -1)
    # Along a non-final axis numpy adds the splits one at a time, in order.
    return table.sum(axis=1) / table.shape[1]


def _mode_config(train_cfg: TrainConfig, mode: str, lam: float, seed: int) -> TrainConfig:
    return replace(
        train_cfg, seed=seed, baseline_mode=mode, penalty=replace(train_cfg.penalty, lam=lam)
    )


def _chunks(seeds: list[int], jobs: int) -> list[list[int]]:
    """``seeds`` cut into at most ``jobs`` consecutive chunks of near-equal
    length, the longer ones first."""
    count = min(jobs, len(seeds))
    size, extra = divmod(len(seeds), count)
    bounds = np.cumsum([0] + [size + (1 if c < extra else 0) for c in range(count)])
    return [seeds[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _splits(proto: ProtocolSpec) -> tuple[tuple, ...]:
    """(fraction, batch count) of each split; foldwise has one, of folds - 1 batches."""
    if proto.mode == "batchwise":
        return proto.splits
    return ((None, proto.folds - 1),)


def _statistics(batch_acc) -> dict:
    """A row's ``mean``, ``variance``, ``delta1`` and ``delta3`` from its batch
    accuracies, the one derivation ``_row`` writes and ``verify_report`` checks."""
    mean = {mode: float(np.mean(accs)) for mode, accs in batch_acc.items()}
    variance = {mode: population_variance(accs) for mode, accs in batch_acc.items()}
    return dict(mean=mean, variance=variance,
                delta1=delta_value(mean["c3"], mean["cv_independent"]),
                delta3=delta_value(mean["c3"], mean["cv_sequential"]))


def _row(label, fraction, k, lam, config_hash, seeds, outcomes):
    """The report row of one (split, lambda). ``outcomes`` is a (repetitions,
    3, K + 1) table whose columns follow ``RUN_MODES``."""
    tables = dict(zip(RUN_MODES, outcomes.transpose(1, 0, 2)))
    # Rounding: batch accuracies reduce along axis 0, the final one is a 1-D mean.
    batch_acc = {mode: tuple(t[:, :k].mean(axis=0).tolist()) for mode, t in tables.items()}
    final_acc = {mode: float(np.mean(t[:, k])) for mode, t in tables.items()}
    return ReportRow(
        label=label,
        fraction=fraction,
        batch_count=k,
        lam=lam,
        seeds=tuple(seeds),
        config_hash=config_hash,
        batch_acc=batch_acc,
        final_acc=final_acc,
        delta2=None,
        **_statistics(batch_acc),
    )


def _row_label(proto: ProtocolSpec, fraction, k: int) -> str:
    if proto.mode == "batchwise":
        return f"Training data = {fraction:.0%} , batches = {k}"
    return f"Foldwise k = {proto.folds}"


def lambda_sweep(
    source,
    values,
    proto: ProtocolSpec,
    train_cfg: TrainConfig,
    spec: MlpSpec,
    samples: int = 5000,
    jobs: int = 1,
) -> ExperimentReport:
    """One report row per (split, lambda), split-major, and the (lambda,
    mean c3 accuracy) series in ``lambda_series``; ``values`` defaults to
    ``LAMBDA_GRID``. ``source`` is a fixed dataset or a drift recipe, drawn
    again for each repetition with its derived seed, so the repetitions
    average over data draws as well as initialisations."""
    values = tuple(LAMBDA_GRID if values is None else values)
    if not values:
        raise BenchError("lambda sweep needs at least one value")
    if not all(math.isfinite(v) and v >= 0 for v in values):
        raise BenchError("lambda values must be finite and >= 0")
    if jobs < 1:
        raise BenchError(f"jobs must be >= 1, got {jobs}")
    distinct = tuple(dict.fromkeys(values))
    jobs = min(jobs, trainer._usable_cpus())
    splits, tasks = [], []
    for fraction, k in _splits(proto):
        key = _cell_key(proto.mode, fraction, k)
        seeds = [derive_seed(train_cfg.seed, key, r) for r in range(proto.repetitions)]
        chunks = _chunks(seeds, jobs)
        splits.append((fraction, k, key, seeds, len(chunks)))
        tasks.extend((source, proto, train_cfg, spec, k, distinct, chunk, samples)
                     for chunk in chunks)
    workers = min(jobs, len(tasks))
    if workers == 1:
        tables = list(map(_run_reps, tasks))
    else:
        # Imported here, so a run in one process never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                tables = list(pool.map(_run_reps, tasks))
        except BrokenProcessPool:  # the pool has terminated every other worker
            raise BenchError(
                "a sweep worker process ended abruptly (killed, or out of memory)"
            ) from None
    rows = []
    for fraction, k, key, seeds, count in splits:
        table, tables = np.concatenate(tables[:count]), tables[count:]
        label = _row_label(proto, fraction, k)
        config_hash = _config_hash(key, train_cfg, spec)
        # A row's columns, in RUN_MODES order: c3 at lam, cv_sequential, cv_independent.
        rows.extend(
            _row(label, fraction, k, lam, config_hash, seeds,
                 table[:, [2 + distinct.index(lam), 1, 0]])
            for lam in values
        )
    return ExperimentReport(
        base_seed=train_cfg.seed,
        rows=tuple(rows),
        lambda_series=_lambda_series(rows, values),
    )


def _lambda_series(rows, grid) -> tuple[tuple[float, float], ...]:
    """(lambda, mean c3 accuracy over the rows at that lambda), in grid order."""
    return tuple(
        (lam, float(np.mean([r.mean["c3"] for r in rows if r.lam == lam]))) for lam in grid
    )


def _report_grid(rows) -> list[float]:
    """The lambda grid of a report: the lambdas of its first split's rows.

    Every split carries one row per grid entry, split-major, and splits are
    distinct, so the first split's rows are the leading rows that share its
    label, fraction and batch count.
    """
    if not rows:
        return []
    first = (rows[0].label, rows[0].fraction, rows[0].batch_count)
    grid = []
    for row in rows:
        if (row.label, row.fraction, row.batch_count) != first:
            break
        grid.append(row.lam)
    return grid


# Absolute tolerance of every recomputed report column, in percent.
VERIFY_TOL = 1e-9


def _finite(value) -> bool:
    """False for NaN, the infinities and integers beyond the float range."""
    return abs(value) <= sys.float_info.max


def _close(a: float, b: float) -> bool:
    return _finite(a) and _finite(b) and abs(a - b) <= VERIFY_TOL


def verify_report(report: ExperimentReport) -> None:
    """Recompute every derived column from the stored raw accuracies.

    Raises on the first discrepancy; printed deltas are never trusted. A
    report that carries a lambda series must carry exactly the series its
    rows give; a report read from a file may carry none. ``delta2`` must be
    null, because no reference accuracy is stored to recompute it from. The
    raw numbers (lambda >= 0, fraction, both accuracy columns) must be finite.
    """
    for row in report.rows:
        name = f"{row.label} | lambda={row.lam}"
        if row.delta2 is not None:
            raise BenchError(
                f"{name}: delta2 must be null: "
                "no reference accuracy is stored to check it against"
            )
        if not (_finite(row.lam) and row.lam >= 0):
            raise BenchError(f"{name}: lambda must be a finite number >= 0")
        for column, numbers in (("fraction", [row.fraction or 0.0]),
                                ("final_acc", row.final_acc.values()),
                                ("batch_acc", sum(row.batch_acc.values(), ()))):
            if not all(map(_finite, numbers)):
                raise BenchError(f"{name}: {column} must hold finite numbers")
        if row.batch_count < 1:
            raise BenchError(f"{row.label}: batch_count must be >= 1, got {row.batch_count}")
        for column in ("batch_acc", "final_acc", "mean", "variance"):
            if set(getattr(row, column)) != set(RUN_MODES):
                raise BenchError(f"{row.label}: {column} must hold exactly the modes {RUN_MODES}")
        for mode, accs in row.batch_acc.items():
            if len(accs) != row.batch_count:
                raise BenchError(f"{row.label}: {mode} holds {len(accs)} batch accuracies")
        derived = _statistics(row.batch_acc)
        for mode in RUN_MODES:
            for column in ("mean", "variance"):
                if not _close(derived[column][mode], getattr(row, column)[mode]):
                    raise BenchError(f"{row.label}: stored {column} for {mode} is inconsistent")
        for column in ("delta1", "delta3"):
            stored = getattr(row, column)
            if stored is None or not _close(stored, derived[column]):
                raise BenchError(f"{row.label}: stored {column} is inconsistent")
    if report.lambda_series:
        expected = _lambda_series(report.rows, _report_grid(report.rows))
        stored = report.lambda_series
        if len(stored) != len(expected) or not all(
            lam == want_lam and _close(acc, want_acc)
            for (lam, acc), (want_lam, want_acc) in zip(stored, expected)
        ):
            raise BenchError("stored lambda series is inconsistent with the rows")


def format_delta(value: float | None) -> str:
    if value is None:
        return ""
    rounded = round(value, 1)
    if rounded == 0.0:
        return "0"
    arrow = "↑" if rounded > 0 else "↓"
    return f"{arrow} {abs(rounded):.1f}"


def emit_report(report: ExperimentReport, fmt: str) -> str:
    """Render the report as canonical JSON, flat CSV, or tabular markdown."""
    if fmt == "json":
        return report.to_json()
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "markdown":
        return _emit_markdown(report)
    raise BenchError(f"unknown report format {fmt!r}")


def _emit_csv(report: ExperimentReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["config", "metric", "value"])
    for row in report.rows:
        config = f"{row.label} | lambda={row.lam}"
        for mode in RUN_MODES:
            for i, acc in enumerate(row.batch_acc[mode]):
                writer.writerow([config, f"{mode}.B{i + 1}", repr(acc)])
            writer.writerow([config, f"{mode}.mean", repr(row.mean[mode])])
            writer.writerow([config, f"{mode}.variance", repr(row.variance[mode])])
            writer.writerow([config, f"{mode}.final", repr(row.final_acc[mode])])
        writer.writerow([config, "delta1", repr(row.delta1)])
        if row.delta2 is not None:
            writer.writerow([config, "delta2", repr(row.delta2)])
        writer.writerow([config, "delta3", repr(row.delta3)])
    for lam, acc in report.lambda_series:
        writer.writerow(["lambda_series", repr(lam), repr(acc)])
    return buffer.getvalue()


def _emit_markdown(report: ExperimentReport) -> str:
    lines = []
    for row in report.rows:
        lines.append(f"### {row.label} (λ = {row.lam:g})")
        lines.append("")
        k = row.batch_count
        header = ["run"] + [f"B{i + 1}" for i in range(k)]
        header += ["μ", "σ²", "Δ₁", "Δ₂", "Δ₃"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + " --- |" * len(header))
        for mode in RUN_MODES:
            cells = [mode]
            cells += [f"{a:.1f}" for a in row.batch_acc[mode]]
            cells += [f"{row.mean[mode]:.2f}", f"{row.variance[mode]:.2f}"]
            if mode == "c3":
                cells += [format_delta(row.delta1), format_delta(row.delta2), format_delta(row.delta3)]
            else:
                cells += ["", "", ""]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    if report.lambda_series:
        lines.append("### λ sweep")
        lines.append("")
        lines.append("| λ | mean accuracy |")
        lines.append("| --- | --- |")
        for lam, acc in report.lambda_series:
            lines.append(f"| {lam:g} | {acc:.2f} |")
        lines.append("")
    return "\n".join(lines)


def emit_series_csv(series) -> str:
    """Two-column (lambda, accuracy) CSV for external plotting."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["lambda", "mean_accuracy"])
    for lam, acc in series:
        writer.writerow([repr(float(lam)), repr(float(acc))])
    return buffer.getvalue()


def drift_benchmark_recipe(batch_count: int = 5) -> ShiftRecipe:
    """The stock drift scenario the acceptance checks and demos run on."""
    return ShiftRecipe(
        kind="mean_drift",
        batch_count=batch_count,
        features=10,
        classes=2,
        separation=3.0,
        delta=0.75,
        alignment=1.0,
    )


def drift_benchmark_config(lam: float = 0.1, seed: int = 0) -> TrainConfig:
    """Training configuration calibrated for the stock drift scenario.

    The 4-unit tabular net needs a large Adam step to adapt within the few
    dozen minibatch steps one batch visit allows; at timid rates both the
    penalised and plain runs under-adapt identically and the comparison says
    nothing.
    """
    return TrainConfig(
        epochs=15,
        minibatch_size=32,
        optimizer=OptimizerConfig(kind="adam", learning_rate=0.15),
        penalty=PenaltyConfig(lam=lam),
        seed=seed,
        baseline_mode="c3",
    )


def tabular_spec(input_dim: int, classes: int = 2) -> MlpSpec:
    """Stock tabular model: one hidden layer of 4 relu units."""
    return MlpSpec(input_dim=input_dim, hidden_layers=((4, "relu"),), output_classes=classes)
