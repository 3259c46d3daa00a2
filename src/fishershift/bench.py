"""Experiment harness: split grids, repetition averaging, and report emission.

A protocol names a list of batchwise splits (training fraction, batch count)
or a foldwise fold count, and a sweep adds a grid of penalty strengths. The
unit of work is one (split, repetition), seeded by hashing the split
configuration: it materialises the data, the validation split and the plan
once, trains both cross-validation baselines once (they do not depend on
lambda), then the penalised trainer once per distinct lambda. Every lambda
row of the split shares those baseline outcomes, averaged over repetitions.
A time budget is checked before each split, and an exhausted budget skips
the whole split: all of its lambda rows. Reports store the raw per-batch
accuracy columns next to every derived statistic so a verifier can recompute
them; printed deltas are never trusted anywhere.

Accuracies inside reports are percentages, matching the tabular layout the
markdown emitter renders.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import (
    Dataset,
    FragmentationPlan,
    ShiftRecipe,
    fragment,
    synth_shift,
    train_validation_split,
)
from .numerics import MlpSpec, OptimizerConfig
from .penalty import PenaltyConfig
from .trainer import TrainConfig, shift_correction

REPORT_SCHEMA_VERSION = 1

BATCHWISE_GRID = ((0.05, 20), (0.10, 10), (0.15, 6), (0.20, 5), (0.25, 4), (0.50, 2))

LAMBDA_GRID = (0.01, 0.04, 0.07, 0.1)

RUN_MODES = ("c3", "cv_sequential", "cv_independent")
_BASELINES = RUN_MODES[1:]


class BenchError(ValueError):
    """Invalid protocol or report payload."""


@dataclass(frozen=True)
class ProtocolSpec:
    """Grid definition: which splits (or folds), how many repetitions."""

    mode: str = "batchwise"
    splits: tuple[tuple[float, int], ...] = BATCHWISE_GRID
    folds: int = 5
    lambda_grid: tuple[float, ...] = LAMBDA_GRID
    repetitions: int = 5
    validation_fraction: float = 0.2
    shuffle: bool | None = None
    time_budget_s: float | None = None

    def __post_init__(self):
        if self.mode not in ("batchwise", "foldwise"):
            raise BenchError(f"unknown protocol mode {self.mode!r}")
        if self.repetitions < 1:
            raise BenchError("repetitions must be >= 1")
        if self.mode == "foldwise" and self.folds < 2:
            raise BenchError("foldwise mode needs at least 2 folds")
        if any(lam < 0 for lam in self.lambda_grid):
            raise BenchError("lambda grid values must be >= 0")
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


def recalibrated(cfg: PenaltyConfig) -> PenaltyConfig:
    """Loss-recalibration variant: scales the penalty term by 1/(1+lam).

    Implemented as an effective strength lam/(1+lam), which keeps loss and
    gradient consistent while shrinking the penalty share of the total
    gradient.
    """
    return replace(cfg, lam=cfg.lam / (1.0 + cfg.lam))


def derive_seed(base_seed: int, cell_key: str, rep: int) -> int:
    """Stable 63-bit seed from the base seed, cell description, and repetition."""
    digest = hashlib.sha256(f"{base_seed}|{cell_key}|{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_mode_map(value, check) -> bool:
    return isinstance(value, dict) and all(
        isinstance(k, str) and check(v) for k, v in value.items()
    )


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


# Payload value kinds: (predicate, what the error message says is expected).
_KINDS = {
    "string": (lambda v: isinstance(v, str), "a string"),
    "boolean": (lambda v: isinstance(v, bool), "a boolean"),
    "integer": (_is_int, "an integer"),
    "number": (_is_number, "a number"),
    "number or null": (lambda v: v is None or _is_number(v), "a number or null"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "integers": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
    "mode numbers": (lambda v: _is_mode_map(v, _is_number), "an object of numbers"),
    "mode number lists": (
        lambda v: _is_mode_map(v, _is_number_list), "an object of number lists"
    ),
    "series": (
        lambda v: isinstance(v, list)
        and all(isinstance(p, list) and len(p) == 2 and _is_number_list(p) for p in v),
        "a list of [lambda, accuracy] pairs",
    ),
}

_ROW_FIELDS = {
    "label": "string",
    "fraction": "number or null",
    "batch_count": "integer",
    "lambda": "number",
    "seeds": "integers",
    "config_hash": "string",
    "batch_acc": "mode number lists",
    "final_acc": "mode numbers",
    "mean": "mode numbers",
    "variance": "mode numbers",
    "delta1": "number or null",
    "delta2": "number or null",
    "delta3": "number or null",
    "skipped": "boolean",
}


def _field(payload: dict, key: str, kind: str, where: str):
    if key not in payload:
        raise BenchError(f"{where}: missing key {key!r}")
    check, expected = _KINDS[kind]
    if not check(payload[key]):
        raise BenchError(f"{where}: {key!r} must be {expected}")
    return payload[key]


@dataclass(frozen=True)
class ReportRow:
    """One grid cell: raw accuracy columns plus recomputable statistics."""

    label: str
    fraction: float | None
    batch_count: int
    lam: float
    seeds: tuple[int, ...]
    config_hash: str
    batch_acc: dict
    final_acc: dict
    mean: dict
    variance: dict
    delta1: float | None
    delta2: float | None
    delta3: float | None
    skipped: bool = False

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "fraction": self.fraction,
            "batch_count": self.batch_count,
            "lambda": self.lam,
            "seeds": list(self.seeds),
            "config_hash": self.config_hash,
            "batch_acc": {m: list(v) for m, v in self.batch_acc.items()},
            "final_acc": dict(self.final_acc),
            "mean": dict(self.mean),
            "variance": dict(self.variance),
            "delta1": self.delta1,
            "delta2": self.delta2,
            "delta3": self.delta3,
            "skipped": self.skipped,
        }

    @classmethod
    def from_json_dict(cls, payload: dict, where: str = "report row") -> "ReportRow":
        """Parse one row; a missing key or a wrongly typed value is a BenchError."""
        if not isinstance(payload, dict):
            raise BenchError(f"{where} must be a JSON object")
        fields = {key: _field(payload, key, kind, where) for key, kind in _ROW_FIELDS.items()}
        return cls(
            label=fields["label"],
            fraction=fields["fraction"],
            batch_count=fields["batch_count"],
            lam=fields["lambda"],
            seeds=tuple(fields["seeds"]),
            config_hash=fields["config_hash"],
            batch_acc={m: tuple(v) for m, v in fields["batch_acc"].items()},
            final_acc=dict(fields["final_acc"]),
            mean=dict(fields["mean"]),
            variance=dict(fields["variance"]),
            delta1=fields["delta1"],
            delta2=fields["delta2"],
            delta3=fields["delta3"],
            skipped=fields["skipped"],
        )


@dataclass(frozen=True)
class ExperimentReport:
    """Full harness output; ``wall_time_s`` stays out of the serialised form
    so emitted reports are reproducible bit for bit."""

    base_seed: int
    rows: tuple[ReportRow, ...]
    lambda_series: tuple[tuple[float, float], ...] = ()
    wall_time_s: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "base_seed": self.base_seed,
            "rows": [r.to_json_dict() for r in self.rows],
            "lambda_series": [list(point) for point in self.lambda_series],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ExperimentReport":
        """Parse a report; a missing key or a wrongly typed value is a BenchError."""
        if not isinstance(payload, dict):
            raise BenchError("report must be a JSON object")
        if payload.get("schema_version") != REPORT_SCHEMA_VERSION:
            raise BenchError(f"unsupported report schema {payload.get('schema_version')!r}")
        base_seed = _field(payload, "base_seed", "integer", "report")
        rows = _field(payload, "rows", "list", "report")
        series = _field(payload, "lambda_series", "series", "report")
        return cls(
            base_seed=base_seed,
            rows=tuple(
                ReportRow.from_json_dict(r, f"report row {i}") for i, r in enumerate(rows)
            ),
            lambda_series=tuple((p[0], p[1]) for p in series),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        return cls.from_json_dict(json.loads(text))


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
            "spec": [spec.input_dim, list(spec.layer_dims), spec.bias],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _plan_from_sizes(sizes) -> FragmentationPlan:
    boundaries = []
    start = 0
    for size in sizes:
        boundaries.append((start, start + size))
        start += size
    return FragmentationPlan(len(sizes), np.arange(start), tuple(boundaries))


def _materialise(source, k: int, samples: int, seed: int):
    if isinstance(source, ShiftRecipe):
        recipe = replace(source, batch_count=k)
        dataset, _ = synth_shift(recipe, max(2, samples // k), seed=seed)
        return dataset, False  # drift data: never shuffle away the order
    if isinstance(source, Dataset):
        return source, True  # clean data: shuffle before splitting
    raise BenchError(f"unsupported data source {type(source).__name__}")


def _accuracies(trace) -> tuple[list[float], float]:
    """Per-batch and final validation accuracy of one run, in percent."""
    return [a * 100.0 for a in trace.per_batch_accuracies()], trace.final_accuracy() * 100.0


def _train_split(train, val, plan, spec, train_cfg, seed, lambdas) -> list[dict]:
    """Every distinct training of one (train, validation, plan) split.

    Both baselines train once, and ``c3`` once per distinct lambda; returns
    one ``{mode: (batch accuracies, final accuracy)}`` outcome per entry of
    ``lambdas``, each holding the shared baseline outcomes.
    """
    baselines = {
        mode: _accuracies(
            shift_correction(train, val, plan, spec, _mode_config(train_cfg, mode, 0.0, seed))
        )
        for mode in _BASELINES
    }
    c3 = {
        lam: _accuracies(
            shift_correction(train, val, plan, spec, _mode_config(train_cfg, "c3", lam, seed))
        )
        for lam in dict.fromkeys(lambdas)
    }
    return [{"c3": c3[lam], **baselines} for lam in lambdas]


def _run_split_rep(args) -> list[dict]:
    """One (split, repetition) unit of work; shaped for executor.map.

    Materialises the data, the validation split and the plan once, then
    trains through ``_train_split``; foldwise mode averages the outcomes over
    the fold rotations. Returns one outcome per entry of ``lambdas``.
    """
    (source, proto, train_cfg, spec, k, lambdas, seed, samples) = args
    stages = k if proto.mode == "batchwise" else proto.folds
    dataset, shuffle_default = _materialise(source, stages, samples, seed)
    shuffle = proto.shuffle if proto.shuffle is not None else shuffle_default

    if proto.mode == "batchwise":
        train, val, train_idx, val_idx = train_validation_split(
            dataset, proto.validation_fraction, seed=seed
        )
        if np.intersect1d(train_idx, val_idx).size:
            raise BenchError("validation rows overlap the training rows")
        plan = fragment(train, k, seed=seed, shuffle=shuffle)
        return _train_split(train, val, plan, spec, train_cfg, seed, lambdas)

    folds = fragment(dataset, proto.folds, seed=seed, shuffle=shuffle)
    rotations = []
    for rot in range(proto.folds):
        val = dataset.subset(folds.batch_indices(rot))
        train_rows = [folds.batch_indices(i) for i in range(proto.folds) if i != rot]
        train = dataset.subset(np.concatenate(train_rows))
        plan = _plan_from_sizes([rows.size for rows in train_rows])
        rotations.append(_train_split(train, val, plan, spec, train_cfg, seed, lambdas))
    outcomes = []
    for j in range(len(lambdas)):
        outcome = {}
        for mode in RUN_MODES:
            sums = np.zeros(proto.folds - 1)
            final = 0.0
            for rotation in rotations:
                accs, rotation_final = rotation[j][mode]
                sums += np.asarray(accs)
                final += rotation_final
            outcome[mode] = ((sums / proto.folds).tolist(), final / proto.folds)
        outcomes.append(outcome)
    return outcomes


def _mode_config(train_cfg: TrainConfig, mode: str, lam: float, seed: int) -> TrainConfig:
    lam_eff = lam if mode == "c3" else 0.0
    return replace(
        train_cfg,
        seed=seed,
        baseline_mode=mode,
        penalty=replace(train_cfg.penalty, lam=lam_eff),
    )


def _splits(proto: ProtocolSpec) -> tuple[tuple, ...]:
    """(fraction, batch count) of each split; foldwise has one, of folds - 1 batches."""
    if proto.mode == "batchwise":
        return proto.splits
    return ((None, proto.folds - 1),)


def _assemble_row(label, fraction, k, lam, seeds, config_hash, rep_outcomes, reference):
    batch_acc = {}
    final_acc = {}
    for mode in RUN_MODES:
        stacked = np.asarray([out[mode][0] for out in rep_outcomes])
        batch_acc[mode] = tuple(stacked.mean(axis=0).tolist())
        final_acc[mode] = float(np.mean([out[mode][1] for out in rep_outcomes]))
    mean = {mode: float(np.mean(batch_acc[mode])) for mode in RUN_MODES}
    variance = {mode: population_variance(batch_acc[mode]) for mode in RUN_MODES}
    return ReportRow(
        label=label,
        fraction=fraction,
        batch_count=k,
        lam=lam,
        seeds=tuple(seeds),
        config_hash=config_hash,
        batch_acc=batch_acc,
        final_acc=final_acc,
        mean=mean,
        variance=variance,
        delta1=delta_value(mean["c3"], mean["cv_independent"]),
        delta2=delta_value(mean["c3"], reference) if reference is not None else None,
        delta3=delta_value(mean["c3"], mean["cv_sequential"]),
        skipped=False,
    )


def _skipped_row(label, fraction, k, lam, config_hash) -> ReportRow:
    return ReportRow(
        label=label,
        fraction=fraction,
        batch_count=k,
        lam=lam,
        seeds=(),
        config_hash=config_hash,
        batch_acc={},
        final_acc={},
        mean={},
        variance={},
        delta1=None,
        delta2=None,
        delta3=None,
        skipped=True,
    )


def _row_label(proto: ProtocolSpec, fraction, k: int) -> str:
    if proto.mode == "batchwise":
        return f"Training data = {fraction:.0%} , batches = {k}"
    return f"Foldwise k = {proto.folds}"


def _execute(source, proto, train_cfg, spec, lambdas, samples, reference, jobs):
    """One report row per (split, lambda), split-major.

    The unit of work is (split, repetition): its baselines run once and are
    shared by every lambda row of the split. The time budget is checked
    before each split, and an exhausted budget skips all of its rows.
    """
    started = time.monotonic()
    rows = []
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        for fraction, k in _splits(proto):
            key = _cell_key(proto.mode, fraction, k)
            label = _row_label(proto, fraction, k)
            config_hash = _config_hash(key, train_cfg, spec)
            if (
                proto.time_budget_s is not None
                and time.monotonic() - started > proto.time_budget_s
            ):
                rows.extend(_skipped_row(label, fraction, k, lam, config_hash) for lam in lambdas)
                continue
            seeds = [derive_seed(train_cfg.seed, key, r) for r in range(proto.repetitions)]
            tasks = [
                (source, proto, train_cfg, spec, k, tuple(lambdas), seed, samples)
                for seed in seeds
            ]
            if pool is not None:
                per_rep = list(pool.map(_run_split_rep, tasks))
            else:
                per_rep = [_run_split_rep(task) for task in tasks]
            for j, lam in enumerate(lambdas):
                rep_outcomes = [outcomes[j] for outcomes in per_rep]
                rows.append(
                    _assemble_row(
                        label, fraction, k, lam, seeds, config_hash, rep_outcomes, reference
                    )
                )
    finally:
        if pool is not None:
            pool.shutdown()
    return rows, time.monotonic() - started


def run_protocol(
    source,
    proto: ProtocolSpec,
    train_cfg: TrainConfig,
    spec: MlpSpec,
    samples: int = 5000,
    reference_accuracy: float | None = None,
    jobs: int = 1,
) -> ExperimentReport:
    """Run every grid cell at the train config's penalty strength and report.

    ``source`` is either a fixed dataset or a drift recipe; recipes are
    re-materialised per repetition with the derived seed, so the repetitions
    average over data draws as well as initialisations.
    """
    rows, elapsed = _execute(
        source, proto, train_cfg, spec, [train_cfg.penalty.lam], samples,
        reference_accuracy, jobs,
    )
    return ExperimentReport(
        base_seed=train_cfg.seed, rows=tuple(rows), wall_time_s=elapsed
    )


def lambda_sweep(
    source,
    values,
    proto: ProtocolSpec,
    train_cfg: TrainConfig,
    spec: MlpSpec,
    samples: int = 5000,
    jobs: int = 1,
) -> tuple[ExperimentReport, tuple[tuple[float, float], ...]]:
    """One report row per (split, lambda); returns the (lambda, accuracy) series."""
    values = tuple(proto.lambda_grid if values is None else values)
    if not values:
        raise BenchError("lambda sweep needs at least one value")
    if any(v < 0 for v in values):
        raise BenchError("lambda values must be >= 0")
    rows, elapsed = _execute(source, proto, train_cfg, spec, values, samples, None, jobs)
    report = ExperimentReport(
        base_seed=train_cfg.seed,
        rows=tuple(rows),
        lambda_series=_lambda_series(rows, values),
        wall_time_s=elapsed,
    )
    return report, report.lambda_series


def _lambda_series(rows, grid) -> tuple[tuple[float, float], ...]:
    """(lambda, mean c3 accuracy over the non-skipped rows at that lambda), in
    grid order; a lambda whose rows were all skipped has no point."""
    series = []
    for lam in grid:
        cells = [r for r in rows if r.lam == lam and not r.skipped]
        if cells:
            series.append((lam, float(np.mean([r.mean["c3"] for r in cells]))))
    return tuple(series)


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


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol  # False for NaN


def verify_report(report: ExperimentReport, tol: float = 1e-9) -> None:
    """Recompute every derived column from the stored raw accuracies.

    Raises on the first discrepancy; printed deltas are never trusted. A
    report that carries a lambda series (``lambda_sweep``) must carry exactly
    the series its rows give.
    """
    for row in report.rows:
        if row.skipped:
            continue
        for column in ("batch_acc", "final_acc", "mean", "variance"):
            if set(getattr(row, column)) != set(RUN_MODES):
                raise BenchError(f"{row.label}: {column} must hold exactly the modes {RUN_MODES}")
        for mode, accs in row.batch_acc.items():
            if len(accs) != row.batch_count:
                raise BenchError(f"{row.label}: {mode} holds {len(accs)} batch accuracies")
            if not _close(float(np.mean(accs)), row.mean[mode], tol):
                raise BenchError(f"{row.label}: stored mean for {mode} is inconsistent")
            if not _close(population_variance(accs), row.variance[mode], tol):
                raise BenchError(f"{row.label}: stored variance for {mode} is inconsistent")
        for name, other in (("delta1", "cv_independent"), ("delta3", "cv_sequential")):
            stored = getattr(row, name)
            if stored is None or not _close(stored, row.mean["c3"] - row.mean[other], tol):
                raise BenchError(f"{row.label}: stored {name} is inconsistent")
    if report.lambda_series:
        expected = _lambda_series(report.rows, _report_grid(report.rows))
        stored = report.lambda_series
        if len(stored) != len(expected) or not all(
            lam == want_lam and _close(acc, want_acc, tol)
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


MODE_TITLES = {
    "c3": "c3",
    "cv_sequential": "cv_sequential",
    "cv_independent": "cv_independent",
}


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
        if row.skipped:
            writer.writerow([config, "skipped", "true"])
            continue
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
        if row.skipped:
            lines.append("_skipped: time budget exhausted_")
            lines.append("")
            continue
        k = row.batch_count
        header = ["run"] + [f"B{i + 1}" for i in range(k)]
        header += ["μ", "σ²", "Δ₁", "Δ₂", "Δ₃"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + " --- |" * len(header))
        for mode in RUN_MODES:
            cells = [MODE_TITLES[mode]]
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
