"""Command-line surface: train, sweep, synth, and report subcommands.

Every run is reproducible from its flags: all randomness flows from --seed,
output files are written atomically, and rerunning an invocation produces
byte-identical artifacts. Argument problems exit with status 2 and a usage
message; runtime failures exit with status 1 and a diagnostic.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bench import (
    LAMBDA_GRID,
    BenchError,
    ProtocolSpec,
    batchwise_split,
    emit_report,
    emit_series_csv,
    ExperimentReport,
    lambda_sweep,
    verify_report,
)
from .data import (
    DataError,
    Dataset,
    ShiftRecipe,
    load_csv,
    load_idx,
    synth_shift,
    write_csv,
)
from .information import InformationError
from .numerics import (
    ACTIVATIONS,
    OPTIMIZER_KINDS,
    MlpSpec,
    NumericsError,
    OptimizerConfig,
    canonical_json,
    read_json,
    write_atomic,
)
from .penalty import ACCUMULATION_MODES, PenaltyConfig, PenaltyError
from .trainer import RUN_MODES, TrainConfig, TrainerError, shift_correction

USER_ERRORS = (
    DataError,
    TrainerError,
    PenaltyError,
    BenchError,
    InformationError,
    NumericsError,
    OSError,
)


# --shuffle: "auto" leaves the choice to data.shuffle_rows.
SHUFFLE_CHOICES = {"auto": None, "on": True, "off": False}


class DefaultsHelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends "(default: ...)" to a flag's help only when the default is a
    value: a ``None`` default means the flag is required, optional or worked
    out elsewhere, and its help text says which."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


def add_source_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("data source (choose exactly one)")
    group.add_argument("--synth", metavar="RECIPE.json", help="synthetic drift recipe")
    group.add_argument("--csv", metavar="PATH", help="numeric CSV dataset")
    group.add_argument("--idx-images", metavar="PATH", help="binary image file")
    group.add_argument("--idx-labels", metavar="PATH", help="binary label file")
    parser.add_argument("--label-column", default="label",
                        help="CSV label column name or 0-based index")
    parser.add_argument("--no-header", action="store_true",
                        help="treat the CSV as headerless")


def parse_label_column(raw: str):
    try:
        return int(raw)
    except ValueError:
        return raw


def resolve_source(args, parser: argparse.ArgumentParser):
    chosen = [name for name in ("synth", "csv", "idx_images") if getattr(args, name)]
    if len(chosen) != 1:
        parser.error("exactly one data source is required (--synth, --csv, or --idx-images)")
    if args.idx_images and not args.idx_labels:
        parser.error("--idx-images requires --idx-labels")
    if args.synth:
        return ShiftRecipe.from_json_file(args.synth)
    if args.csv:
        return load_csv(args.csv, parse_label_column(args.label_column),
                        has_header=not args.no_header)
    return load_idx(args.idx_images, args.idx_labels)


def model_spec(args, input_dim: int, classes: int) -> MlpSpec:
    hidden = tuple((w, args.activation) for w in args.hidden) if args.hidden else ()
    return MlpSpec(input_dim=input_dim, hidden_layers=hidden, output_classes=classes)


def train_config(args, baseline: str) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        minibatch_size=args.minibatch,
        optimizer=OptimizerConfig(kind=args.optimizer, learning_rate=args.learning_rate),
        penalty=PenaltyConfig(lam=getattr(args, "lambda"), accumulation=args.accumulation),
        seed=args.seed,
        baseline_mode=baseline,
    )


def add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda", type=float, default=0.1,
                        help="penalty strength; 0 disables the mechanism")
    parser.add_argument("--accumulation", choices=ACCUMULATION_MODES, default="sum",
                        help="how consumed batches combine their Fisher mass")
    parser.add_argument("--epochs", type=int, default=10, help="passes over the batch sequence")
    parser.add_argument("--minibatch", type=int, default=32, help="minibatch size within a batch")
    parser.add_argument("--optimizer", choices=OPTIMIZER_KINDS, default="adam",
                        help="update rule")
    parser.add_argument("--learning-rate", type=float, default=1e-3, help="optimizer step size")
    parser.add_argument("--hidden", type=int, nargs="*", default=[4],
                        help="hidden layer widths; empty for a linear model")
    parser.add_argument("--activation", choices=ACTIVATIONS, default="relu",
                        help="hidden activation")
    parser.add_argument("--val-fraction", type=float, default=0.2,
                        help="holdout fraction carved off before fragmentation")
    parser.add_argument("--shuffle", choices=list(SHUFFLE_CHOICES), default="auto",
                        help="shuffle rows before splitting into batches; "
                             "auto shuffles datasets but not drift recipes")
    parser.add_argument("--seed", type=int, default=0, help="single source of randomness")


def validate_common(args, parser) -> None:
    if args.epochs < 1:
        parser.error("--epochs must be >= 1")
    if args.minibatch < 1:
        parser.error("--minibatch must be >= 1")
    if getattr(args, "lambda") < 0:
        parser.error("--lambda must be >= 0")
    if not 0 < args.val_fraction < 1:
        parser.error("--val-fraction must lie in (0, 1)")
    if args.batches is not None and args.batches < 1:
        parser.error("--batches must be >= 1")


def cmd_train(args, parser) -> int:
    validate_common(args, parser)
    if args.samples_per_batch < 2:
        parser.error("--samples-per-batch must be >= 2")
    source = resolve_source(args, parser)

    k = args.batches
    if k is None:
        k = source.batch_count if isinstance(source, ShiftRecipe) else 5
    train, validation, plan = batchwise_split(
        source, k, args.samples_per_batch, args.val_fraction,
        SHUFFLE_CHOICES[args.shuffle], args.seed,
    )
    spec = model_spec(args, train.dim, train.class_count)
    cfg = train_config(args, args.baseline)
    trace = shift_correction(train, validation, plan, spec, cfg)
    write_atomic(args.out, trace.to_json())
    accs = trace.per_batch_accuracies()
    print(f"wrote {args.out}: {len(trace.records)} records, "
          f"mean batch accuracy {100.0 * sum(accs) / len(accs):.2f}%")
    return 0


def cmd_sweep(args, parser) -> int:
    validate_common(args, parser)
    if args.values is not None:
        raw = [v for v in args.values.split(",") if v.strip()]
        if not raw:
            parser.error("--values must list at least one lambda")
        try:
            values = tuple(float(v) for v in raw)
        except ValueError:
            parser.error(f"--values contains a non-numeric entry: {args.values!r}")
        if any(v < 0 for v in values):
            parser.error("--values entries must be >= 0")
    else:
        values = None
    if args.repetitions < 1:
        parser.error("--repetitions must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    source = resolve_source(args, parser)
    common = dict(repetitions=args.repetitions, validation_fraction=args.val_fraction,
                  shuffle=SHUFFLE_CHOICES[args.shuffle])
    if args.protocol == "foldwise":
        proto = ProtocolSpec(mode="foldwise", folds=args.folds, **common)
    else:
        fraction = round(1.0 / args.batches, 4)
        proto = ProtocolSpec(mode="batchwise", splits=((fraction, args.batches),), **common)
    if isinstance(source, Dataset):
        input_dim, classes = source.dim, source.class_count
    else:
        input_dim, classes = source.features, source.classes
    spec = model_spec(args, input_dim, classes)
    cfg = train_config(args, "c3")
    report, series = lambda_sweep(
        source, values, proto, cfg, spec, samples=args.samples, jobs=args.jobs
    )
    verify_report(report)
    write_atomic(args.out, report.to_json())
    series_path = args.series_out or os.path.splitext(args.out)[0] + ".series.csv"
    write_atomic(series_path, emit_series_csv(series))
    print(f"wrote {args.out} ({len(report.rows)} rows) and {series_path}")
    return 0


def cmd_synth(args, parser) -> int:
    if args.samples_per_batch < 2:
        parser.error("--samples-per-batch must be >= 2")
    recipe = ShiftRecipe.from_json_file(args.recipe)
    dataset, plan = synth_shift(recipe, args.samples_per_batch, seed=args.seed)
    write_csv(dataset, args.out)
    meta = {
        "recipe": recipe.to_dict(),
        "samples_per_batch": args.samples_per_batch,
        "seed": args.seed,
        "rows": dataset.n,
        "batch_sizes": list(plan.batch_sizes()),
    }
    write_atomic(args.out + ".meta.json", canonical_json(meta))
    print(f"wrote {args.out} ({dataset.n} rows, {recipe.batch_count} ordered batches)")
    return 0


def cmd_report(args, parser) -> int:
    report = ExperimentReport.from_json_dict(read_json(args.infile, BenchError))
    verify_report(report)
    rendered = emit_report(report, args.format)
    if args.out:
        write_atomic(args.out, rendered)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(rendered)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fishershift",
        description="Sequential-batch training with an accumulated Fisher-information penalty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = DefaultsHelpFormatter

    p_train = sub.add_parser("train", formatter_class=fmt,
                             help="run one training pass over ordered batches")
    add_source_flags(p_train)
    add_train_flags(p_train)
    p_train.add_argument("--batches", type=int, default=None,
                         help="number of ordered batches "
                              "(default: the recipe's batch count, or 5 for file sources)")
    p_train.add_argument("--baseline", choices=RUN_MODES, default="c3", help="training mode")
    p_train.add_argument("--samples-per-batch", type=int, default=500,
                         help="rows generated per batch for --synth")
    p_train.add_argument("--out", required=True, help="run trace JSON path")

    p_sweep = sub.add_parser("sweep", formatter_class=fmt,
                             help="benchmark a grid of penalty strengths")
    add_source_flags(p_sweep)
    add_train_flags(p_sweep)
    p_sweep.add_argument("--values", default=None,
                         help="comma-separated lambda grid; omitted, the stock grid "
                              + ",".join(f"{v:g}" for v in LAMBDA_GRID))
    p_sweep.add_argument("--protocol", choices=("batchwise", "foldwise"), default="batchwise",
                         help="split scheme")
    p_sweep.add_argument("--batches", type=int, default=5, help="batch count (batchwise)")
    p_sweep.add_argument("--folds", type=int, default=5, help="fold count (foldwise)")
    p_sweep.add_argument("--repetitions", type=int, default=5,
                         help="averaging repetitions with derived seeds")
    p_sweep.add_argument("--samples", type=int, default=5000,
                         help="total rows to generate for recipe sources")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p_sweep.add_argument("--out", required=True, help="report JSON path")
    p_sweep.add_argument("--series-out", default=None,
                         help="lambda/accuracy CSV path (default: <out>.series.csv)")

    p_synth = sub.add_parser("synth", formatter_class=fmt,
                             help="materialise a drift recipe to CSV")
    p_synth.add_argument("--recipe", required=True, help="recipe JSON path")
    p_synth.add_argument("--samples-per-batch", type=int, default=500,
                         help="rows generated per batch")
    p_synth.add_argument("--seed", type=int, default=0, help="single source of randomness")
    p_synth.add_argument("--out", required=True, help="CSV output path")

    p_report = sub.add_parser("report", formatter_class=fmt,
                              help="render a report as json, csv, or markdown")
    p_report.add_argument("--in", dest="infile", required=True, help="report JSON path")
    p_report.add_argument("--format", choices=("json", "csv", "markdown"), default="markdown")
    p_report.add_argument("--out", default=None, help="output path (default: stdout)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "sweep": cmd_sweep,
        "synth": cmd_synth,
        "report": cmd_report,
    }
    try:
        # Every non-finite value that matters raises a NumericsError with a
        # one-line diagnostic, so numpy's own floating-point warnings would
        # only add lines in front of it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return handlers[args.command](args, parser)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
