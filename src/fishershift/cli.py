"""Command-line surface: train, sweep, synth, and report subcommands.

Every run is reproducible from its flags: all randomness flows from --seed,
output files are written atomically, and rerunning an invocation produces
byte-identical artifacts. Each flag's argparse type is its domain, and
``check_flag_pairs`` holds the rules that involve two flags, so an argument
error exits 2 with usage before any file is read; a file or runtime failure
exits 1 with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import math
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
from .penalty import PenaltyConfig, PenaltyError
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


def domain(kind, holds, wanted):
    """An argparse type: what ``kind`` parses and ``holds`` accepts, else exit 2."""
    def parse(text: str):
        try:
            value = kind(text)
            if holds(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
    return parse


AT_LEAST_1 = domain(int, lambda v: v >= 1, "an integer >= 1")
AT_LEAST_2 = domain(int, lambda v: v >= 2, "an integer >= 2")
SEED = domain(int, lambda v: v >= 0, "an integer >= 0")
STRENGTH = domain(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
RATE = domain(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
FRACTION = domain(float, lambda v: 0 < v < 1, "a number in (0, 1)")
STRENGTHS = domain(lambda text: tuple(STRENGTH(v) for v in text.split(",") if v.strip()),
                   lambda vs: len(vs) > 0, "a comma list of at least one finite number >= 0")


def add_source_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("data source")
    source = group.add_mutually_exclusive_group(required=True)
    source.add_argument("--synth", metavar="RECIPE.json", help="synthetic drift recipe")
    source.add_argument("--csv", metavar="PATH", help="numeric CSV dataset")
    source.add_argument("--idx-images", metavar="PATH", help="binary image file")
    group.add_argument("--idx-labels", metavar="PATH", help="binary label file")
    parser.add_argument("--label-column", type=parse_label_column, default="label",
                        help="CSV label column name or 0-based index")
    parser.add_argument("--no-header", action="store_true",
                        help="treat the CSV as headerless")


def parse_label_column(raw: str):
    try:
        return int(raw)
    except ValueError:
        return raw


def check_flag_pairs(args, parser: argparse.ArgumentParser) -> None:
    """The argument rules of train and sweep that involve two flags; an error
    exits 2 with the usage of ``parser``, the subcommand's own."""
    if args.idx_images and not args.idx_labels:
        parser.error("--idx-images requires --idx-labels")
    if args.csv and args.no_header and not isinstance(args.label_column, int):
        parser.error("--no-header needs an integer --label-column")
    if args.command == "sweep" and args.synth:
        count, unit = ((args.folds, "folds") if args.protocol == "foldwise"
                       else (args.batches, "batches"))
        if args.samples // count < 2:
            parser.error(f"--samples {args.samples} gives fewer than 2 rows "
                         f"to each of {count} {unit}")


def resolve_source(args):
    if args.synth:
        return ShiftRecipe.from_json_file(args.synth)
    if args.csv:
        return load_csv(args.csv, args.label_column, has_header=not args.no_header)
    return load_idx(args.idx_images, args.idx_labels)


def model_spec(args, input_dim: int, classes: int) -> MlpSpec:
    hidden = tuple((w, args.activation) for w in args.hidden)
    return MlpSpec(input_dim=input_dim, hidden_layers=hidden, output_classes=classes)


def train_config(args, baseline: str) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        minibatch_size=args.minibatch,
        optimizer=OptimizerConfig(kind=args.optimizer, learning_rate=args.learning_rate),
        penalty=PenaltyConfig(lam=getattr(args, "lambda")),
        seed=args.seed,
        baseline_mode=baseline,
    )


def protocol_spec(args) -> ProtocolSpec:
    common = dict(repetitions=args.repetitions, validation_fraction=args.val_fraction,
                  shuffle=SHUFFLE_CHOICES[args.shuffle])
    if args.protocol == "foldwise":
        return ProtocolSpec(mode="foldwise", folds=args.folds, **common)
    fraction = round(1.0 / args.batches, 4)
    return ProtocolSpec(mode="batchwise", splits=((fraction, args.batches),), **common)


def add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda", type=STRENGTH, default=0.1,
                        help="penalty strength; 0 disables the mechanism")
    parser.add_argument("--epochs", type=AT_LEAST_1, default=10,
                        help="passes over the batch sequence")
    parser.add_argument("--minibatch", type=AT_LEAST_1, default=32,
                        help="minibatch size within a batch")
    parser.add_argument("--optimizer", choices=OPTIMIZER_KINDS, default="adam",
                        help="update rule")
    parser.add_argument("--learning-rate", type=RATE, default=1e-3, help="optimizer step size")
    parser.add_argument("--hidden", type=AT_LEAST_1, nargs="*", default=[4],
                        help="hidden layer widths; empty for a linear model")
    parser.add_argument("--activation", choices=ACTIVATIONS, default="relu",
                        help="hidden activation")
    parser.add_argument("--val-fraction", type=FRACTION, default=0.2,
                        help="holdout fraction carved off before fragmentation")
    parser.add_argument("--shuffle", choices=list(SHUFFLE_CHOICES), default="auto",
                        help="shuffle rows before splitting into batches; "
                             "auto shuffles datasets but not drift recipes")
    parser.add_argument("--seed", type=SEED, default=0, help="single source of randomness")


def cmd_train(args) -> int:
    source = resolve_source(args)
    k = args.batches or (source.batch_count if isinstance(source, ShiftRecipe) else 5)
    train, validation, plan = batchwise_split(
        source, k, args.samples_per_batch, args.val_fraction,
        SHUFFLE_CHOICES[args.shuffle], args.seed,
    )
    # The split copied the rows it keeps; a loaded dataset is not needed again.
    del source
    spec = model_spec(args, train.dim, train.class_count)
    cfg = train_config(args, args.baseline)
    trace = shift_correction(train, validation, plan, spec, cfg)
    write_atomic(args.out, trace.to_json())
    accs = trace.per_batch_accuracies()
    print(f"wrote {args.out}: {len(trace.records)} records, "
          f"mean batch accuracy {100.0 * sum(accs) / len(accs):.2f}%")
    return 0


def cmd_sweep(args) -> int:
    source = resolve_source(args)
    if isinstance(source, Dataset):
        input_dim, classes = source.dim, source.class_count
    else:
        input_dim, classes = source.features, source.classes
    spec = model_spec(args, input_dim, classes)
    cfg = train_config(args, "c3")
    report = lambda_sweep(
        source, args.values, protocol_spec(args), cfg, spec, samples=args.samples, jobs=args.jobs
    )
    verify_report(report)
    write_atomic(args.out, report.to_json())
    series_path = args.series_out or os.path.splitext(args.out)[0] + ".series.csv"
    write_atomic(series_path, emit_series_csv(report.lambda_series))
    print(f"wrote {args.out} ({len(report.rows)} rows) and {series_path}")
    return 0


def cmd_synth(args) -> int:
    recipe = ShiftRecipe.from_json_file(args.recipe)
    dataset, plan = synth_shift(recipe, args.samples_per_batch, seed=args.seed)
    write_csv(dataset, args.out)
    meta = {
        "recipe": recipe.to_dict(),
        "samples_per_batch": args.samples_per_batch,
        "seed": args.seed,
        "rows": dataset.n,
        "batch_sizes": list(plan.sizes),
    }
    write_atomic(args.out + ".meta.json", canonical_json(meta))
    print(f"wrote {args.out} ({dataset.n} rows, {recipe.batch_count} ordered batches)")
    return 0


def cmd_report(args) -> int:
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
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = DefaultsHelpFormatter

    p_train = sub.add_parser("train", formatter_class=fmt, allow_abbrev=False,
                             help="run one training pass over ordered batches")
    add_source_flags(p_train)
    add_train_flags(p_train)
    p_train.add_argument("--batches", type=AT_LEAST_1, default=None,
                         help="number of ordered batches "
                              "(default: the recipe's batch count, or 5 for file sources)")
    p_train.add_argument("--baseline", choices=RUN_MODES, default="c3", help="training mode")
    p_train.add_argument("--samples-per-batch", type=AT_LEAST_2, default=500,
                         help="rows generated per batch for --synth")
    p_train.add_argument("--out", required=True, help="run trace JSON path")
    p_train.set_defaults(run=cmd_train, parser=p_train)

    p_sweep = sub.add_parser("sweep", formatter_class=fmt, allow_abbrev=False,
                             help="benchmark a grid of penalty strengths")
    add_source_flags(p_sweep)
    add_train_flags(p_sweep)
    p_sweep.add_argument("--values", type=STRENGTHS, default=None,
                         help="comma-separated lambda grid; omitted, the stock grid "
                              + ",".join(f"{v:g}" for v in LAMBDA_GRID))
    p_sweep.add_argument("--protocol", choices=("batchwise", "foldwise"), default="batchwise",
                         help="split scheme")
    p_sweep.add_argument("--batches", type=AT_LEAST_1, default=5, help="batch count (batchwise)")
    p_sweep.add_argument("--folds", type=AT_LEAST_2, default=5, help="fold count (foldwise)")
    p_sweep.add_argument("--repetitions", type=AT_LEAST_1, default=5,
                         help="averaging repetitions with derived seeds")
    p_sweep.add_argument("--samples", type=int, default=5000,
                         help="total rows to generate for recipe sources")
    p_sweep.add_argument("--jobs", type=AT_LEAST_1, default=1, help="parallel workers")
    p_sweep.add_argument("--out", required=True, help="report JSON path")
    p_sweep.add_argument("--series-out", default=None,
                         help="lambda/accuracy CSV path (default: <out>.series.csv)")
    p_sweep.set_defaults(run=cmd_sweep, parser=p_sweep)

    p_synth = sub.add_parser("synth", formatter_class=fmt, allow_abbrev=False,
                             help="materialise a drift recipe to CSV")
    p_synth.add_argument("--recipe", required=True, help="recipe JSON path")
    p_synth.add_argument("--samples-per-batch", type=AT_LEAST_2, default=500,
                         help="rows generated per batch")
    p_synth.add_argument("--seed", type=SEED, default=0, help="single source of randomness")
    p_synth.add_argument("--out", required=True, help="CSV output path")
    p_synth.set_defaults(run=cmd_synth)

    p_report = sub.add_parser("report", formatter_class=fmt, allow_abbrev=False,
                              help="render a report as json, csv, or markdown")
    p_report.add_argument("--in", dest="infile", required=True, help="report JSON path")
    p_report.add_argument("--format", choices=("json", "csv", "markdown"), default="markdown")
    p_report.add_argument("--out", default=None, help="output path (default: stdout)")
    p_report.set_defaults(run=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("train", "sweep"):
        check_flag_pairs(args, args.parser)
    try:
        for path in (args.out, getattr(args, "series_out", None)):
            if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
                raise FileNotFoundError(f"cannot write {path}: its directory does not exist")
        # Every non-finite value that matters raises a NumericsError with a
        # one-line diagnostic, so numpy's own floating-point warnings would
        # only add lines in front of it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.run(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the allocation it could not make
        print(f"error: {args.command} ran out of memory. {exc}".rstrip(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
