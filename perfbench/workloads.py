"""Workload definitions: seeded inputs, the CLI invocations, and fixed step counts.

This module imports numpy only, never fishershift: the input generator runs
outside the measured process, and it must not borrow the program's own
generator (``fishershift.synth_shift``), or a defect there would shape the
inputs that are meant to expose it.

Every workload operation is a fixed list of ``fishershift.cli.main`` argument
vectors. Paths inside them are relative to the run's work directory.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

# The stock mean-drift recipe at K=2, as the library's own acceptance gate
# uses it (drift_benchmark_recipe(batch_count=2)).
STOCK_RECIPE = {
    "kind": "mean_drift",
    "batch_count": 2,
    "features": 10,
    "classes": 2,
    "separation": 3.0,
    "delta": 0.75,
    "alignment": 1.0,
}

SWEEP_LAMBDAS = (0.01, 0.04, 0.07, 0.1)
SWEEP_REPETITIONS = 5
SWEEP_SAMPLES = 5000
SWEEP_MODES = 3  # c3, cv_sequential, cv_independent per (cell, rep)

WIDE_IMAGES = 6000
WIDE_SIDE = 28
WIDE_CLASSES = 10
WIDE_BATCHES = 10
WIDE_EPOCHS = 3
# Each of the seven segments of an image's glyph is toggled with this
# probability, so classes overlap and accuracy stays clearly below 100%.
WIDE_SEGMENT_FLIP = 0.08
WIDE_STROKE_SIGMA = 1.2  # pixels: the width of a segment's Gaussian brush

VAL_FRACTION = 0.2  # the CLI default for --val-fraction
MINIBATCH = 32  # the CLI default for --minibatch

WORKLOADS = ("sweep_drift2", "train_wide_idx")
# Random stream of each workload's inputs: fixed numbers, so the inputs (and
# the golden digests taken from them) do not depend on which workloads exist.
INPUT_STREAM = {"sweep_drift2": 0, "train_wide_idx": 2}


def _train_argv(source: list[str], extra: list[str], seed: int) -> list[list[str]]:
    """The c3 run and the cv_sequential run of one train operation."""
    common = ["train", *source, *extra, "--seed", str(seed)]
    return [
        common + ["--baseline", "c3", "--lambda", "0.1", "--out", "c3.trace.json"],
        common + ["--baseline", "cv_sequential", "--out", "cv_sequential.trace.json"],
    ]


def operation_argv(workload: str, seed: int) -> list[list[str]]:
    """The CLI invocations that make up one operation of the workload."""
    if workload == "sweep_drift2":
        return [
            ["sweep", "--synth", "drift2.json", "--batches", "2",
             "--values", ",".join(f"{v:g}" for v in SWEEP_LAMBDAS),
             "--repetitions", str(SWEEP_REPETITIONS), "--samples", str(SWEEP_SAMPLES),
             "--learning-rate", "0.15", "--epochs", "15", "--seed", str(seed),
             "--jobs", "1", "--out", "report.json"],
            ["report", "--in", "report.json", "--format", "markdown", "--out", "report.md"],
        ]
    if workload == "train_wide_idx":
        return _train_argv(
            ["--idx-images", "images.idx", "--idx-labels", "labels.idx"],
            ["--hidden", "16", "--batches", str(WIDE_BATCHES), "--epochs", str(WIDE_EPOCHS)],
            seed,
        )
    raise ValueError(f"unknown workload {workload!r}")


def output_files(workload: str) -> tuple[str, ...]:
    """Files one operation writes; their digests are compared between operations."""
    if workload == "sweep_drift2":
        return ("report.json", "report.series.csv", "report.md")
    return ("c3.trace.json", "cv_sequential.trace.json")


def trace_record_count(workload: str) -> int | None:
    """Records a run trace must hold (epochs x K), or None for the sweep."""
    if workload == "train_wide_idx":
        return WIDE_EPOCHS * WIDE_BATCHES
    return None


def _steps_per_epoch(rows: int, k: int) -> int:
    """Minibatch updates of one pass over K batches, split as the program splits.

    The holdout takes round(rows * 0.2) rows; the rest is cut into K
    near-equal batches, earliest batches taking the remainder.
    """
    train = rows - max(1, int(round(rows * VAL_FRACTION)))
    base, extra = divmod(train, k)
    sizes = [base + (1 if i < extra else 0) for i in range(k)]
    return sum(math.ceil(size / MINIBATCH) for size in sizes)


def nominal_steps(workload: str) -> int:
    """Minibatch updates one operation asks for: runs x visits x ceil(rows/32).

    Fixed by the configuration, so a program that skips duplicate work gets
    credit for the steps it did not have to take.
    """
    if workload == "sweep_drift2":
        k = STOCK_RECIPE["batch_count"]
        rows = max(2, SWEEP_SAMPLES // k) * k
        runs = SWEEP_REPETITIONS * len(SWEEP_LAMBDAS) * SWEEP_MODES
        return runs * 15 * _steps_per_epoch(rows, k)
    if workload == "train_wide_idx":
        return 2 * WIDE_EPOCHS * _steps_per_epoch(WIDE_IMAGES, WIDE_BATCHES)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Seeded input generation


# Seven-segment glyphs: a top, b top-right, c bottom-right, d bottom,
# e bottom-left, f top-left, g middle. Rows 5/14/23, columns 9/18.
_SEGMENTS = {
    "a": ((5, 9), (5, 18)),
    "b": ((5, 18), (14, 18)),
    "c": ((14, 18), (23, 18)),
    "d": ((23, 9), (23, 18)),
    "e": ((14, 9), (23, 9)),
    "f": ((5, 9), (14, 9)),
    "g": ((14, 9), (14, 18)),
}
_DIGITS = ("abcdef", "bc", "abdeg", "abcdg", "bcfg", "acdfg", "acdefg", "abc", "abcdefg", "abcdfg")


def _segment_maps() -> np.ndarray:
    """(7, 28*28) brush intensity of each segment: Gaussian in distance to the stroke."""
    rr, cc = np.mgrid[0:WIDE_SIDE, 0:WIDE_SIDE]
    points = np.stack([rr.ravel(), cc.ravel()], axis=1).astype(np.float64)
    maps = []
    for (r0, c0), (r1, c1) in _SEGMENTS.values():
        a = np.array([r0, c0], dtype=np.float64)
        ab = np.array([r1 - r0, c1 - c0], dtype=np.float64)
        t = np.clip((points - a) @ ab / ab.dot(ab), 0.0, 1.0)
        dist2 = np.sum((points - (a + t[:, None] * ab)) ** 2, axis=1)
        maps.append(np.exp(-dist2 / (2.0 * WIDE_STROKE_SIGMA**2)))
    return np.asarray(maps)


def _shift(images: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """Translate (n, 28, 28) images by whole pixels, filling with zeros."""
    out = np.zeros_like(images)
    src_r = slice(max(0, -dr), WIDE_SIDE - max(0, dr))
    dst_r = slice(max(0, dr), WIDE_SIDE - max(0, -dr))
    src_c = slice(max(0, -dc), WIDE_SIDE - max(0, dc))
    dst_c = slice(max(0, dc), WIDE_SIDE - max(0, -dc))
    out[:, dst_r, dst_c] = images[:, src_r, src_c]
    return out


def _write_digit_idx(images_path: str, labels_path: str, rng: np.random.Generator) -> None:
    """Digit-shaped 28x28 images: a jittered, noisy seven-segment glyph per label."""
    n = WIDE_IMAGES
    names = list(_SEGMENTS)
    glyphs = np.array([[s in digit for s in names] for digit in _DIGITS], dtype=np.float64)
    labels = rng.integers(0, WIDE_CLASSES, size=n)
    active = glyphs[labels]
    flips = rng.random(active.shape) < WIDE_SEGMENT_FLIP
    active = np.where(flips, 1.0 - active, active)
    strength = rng.uniform(0.6, 1.0, size=(n, 1))
    ink = np.clip((active @ _segment_maps()) * strength, 0.0, 1.0)
    ink = ink.reshape(n, WIDE_SIDE, WIDE_SIDE)
    offsets = rng.integers(-2, 3, size=(n, 2))
    shifted = np.empty_like(ink)
    for dr in range(-2, 3):
        for dc in range(-2, 3):
            rows = np.flatnonzero((offsets[:, 0] == dr) & (offsets[:, 1] == dc))
            if rows.size:
                shifted[rows] = _shift(ink[rows], dr, dc)
    noisy = np.clip(shifted + rng.normal(scale=0.15, size=shifted.shape), 0.0, 1.0)
    pixels = np.round(noisy * 255.0).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, n, WIDE_SIDE, WIDE_SIDE))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, n))
        fh.write(labels.astype(np.uint8).tobytes())


def generate_inputs(workload: str, seed: int, directory: str) -> None:
    """Write the workload's input files into ``directory``; same seed, same bytes."""
    rng = np.random.default_rng([seed, INPUT_STREAM[workload]])
    if workload == "sweep_drift2":
        # The program draws the sweep's data itself from --seed; the recipe is fixed.
        with open(os.path.join(directory, "drift2.json"), "w", encoding="utf-8") as fh:
            json.dump(STOCK_RECIPE, fh, sort_keys=True)
    elif workload == "train_wide_idx":
        _write_digit_idx(
            os.path.join(directory, "images.idx"), os.path.join(directory, "labels.idx"), rng
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
