"""Dataset ingestion, causal fragmentation, and synthetic drift generators.

Datasets are immutable (features, labels, class count) triples; a written
CSV always has a header row. A fragmentation plan is only its consecutive
near-equal batch sizes: a run's training rows are put in batch order once,
when the holdout is split off, so batch i is the rows after batches 0..i-1,
read as a view. The batch order is never re-sorted, which is what makes the
batch sequence causal.
Synthetic recipes produce Gaussian-mixture classification data whose feature
distribution drifts batch by batch while the label rule stays tied to the
generative class.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .information import GaussianMoments
from .numerics import fields_from_json, read_json, write_atomic

SHIFT_KINDS = ("mean_drift", "feature_permutation", "gaussian_corruption")

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

VARIANCE_FLOOR = 1e-9



class DataError(ValueError):
    """Malformed input data or an infeasible request."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with dense integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[0] < 1:
            raise DataError("features must be a nonempty 2-D matrix")
        if labels.shape != (features.shape[0],):
            raise DataError("labels must align with feature rows")
        if not np.all(np.isfinite(features)):
            raise DataError("feature values must be finite")
        if self.class_count < 1:
            raise DataError("class_count must be >= 1")
        if labels.min() < 0 or labels.max() >= self.class_count:
            raise DataError("labels must lie in [0, class_count)")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def rows(self, window: slice) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the features and labels of the rows in
        ``window``, such as a plan's batch."""
        features, labels = self.features[window], self.labels[window]
        features.flags.writeable = labels.flags.writeable = False
        return features, labels

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.class_count)


@dataclass(frozen=True)
class FragmentationPlan:
    """Consecutive causal batches of a dataset's rows, by their sizes.

    Batch i is the ``sizes[i]`` rows that follow batches 0..i-1, so batch i
    strictly precedes batch j for i < j.
    """

    sizes: tuple[int, ...]

    @property
    def batch_count(self) -> int:
        return len(self.sizes)

    def batch(self, i: int) -> slice:
        """The row range of batch ``i``."""
        start = sum(self.sizes[:i])
        return slice(start, start + self.sizes[i])

    def batch_sizes(self) -> tuple[int, ...]:
        return self.sizes


def fragment(dataset: Dataset, k: int) -> FragmentationPlan:
    """Cut a dataset's rows, in their order, into ``k`` near-equal batches.

    Remainder rows go to the earliest batches, so sizes differ by at most one
    and never increase along the sequence. The rows are not reordered: a
    shuffle, if wanted, happens in ``train_validation_split``.
    """
    n = dataset.n
    if k < 1:
        raise DataError(f"batch count must be >= 1, got {k}")
    if k > n:
        raise DataError(f"batch count {k} exceeds dataset size {n}")
    base, extra = divmod(n, k)
    return FragmentationPlan(tuple(base + (i < extra) for i in range(k)))


@dataclass(frozen=True)
class ShiftRecipe:
    """Synthetic drift recipe: a Gaussian-mixture base plus a per-batch shift.

    The base distribution places ``classes`` unit-variance clusters
    ``separation`` apart along a fixed direction chosen orthogonal to the
    drift direction, so a single decision rule stays optimal for every batch.
    Batch 1 is always the unshifted reference; the shift magnitude never
    decreases along the batch sequence.

    kinds:
      mean_drift           every feature of batch b shifts by (b-1) * delta
      feature_permutation  batch b's feature columns are permuted (seeded)
      gaussian_corruption  batch b gains N(0, ((b-1)*noise_ramp)^2) noise

    ``alignment`` rotates the class axis relative to the drift direction: at 0
    the drift is orthogonal to the class axis and one decision rule stays
    optimal for every batch, at 1 the clusters drift along their own
    separating axis, so labels tied to the pre-shift class conflict across
    batches and a model chasing the latest batch pays for it on the earlier
    ones.
    """

    kind: str
    batch_count: int
    features: int
    classes: int = 2
    separation: float = 3.0
    delta: float = 0.0
    noise_ramp: float = 0.0
    alignment: float = 1.0

    def __post_init__(self):
        if self.kind not in SHIFT_KINDS:
            raise DataError(f"unknown shift kind {self.kind!r}")
        if self.batch_count < 1:
            raise DataError("batch_count must be >= 1")
        if self.features < 1:
            raise DataError("features must be >= 1")
        if self.classes < 2:
            raise DataError("classes must be >= 2")
        if not np.all(np.isfinite([self.separation, self.delta, self.noise_ramp, self.alignment])):
            raise DataError("recipe numbers must be finite")
        if self.delta < 0.0:
            raise DataError(f"delta must be >= 0, got {self.delta}")
        if self.noise_ramp < 0.0:
            raise DataError(f"noise_ramp must be >= 0, got {self.noise_ramp}")
        if self.separation < 0.0:
            raise DataError("separation must be >= 0")
        if not 0.0 <= self.alignment <= 1.0:
            raise DataError("alignment must lie in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ShiftRecipe":
        """Parse a recipe; a payload that is not an object, an unknown or
        missing field and a wrongly typed value are each a DataError."""
        return cls(**fields_from_json(cls, payload, "recipe", DataError))

    @classmethod
    def from_json_file(cls, path) -> "ShiftRecipe":
        return cls.from_dict(read_json(path, DataError))


def class_directions(recipe: ShiftRecipe) -> tuple[np.ndarray, np.ndarray]:
    """Drift vector (one unit per feature) and the unit class axis.

    The class axis interpolates between a direction orthogonal to the drift
    (alignment 0) and the drift direction itself (alignment 1).
    """
    d = recipe.features
    drift = np.ones(d)
    ortho = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(d)])
    ortho -= ortho.dot(drift) / drift.dot(drift) * drift
    norm = np.linalg.norm(ortho)
    if norm < 1e-12:
        # Single-feature recipes have no orthogonal complement.
        ortho = drift.copy()
        norm = np.linalg.norm(ortho)
    ortho /= norm
    along = drift / np.linalg.norm(drift)
    axis = (1.0 - recipe.alignment) * ortho + recipe.alignment * along
    return drift, axis / np.linalg.norm(axis)


def class_means(recipe: ShiftRecipe) -> np.ndarray:
    """Base cluster centres, one row per class, centred on the origin."""
    _, axis = class_directions(recipe)
    offsets = (np.arange(recipe.classes) - (recipe.classes - 1) / 2.0) * recipe.separation
    return offsets[:, None] * axis[None, :]


def shuffle_rows(source, choice: bool | None) -> bool:
    """Whether to shuffle a data source's rows before fragmenting them.

    ``choice`` decides when given. Otherwise a drift recipe keeps its row
    order, which carries the drift, and a dataset is shuffled.
    """
    return not isinstance(source, ShiftRecipe) if choice is None else choice


def row_order(n: int, seed: int, shuffle: bool) -> np.ndarray:
    """The order ``n`` rows take in their batches: as they come, or with
    ``shuffle`` permuted by ``np.random.default_rng(seed)``."""
    return np.random.default_rng(seed).permutation(n) if shuffle else np.arange(n)


def _canonical_labels(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense class indices in first-appearance order, and the class count.

    Loading a written CSV then reproduces the labels exactly.
    """
    values, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(values.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(values.size)
    return rank[inverse], values.size


def synth_shift(recipe: ShiftRecipe, n_per_batch: int, seed: int) -> tuple[Dataset, FragmentationPlan]:
    """Materialise a recipe: K batches of ``n_per_batch`` rows, in causal order."""
    if n_per_batch < 2:
        raise DataError("n_per_batch must be >= 2")
    rng = np.random.default_rng(seed)
    means = class_means(recipe)
    drift, _ = class_directions(recipe)
    features = []
    labels = []
    for b in range(recipe.batch_count):
        y = rng.integers(0, recipe.classes, size=n_per_batch)
        x = means[y] + rng.normal(size=(n_per_batch, recipe.features))
        if recipe.kind == "mean_drift":
            x = x + b * recipe.delta * drift
        elif recipe.kind == "gaussian_corruption":
            if b > 0 and recipe.noise_ramp > 0.0:
                x = x + rng.normal(scale=b * recipe.noise_ramp, size=x.shape)
        else:  # feature_permutation; batch 0 keeps the identity permutation
            if b > 0:
                perm = np.random.default_rng([seed, b]).permutation(recipe.features)
                x = x[:, perm]
        features.append(x)
        labels.append(y)
    all_labels, class_count = _canonical_labels(np.concatenate(labels))
    dataset = Dataset(np.vstack(features), all_labels, class_count)
    plan = fragment(dataset, recipe.batch_count)
    return dataset, plan


def load_csv(path, label_column, has_header: bool = True) -> Dataset:
    """Parse a numeric-feature CSV with one categorical/integer label column.

    Labels map to dense class indices in first-appearance order. The label
    column may be named (requires a header) or given as a 0-based index.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    header = rows.pop(0) if has_header and rows else None
    if not rows:
        raise DataError("no data rows")

    width = len(rows[0])
    if isinstance(label_column, str):
        if header is None:
            raise DataError("label column given by name but the file has no header")
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not found in header")
        label_idx = header.index(label_column)
    else:
        label_idx = int(label_column)
        if not 0 <= label_idx < width:
            raise DataError(f"label column index {label_idx} out of range for {width} columns")

    features = np.empty((len(rows), width - 1))
    raw_labels = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"ragged row {i + 1}: expected {width} fields, got {len(row)}")
        col = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                raw_labels.append(cell.strip())
                continue
            try:
                features[i, col] = float(cell)
            except ValueError:
                raise DataError(
                    f"non-numeric feature value {cell!r} at row {i + 1}, column {j + 1}"
                ) from None
            col += 1

    labels, class_count = _canonical_labels(np.array(raw_labels))
    return Dataset(features, labels, class_count)


def write_csv(dataset: Dataset, path) -> None:
    """Write a header row, then features plus a trailing label column, atomically;
    floats keep full precision."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([f"feature_{j}" for j in range(dataset.dim)] + ["label"])
    for i in range(dataset.n):
        row = [repr(v) for v in dataset.features[i].tolist()]
        row.append(str(int(dataset.labels[i])))
        writer.writerow(row)
    write_atomic(path, buffer.getvalue())


def _read_be32(fh, path) -> int:
    chunk = fh.read(4)
    if len(chunk) != 4:
        raise DataError(f"truncated header in {path}")
    return struct.unpack(">I", chunk)[0]


def _read_idx(path, magic: int, dims: int) -> tuple[list[int], bytes]:
    """The ``dims`` header counts after an IDX file's magic number, and the payload."""
    with open(path, "rb") as fh:
        found = _read_be32(fh, path)
        if found != magic:
            raise DataError(f"unsupported magic 0x{found:08x} in {path}")
        return [_read_be32(fh, path) for _ in range(dims)], fh.read()


def load_idx(images_path, labels_path) -> Dataset:
    """Read the big-endian binary image/label pair format used by MNIST-style sets.

    Pixels scale to [0, 1] by /255 and flatten row-major to rows * cols
    features per image.
    """
    (count, rows, cols), payload = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    expected = count * rows * cols
    if len(payload) < expected:
        raise DataError(
            f"truncated payload in {images_path}: expected {expected} bytes, got {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8, count=expected)
    features = np.divide(pixels, 255.0, dtype=np.float64).reshape(count, rows * cols)

    (label_count,), label_payload = _read_idx(labels_path, IDX_LABEL_MAGIC, 1)
    if label_count != count:
        raise DataError(f"count mismatch: {count} images vs {label_count} labels")
    if len(label_payload) < label_count:
        raise DataError(f"truncated payload in {labels_path}")
    labels = np.frombuffer(label_payload[:label_count], dtype=np.uint8).astype(np.int64)
    class_count = int(labels.max()) + 1 if label_count else 1
    return Dataset(features, labels, class_count)


def batch_moments(dataset: Dataset, plan: FragmentationPlan, batch_index: int) -> GaussianMoments:
    """Per-feature sample mean and unbiased variance of one batch.

    Variances are floored at a tiny positive value so the closed-form KL stays
    defined on constant features.
    """
    x, _ = dataset.rows(plan.batch(batch_index))
    if x.shape[0] < 2:
        raise DataError(f"batch {batch_index} has fewer than 2 samples")
    mean = x.mean(axis=0)
    variance = np.maximum(x.var(axis=0, ddof=1), VARIANCE_FLOOR)
    return GaussianMoments(mean, variance)


def train_validation_split(
    dataset: Dataset, fraction: float = 0.2, seed: int = 0, shuffle: bool = False
) -> tuple[Dataset, Dataset, np.ndarray, np.ndarray]:
    """Seeded holdout split; the training rows come back in batch order
    (``row_order``): their original order, or with ``shuffle`` a seeded
    permutation of it (leave it off when the row order itself carries the
    drift being studied).

    Returns (train, validation, train_indices, validation_indices);
    ``train_indices`` follows the row order of ``train``. The two index sets
    partition the dataset, so disjointness is checkable by callers.
    """
    if not 0.0 < fraction < 1.0:
        raise DataError("validation fraction must lie in (0, 1)")
    n = dataset.n
    n_val = max(1, int(round(n * fraction)))
    if n_val >= n:
        raise DataError("validation fraction leaves no training data")
    rng = np.random.default_rng(seed)
    picked = rng.permutation(n)[:n_val]
    val_mask = np.zeros(n, dtype=bool)
    val_mask[picked] = True
    train_idx = np.flatnonzero(~val_mask)[row_order(n - n_val, seed, shuffle)]
    val_idx = np.flatnonzero(val_mask)
    return (
        dataset.subset(train_idx),
        dataset.subset(val_idx),
        train_idx,
        val_idx,
    )
