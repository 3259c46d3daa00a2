"""Dataset ingestion: CSV round trips, the binary image format, fragmentation.

Shows the loaders' contracts: labels map to dense indices in first-appearance
order, CSV round trips preserve every value, the big-endian image/label pair
format parses to /255-scaled rows, and fragmentation partitions a dataset
into ordered near-equal batches.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np

from fishershift import batch_moments, fragment, load_csv, load_idx, write_csv
from fishershift.data import Dataset

with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)

    print("== CSV: first-appearance label mapping ==")
    csv_path = workdir / "tiny.csv"
    csv_path.write_text("f0,f1,label\n1.0,2.0,cat\n3.0,4.0,dog\n5.0,6.0,cat\n")
    ds = load_csv(csv_path, label_column="label")
    print(f"  labels {{cat, dog, cat}} -> {ds.labels.tolist()} with {ds.class_count} classes")

    print()
    print("== CSV round trip is value-identical ==")
    rng = np.random.default_rng(3)
    original = Dataset(rng.normal(size=(6, 3)), np.array([0, 1, 0, 2, 1, 0]), 3)
    out_path = workdir / "round.csv"
    write_csv(original, out_path)
    back = load_csv(out_path, label_column="label")
    print(f"  features equal: {np.array_equal(back.features, original.features)}")
    print(f"  labels equal:   {np.array_equal(back.labels, original.labels)}")

    print()
    print("== Binary image/label pair (big-endian, /255 scaling) ==")
    images = workdir / "images.idx"
    labels = workdir / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2)
                       + bytes([0, 255, 128, 64, 10, 20, 30, 40]))
    labels.write_bytes(struct.pack(">II", 0x801, 2) + bytes([3, 1]))
    idx = load_idx(images, labels)
    print(f"  first image pixels: {idx.features[0]}")
    print(f"  labels: {idx.labels.tolist()}, classes: {idx.class_count}")

print()
print("== Fragmentation: ordered near-equal batches ==")
wide = Dataset(rng.normal(size=(10, 2)), rng.integers(0, 2, size=10), 2)
plan = fragment(wide, 3)
print(f"  10 rows over 3 batches -> sizes {plan.sizes}")
moments = batch_moments(wide, plan, 0)
print(f"  first batch per-feature mean {np.round(moments.mean, 3)} "
      f"variance {np.round(moments.variance, 3)}")
