import struct

import numpy as np
import pytest

from fishershift.data import (
    VARIANCE_FLOOR,
    DataError,
    Dataset,
    FragmentationPlan,
    ShiftRecipe,
    batch_moments,
    class_directions,
    fragment,
    load_csv,
    load_idx,
    synth_shift,
    train_validation_split,
    write_csv,
)
from fishershift.information import gaussian_kl


def toy_dataset(n=10, d=3, classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, d)), rng.integers(0, classes, size=n), classes)


class TestRows:
    def test_rows_are_read_only_views(self):
        ds = toy_dataset(n=12)
        x, y = ds.rows(slice(3, 8))
        assert np.shares_memory(x, ds.features) and np.shares_memory(y, ds.labels)
        assert not x.flags.writeable and not y.flags.writeable
        assert np.array_equal(x, ds.features[3:8]) and np.array_equal(y, ds.labels[3:8])
        assert ds.features.flags.writeable


class TestFragment:
    def test_exact_division(self):
        plan = fragment(toy_dataset(n=100), 4)
        assert plan.sizes == (25, 25, 25, 25)

    def test_remainder_goes_to_earliest_batches(self):
        plan = fragment(toy_dataset(n=10), 3)
        assert plan.sizes == (4, 3, 3)

    def test_five_percent_rows(self):
        plan = fragment(toy_dataset(n=60000, d=1), 20)
        assert plan.sizes == tuple([3000] * 20)

    def test_batches_tile_the_rows_in_order(self):
        plan = fragment(toy_dataset(n=53), 7)
        assert plan.batch_count == 7
        seen = np.concatenate([np.arange(53)[plan.batch(i)] for i in range(7)])
        assert np.array_equal(seen, np.arange(53))

    def test_batch_is_the_range_after_the_earlier_batches(self):
        plan = FragmentationPlan((3, 2, 2))
        assert [plan.batch(i) for i in range(3)] == [slice(0, 3), slice(3, 5), slice(5, 7)]

    def test_too_many_batches_rejected(self):
        with pytest.raises(DataError, match="exceeds"):
            fragment(toy_dataset(n=5), 6)

    def test_zero_batches_rejected(self):
        with pytest.raises(DataError, match="batch count must be >= 1, got 0"):
            fragment(toy_dataset(n=5), 0)


class TestSynthShift:
    def test_no_drift_batches_agree_within_sampling_error(self):
        recipe = ShiftRecipe(kind="mean_drift", batch_count=3, features=4, delta=0.0)
        ds, plan = synth_shift(recipe, 4000, seed=2)
        reference = batch_moments(ds, plan, 0)
        for j in (1, 2):
            assert gaussian_kl(reference, batch_moments(ds, plan, j)) < 0.01

    def test_mean_drift_kl_matches_closed_form_expectation(self):
        # Flat mixture (separation 0) keeps every feature at unit variance, so
        # the pairwise KL is d * delta^2 / 2.
        recipe = ShiftRecipe(
            kind="mean_drift", batch_count=2, features=4, separation=0.0, delta=0.5
        )
        ds, plan = synth_shift(recipe, 20000, seed=1)
        kl = gaussian_kl(batch_moments(ds, plan, 0), batch_moments(ds, plan, 1))
        assert kl == pytest.approx(4 * 0.5**2 / 2.0, rel=0.1)

    def test_mean_drift_kl_with_class_structure(self):
        # With separated classes each feature's mixture variance grows by
        # (separation * axis_i)^2 / 4; the expected KL follows from that.
        recipe = ShiftRecipe(
            kind="mean_drift", batch_count=2, features=4, separation=3.0, delta=0.5
        )
        ds, plan = synth_shift(recipe, 20000, seed=1)
        _, axis = class_directions(recipe)
        mixture_var = 1.0 + (recipe.separation * axis) ** 2 / 4.0
        expected = float(np.sum(0.5 * recipe.delta**2 / mixture_var))
        kl = gaussian_kl(batch_moments(ds, plan, 0), batch_moments(ds, plan, 1))
        assert kl == pytest.approx(expected, rel=0.1)

    def test_pairwise_kl_nondecreasing_in_batch_distance(self):
        recipe = ShiftRecipe(kind="mean_drift", batch_count=4, features=6, delta=0.4, separation=2.0)
        mean_kl = np.zeros(4)
        for seed in range(5):
            ds, plan = synth_shift(recipe, 2000, seed=seed)
            base = batch_moments(ds, plan, 0)
            for j in range(4):
                mean_kl[j] += gaussian_kl(base, batch_moments(ds, plan, j)) / 5.0
        assert mean_kl[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(mean_kl) > 0.0)

    def test_feature_permutation_first_batch_is_reference(self):
        recipe = ShiftRecipe(kind="feature_permutation", batch_count=3, features=5)
        ds, plan = synth_shift(recipe, 100, seed=4)
        ref = ShiftRecipe(kind="mean_drift", batch_count=3, features=5, delta=0.0)
        ds_ref, _ = synth_shift(ref, 100, seed=4)
        first = plan.batch(0)
        assert np.array_equal(ds.features[first], ds_ref.features[first])

    def test_gaussian_corruption_variance_ramps(self):
        recipe = ShiftRecipe(
            kind="gaussian_corruption", batch_count=3, features=4, separation=0.0, noise_ramp=1.0
        )
        ds, plan = synth_shift(recipe, 8000, seed=5)
        variances = [batch_moments(ds, plan, b).variance.mean() for b in range(3)]
        assert variances[0] == pytest.approx(1.0, rel=0.1)
        assert variances[1] == pytest.approx(2.0, rel=0.1)
        assert variances[2] == pytest.approx(5.0, rel=0.1)

    def test_determinism(self):
        recipe = ShiftRecipe(kind="mean_drift", batch_count=2, features=3, delta=0.3)
        a, _ = synth_shift(recipe, 50, seed=11)
        b, _ = synth_shift(recipe, 50, seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_one_feature_recipe_is_drawn(self):
        recipe = ShiftRecipe(kind="mean_drift", batch_count=2, features=1, delta=0.5)
        ds, plan = synth_shift(recipe, 30, seed=0)
        assert ds.features.shape == (60, 1) and plan.sizes == (30, 30)

    def test_degenerate_recipe_rejected(self):
        with pytest.raises(DataError, match="delta"):
            ShiftRecipe(kind="mean_drift", batch_count=2, features=3, delta=-0.1)
        with pytest.raises(DataError, match="noise_ramp"):
            ShiftRecipe(kind="gaussian_corruption", batch_count=2, features=3, noise_ramp=-1.0)

    def test_recipe_json_round_trip(self):
        recipe = ShiftRecipe(kind="mean_drift", batch_count=5, features=10, delta=0.75)
        assert ShiftRecipe.from_dict(recipe.to_dict()) == recipe

    def test_unknown_recipe_field_rejected(self):
        with pytest.raises(DataError, match="unknown recipe fields"):
            ShiftRecipe.from_dict({"kind": "mean_drift", "batch_count": 2, "features": 3, "bogus": 1})


class TestCsv:
    def test_label_mapping_first_appearance(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("f0,f1,label\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        ds = load_csv(path, label_column="label")
        assert ds.class_count == 2
        assert ds.labels.tolist() == [0, 1, 0]
        assert np.allclose(ds.features, [[1, 2], [3, 4], [5, 6]])

    def test_label_column_by_index_without_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("7,1.5,2.5\n3,0.5,1.5\n")
        ds = load_csv(path, label_column=0, has_header=False)
        assert ds.labels.tolist() == [0, 1]
        assert np.allclose(ds.features, [[1.5, 2.5], [0.5, 1.5]])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, label_column=0, has_header=False)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("f0,label\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, label_column="label")

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("f0,label\n1.0,x\n2.0,y\n")
        assert load_csv(path, label_column="label").n == 2

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1.0,2.0,a\n1.0,b\n")
        with pytest.raises(DataError, match="ragged row 2"):
            load_csv(path, label_column=2, has_header=False)

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1.0,oops,a\n")
        with pytest.raises(DataError, match="non-numeric feature"):
            load_csv(path, label_column=2, has_header=False)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(path, label_column="label")
        with pytest.raises(DataError, match="label column"):
            load_csv(path, label_column=5, has_header=False)

    def test_round_trip_is_value_identical(self, tmp_path):
        recipe = ShiftRecipe(kind="mean_drift", batch_count=3, features=4, delta=0.2)
        ds, _ = synth_shift(recipe, 30, seed=8)
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        back = load_csv(path, label_column="label")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.class_count == ds.class_count

    def test_load_write_reaches_a_byte_stable_fixed_point(self, tmp_path):
        # An arbitrary dataset may need one loader pass to canonicalise its
        # label order; after that, write -> read -> write is byte-stable.
        ds = toy_dataset(n=12, d=3, seed=1)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        third = tmp_path / "c.csv"
        write_csv(ds, first)
        canonical = load_csv(first, label_column="label")
        write_csv(canonical, second)
        write_csv(load_csv(second, label_column="label"), third)
        assert second.read_bytes() == third.read_bytes()


def write_idx_pair(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801, dims=None):
    n = len(labels)
    rows, cols = dims if dims else (1, len(pixels) // max(n, 1))
    images = tmp_path / "images.idx"
    with open(images, "wb") as fh:
        fh.write(struct.pack(">IIII", image_magic, n, rows, cols))
        fh.write(bytes(pixels))
    labels_path = tmp_path / "labels.idx"
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", label_magic, len(labels)))
        fh.write(bytes(labels))
    return images, labels_path


class TestIdx:
    def test_hand_built_fixture(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, [0, 255, 128, 64], [3], dims=(2, 2))
        ds = load_idx(images, labels)
        assert ds.n == 1
        assert ds.dim == 4
        assert np.array_equal(ds.features[0], np.array([0, 255, 128, 64]) / 255.0)
        assert ds.labels.tolist() == [3]

    def test_wrong_magic(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, [0], [0], image_magic=0x802)
        with pytest.raises(DataError, match="unsupported magic"):
            load_idx(images, labels)

    def test_count_mismatch(self, tmp_path):
        images = tmp_path / "images.idx"
        with open(images, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x803, 2, 1, 1))
            fh.write(bytes([10, 20]))
        labels = tmp_path / "labels.idx"
        with open(labels, "wb") as fh:
            fh.write(struct.pack(">II", 0x801, 3))
            fh.write(bytes([0, 1, 2]))
        with pytest.raises(DataError, match="count mismatch"):
            load_idx(images, labels)

    def test_truncated_payload(self, tmp_path):
        images = tmp_path / "images.idx"
        with open(images, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x803, 2, 2, 2))
            fh.write(bytes([1, 2, 3]))  # needs 8 bytes
        labels = tmp_path / "labels.idx"
        with open(labels, "wb") as fh:
            fh.write(struct.pack(">II", 0x801, 2))
            fh.write(bytes([0, 1]))
        with pytest.raises(DataError, match="truncated payload"):
            load_idx(images, labels)


class TestBatchMoments:
    def test_constant_feature_hits_variance_floor(self):
        ds = Dataset(np.ones((6, 2)), np.zeros(6, dtype=int), 1)
        plan = fragment(ds, 1)
        moments = batch_moments(ds, plan, 0)
        assert np.allclose(moments.mean, 1.0)
        assert np.allclose(moments.variance, 1e-9)

    def test_two_sample_hand_arithmetic(self):
        ds = Dataset(np.array([[0.0], [2.0]]), np.zeros(2, dtype=int), 1)
        plan = fragment(ds, 1)
        moments = batch_moments(ds, plan, 0)
        assert moments.mean[0] == pytest.approx(1.0)
        assert moments.variance[0] == pytest.approx(2.0)

    def test_moments_match_generative_truth(self):
        recipe = ShiftRecipe(
            kind="mean_drift", batch_count=2, features=3, separation=0.0, delta=1.5
        )
        ds, plan = synth_shift(recipe, 5000, seed=3)
        moments = batch_moments(ds, plan, 1)
        se = np.sqrt(moments.variance / 5000)
        assert np.all(np.abs(moments.mean - 1.5) < 3 * se)

    def test_tiny_batch_rejected(self):
        ds = toy_dataset(n=3)
        plan = fragment(ds, 3)
        with pytest.raises(DataError, match="fewer than 2"):
            batch_moments(ds, plan, 0)

    @pytest.mark.parametrize("rows, width", [(2, 3), (33, 5), (9, 4), (480, 784)],
                             ids=["two-rows", "odd-rows", "constant-column", "784-wide"])
    def test_bits_equal_numpy_mean_and_var(self, rows, width):
        # Offset and scaled, so the deviations lose low bits; a variance
        # taken about another mean, or summed in another order, differs.
        rng = np.random.default_rng(rows)
        x = 1e3 + 7.0 * rng.normal(size=(2 * rows, width))
        x[:, 1] = 0.3  # a constant column: the floor applies
        ds = Dataset(x, np.zeros(2 * rows, dtype=int), 1)
        plan = fragment(ds, 2)
        for i in range(2):
            batch = x[plan.batch(i)]
            moments = batch_moments(ds, plan, i)
            expected = np.maximum(batch.var(axis=0, ddof=1), VARIANCE_FLOOR)
            assert moments.mean.tobytes() == batch.mean(axis=0).tobytes()
            assert moments.variance.tobytes() == expected.tobytes()
            assert moments.variance[1] == VARIANCE_FLOOR


class TestSubset:
    @pytest.mark.parametrize(
        "empty",
        [np.array([], dtype=np.int64), [], slice(3, 3), np.zeros(10, dtype=bool)],
        ids=["index-array", "list", "slice", "mask"],
    )
    def test_an_empty_selection_is_rejected(self, empty):
        with pytest.raises(DataError):
            toy_dataset().subset(empty)

    def test_a_selection_that_is_not_rows_is_rejected(self):
        with pytest.raises(DataError):
            toy_dataset().subset(np.int64(2))

    @pytest.mark.parametrize(
        "indices",
        [np.array([7, 0, 3, 3]), [4], slice(2, 9), np.arange(10) % 3 == 0],
        ids=["index-array", "list", "slice", "mask"],
    )
    def test_equals_the_checked_constructor(self, indices):
        rng = np.random.default_rng(1)
        # Integer features and int32 labels: the constructor converts both.
        ds = Dataset(rng.integers(-5, 5, size=(10, 3)),
                     rng.integers(0, 4, size=10).astype(np.int32), 4)
        got = ds.subset(indices)
        checked = Dataset(ds.features[indices], ds.labels[indices], ds.class_count)
        assert got.features.dtype == np.float64 and got.labels.dtype == np.int64
        for a, b in ((got.features, checked.features), (got.labels, checked.labels)):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        assert got.class_count == checked.class_count == 4


class TestValidationSplit:
    def test_split_is_disjoint_partition_preserving_order(self):
        ds = toy_dataset(n=50)
        train, val, train_idx, val_idx = train_validation_split(ds, 0.2, seed=1)
        assert train.n == 40 and val.n == 10
        assert set(train_idx) | set(val_idx) == set(range(50))
        assert set(train_idx) & set(val_idx) == set()
        assert np.all(np.diff(train_idx) > 0)

    def test_shuffle_is_seeded_and_keeps_the_partition(self):
        ds = toy_dataset(n=53)
        plain = train_validation_split(ds, 0.2, seed=3)
        a = train_validation_split(ds, 0.2, seed=3, shuffle=True)
        b = train_validation_split(ds, 0.2, seed=3, shuffle=True)
        other = train_validation_split(ds, 0.2, seed=4, shuffle=True)
        assert np.array_equal(a[2], b[2]) and not np.array_equal(a[2], other[2])
        assert sorted(a[2].tolist()) == plain[2].tolist()
        assert np.array_equal(a[3], plain[3])
        assert np.array_equal(a[0].features, ds.features[a[2]])
        assert np.array_equal(a[0].labels, ds.labels[a[2]])

    def test_shuffle_is_the_seeded_permutation_of_the_training_rows(self):
        ds = toy_dataset(n=53)
        plain = train_validation_split(ds, 0.2, seed=9)[2]
        shuffled = train_validation_split(ds, 0.2, seed=9, shuffle=True)[2]
        order = np.arange(plain.size)
        np.random.default_rng(9).shuffle(order)
        assert np.array_equal(shuffled, plain[order])

    def test_bad_fraction_rejected(self):
        with pytest.raises(DataError, match="fraction"):
            train_validation_split(toy_dataset(), 1.5)

    def test_one_row_leaves_no_training_data(self):
        # The holdout takes at least one row, here the only one.
        with pytest.raises(DataError, match="leaves no training data"):
            train_validation_split(toy_dataset(n=1), 0.2)
