"""Dataset containers, cross-validation, transforms."""

import numpy as np
import pytest

from repro.data import (ArrayDataset, GaussianNoiseAugment,
                        stratified_kfold_indices)


class TestArrayDataset:
    def test_len_getitem(self, rng):
        ds = ArrayDataset(rng.standard_normal((10, 3)), np.arange(10))
        assert len(ds) == 10
        x, y = ds[4]
        assert y == 4

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((5, 2)), np.zeros(4))

    def test_num_classes(self):
        ds = ArrayDataset(np.zeros((6, 1)), np.array([0, 1, 2, 0, 1, 2]))
        assert ds.num_classes == 3


class TestKFold:
    def test_stratified_balance(self, rng):
        labels = np.array([0] * 40 + [1] * 20)
        splits = stratified_kfold_indices(labels, 5, rng)
        for _, val in splits:
            frac = labels[val].mean()
            assert abs(frac - 1 / 3) < 0.1

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            stratified_kfold_indices(np.zeros(3), 5)

    @pytest.mark.parametrize("k", (2, 3, 5, 7))
    def test_folds_partition_everything(self, rng, k):
        labels = np.array([0] * 17 + [1] * 9 + [2] * 4)
        splits = stratified_kfold_indices(labels, k, rng)
        assert len(splits) == k
        all_val = np.concatenate([val for _, val in splits])
        assert np.array_equal(np.sort(all_val), np.arange(len(labels)))
        for train, val in splits:
            assert len(np.intersect1d(train, val)) == 0
            assert len(train) + len(val) == len(labels)

    def test_without_rng_is_deterministic(self):
        labels = np.arange(20) % 2
        first = stratified_kfold_indices(labels, 4)
        second = stratified_kfold_indices(labels, 4)
        for (t1, v1), (t2, v2) in zip(first, second):
            assert np.array_equal(t1, t2) and np.array_equal(v1, v2)

    def test_rng_shuffles_fold_membership(self):
        labels = np.arange(40) % 2
        plain = stratified_kfold_indices(labels, 4)
        shuffled = stratified_kfold_indices(labels, 4,
                                            np.random.default_rng(1))
        assert not all(np.array_equal(v1, v2) for (_, v1), (_, v2)
                       in zip(plain, shuffled))


class TestTransforms:
    def test_noise_augment_changes_data(self, rng):
        aug = GaussianNoiseAugment(0.1, rng)
        x = np.zeros((8, 4))
        out = aug(x)
        assert out.shape == x.shape
        assert 0.05 < out.std() < 0.2

    def test_zero_sigma_is_identity(self, rng):
        aug = GaussianNoiseAugment(0.0, rng)
        x = rng.standard_normal((3, 3))
        assert np.array_equal(aug(x), x)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            GaussianNoiseAugment(-1.0)

    def test_preserves_float32_dtype(self, rng):
        """float32 batches must not be silently upcast to float64 —
        augmented training batches used to double their memory and
        diverge in dtype from the un-augmented eval path."""
        aug = GaussianNoiseAugment(0.1, rng)
        x = rng.standard_normal((8, 4)).astype(np.float32)
        out = aug(x)
        assert out.dtype == np.float32
        assert not np.array_equal(out, x)

    def test_preserves_float64_dtype(self, rng):
        aug = GaussianNoiseAugment(0.1, rng)
        out = aug(rng.standard_normal((4, 4)))
        assert out.dtype == np.float64

    def test_reproducible_per_seed_fresh_per_call(self):
        x = np.zeros((4, 4))
        a = GaussianNoiseAugment(0.1, np.random.default_rng(2))
        b = GaussianNoiseAugment(0.1, np.random.default_rng(2))
        first = a(x)
        assert np.array_equal(first, b(x))
        assert not np.array_equal(first, a(x))

    def test_integer_batches_upcast_to_float(self, rng):
        # Gaussian noise on integer windows must not truncate to int.
        aug = GaussianNoiseAugment(0.1, rng)
        out = aug(np.zeros((4, 4), dtype=np.int64))
        assert np.issubdtype(out.dtype, np.floating)
        assert out.std() > 0
