"""Tests for checkpoint persistence and the save guard (repro.io)."""

import numpy as np
import pytest

from repro.io import load_model, save_model, save_plan
from repro.models import BinarizationMode, ECGNet
from repro.nn import Linear, Sequential
from repro.runtime import fold_classifier_stack, plan_from_folded
from repro.tensor import Tensor


@pytest.fixture
def small_model():
    return Sequential(Linear(6, 4, rng=np.random.default_rng(0)),
                      Linear(4, 2, rng=np.random.default_rng(1)))


class TestModelCheckpoint:
    def test_round_trip_preserves_outputs(self, small_model, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_model(small_model, path)
        fresh = Sequential(Linear(6, 4, rng=np.random.default_rng(9)),
                           Linear(4, 2, rng=np.random.default_rng(10)))
        load_model(fresh, path)
        x = Tensor(np.random.default_rng(2).normal(size=(3, 6)))
        assert np.allclose(small_model(x).data, fresh(x).data)

    def test_buffers_round_trip(self, tmp_path):
        model = ECGNet(mode=BinarizationMode.BINARY_CLASSIFIER,
                       n_samples=300, base_filters=8,
                       rng=np.random.default_rng(3))
        model.fit_input_norm(np.random.default_rng(4).normal(
            size=(20, 12, 300)))
        path = tmp_path / "ecg.npz"
        save_model(model, path)
        fresh = ECGNet(mode=BinarizationMode.BINARY_CLASSIFIER,
                       n_samples=300, base_filters=8,
                       rng=np.random.default_rng(5))
        load_model(fresh, path)
        assert np.allclose(model.input_norm.mean, fresh.input_norm.mean)
        assert np.allclose(model.bn_fc1.running_var,
                           fresh.bn_fc1.running_var)

    def test_wrong_class_rejected(self, small_model, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_model(small_model, path)
        other = ECGNet(n_samples=300, base_filters=8,
                       rng=np.random.default_rng(6))
        with pytest.raises(ValueError, match="cannot load"):
            load_model(other, path)

    def test_missing_file_raises(self, small_model, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(small_model, tmp_path / "nope.npz")

    def test_non_artefact_rejected(self, small_model, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError, match="metadata"):
            load_model(small_model, path)

    def test_wrong_kind_rejected(self, small_model, tmp_path):
        model = ECGNet(mode=BinarizationMode.BINARY_CLASSIFIER,
                       n_samples=300, base_filters=8,
                       rng=np.random.default_rng(7))
        model.eval()
        path = save_plan(plan_from_folded(*fold_classifier_stack(model)),
                         tmp_path / "plan.npz")
        with pytest.raises(ValueError, match="not a model"):
            load_model(small_model, path)


class TestOverwriteGuard:
    """Every save_* entry point refuses to clobber unless told to."""

    def test_save_model_refuses_then_overwrites(self, small_model,
                                                tmp_path):
        path = tmp_path / "ckpt.npz"
        save_model(small_model, path)
        before = path.read_bytes()
        with pytest.raises(FileExistsError, match="overwrite=True"):
            save_model(small_model, path)
        assert path.read_bytes() == before      # refused write is a no-op
        save_model(small_model, path, overwrite=True)

    def test_guard_sees_through_implicit_npz_suffix(self, small_model,
                                                    tmp_path):
        save_model(small_model, tmp_path / "ckpt")
        assert (tmp_path / "ckpt.npz").exists()
        with pytest.raises(FileExistsError):
            save_model(small_model, tmp_path / "ckpt")
        with pytest.raises(FileExistsError):
            save_model(small_model, tmp_path / "ckpt.npz")
