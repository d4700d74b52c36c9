"""Tests for continuous-recording windowing (repro.data.windows)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import sliding_windows, window_count


class TestWindowCount:
    def test_exact_fit_no_overlap(self):
        assert window_count(100, window=25, hop=25) == 4

    def test_partial_tail_dropped(self):
        assert window_count(99, window=25, hop=25) == 3

    def test_overlap_increases_count(self):
        assert window_count(100, window=50, hop=25) == 3

    def test_too_short_gives_zero(self):
        assert window_count(10, window=25, hop=25) == 0

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError, match="positive"):
            window_count(100, window=0, hop=1)
        with pytest.raises(ValueError, match="positive"):
            window_count(100, window=10, hop=0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 500), st.integers(1, 100), st.integers(1, 100))
    def test_count_formula_property(self, n, window, hop):
        count = window_count(n, window, hop)
        if count > 0:
            # The last window ends inside the recording; one more would not.
            assert (count - 1) * hop + window <= n
            assert count * hop + window > n


class TestSlidingWindows:
    def test_shapes_and_content(self):
        recording = np.arange(20, dtype=float).reshape(1, 20)
        windows = sliding_windows(recording, window=8, hop=4)
        assert windows.shape == (4, 1, 8)
        assert windows[0, 0].tolist() == list(range(8))
        assert windows[1, 0].tolist() == list(range(4, 12))

    def test_multichannel_alignment(self):
        recording = np.stack([np.arange(12.0), np.arange(12.0) + 100])
        windows = sliding_windows(recording, window=6)
        assert windows.shape == (2, 2, 6)
        assert np.allclose(windows[:, 1] - windows[:, 0], 100.0)

    def test_default_hop_is_window(self):
        recording = np.zeros((3, 30))
        assert sliding_windows(recording, window=10).shape == (3, 3, 10)

    def test_result_is_a_safe_copy(self):
        recording = np.zeros((1, 10))
        windows = sliding_windows(recording, window=5)
        windows[0, 0, 0] = 42.0
        assert recording[0, 0] == 0.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="shorter"):
            sliding_windows(np.zeros((2, 5)), window=10)

    def test_wrong_ndim_raises(self):
        with pytest.raises(ValueError, match="channels"):
            sliding_windows(np.zeros(20), window=5)

    @pytest.mark.parametrize("window,hop", [(8, 1), (8, 3), (8, 8),
                                            (5, 11)])
    def test_windows_are_the_hop_spaced_slices(self, window, hop):
        recording = np.arange(60.0).reshape(2, 30)
        windows = sliding_windows(recording, window=window, hop=hop)
        assert len(windows) == window_count(30, window, hop)
        for i, w in enumerate(windows):
            assert np.array_equal(
                w, recording[:, i * hop:i * hop + window])

    def test_overlapping_windows_share_samples(self):
        recording = np.random.default_rng(0).normal(size=(2, 40))
        windows = sliding_windows(recording, window=20, hop=10)
        assert np.array_equal(windows[0][:, 10:], windows[1][:, :10])


class TestEndToEndWindowedInference:
    def test_continuous_ecg_stream_classified_by_windows(self):
        """Cut a long synthetic recording into model-sized windows, classify
        each on the trained model, average the window scores — the
        deployment loop."""
        from repro.data import ECGConfig, make_ecg_dataset
        from repro.experiments import (TrainConfig, predict_scores,
                                       train_model)
        from repro.models import BinarizationMode, ECGNet

        dataset = make_ecg_dataset(ECGConfig(n_trials=200, n_samples=300,
                                             noise_amplitude=0.05, seed=61))
        model = ECGNet(mode=BinarizationMode.BINARY_CLASSIFIER,
                       n_samples=300, base_filters=8,
                       rng=np.random.default_rng(62))
        model.fit_input_norm(dataset.inputs[:160])
        train_model(model, dataset.inputs[:160], dataset.labels[:160],
                    TrainConfig(epochs=25, batch_size=16, lr=2e-3, seed=63))
        model.eval()

        # Build one long "stream" per class by concatenating test trials.
        correct = 0
        total = 0
        for cls in (0, 1):
            trials = dataset.inputs[160:][dataset.labels[160:] == cls][:6]
            stream = np.concatenate(list(trials), axis=-1)
            windows = sliding_windows(stream, window=300, hop=150)
            scores = predict_scores(model, windows)
            pred = int(scores.mean(axis=0).argmax())
            correct += int(pred == cls)
            total += 1
        assert correct == total  # aggregation denoises single-window errors
