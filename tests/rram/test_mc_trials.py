"""Trial-batched Monte-Carlo engine: streams, array/controller trial axis,
workload integration (repro.rram.mc and friends)."""

import numpy as np
import pytest

from repro.nn.binary import FoldedBinaryDense, FoldedOutputDense
from repro.rram import (AcceleratorConfig, DeviceParameters, RRAMArray,
                        SenseParameters, read_bit_errors, trial_streams)
from repro.rram.mc import trial_chunks
from repro.runtime import RRAMBackend, ShardedRRAMBackend, plan_from_folded


def _programmed_array(mode="2T2R", rows=12, cols=20, seed=0, wear=10 ** 8):
    rng = np.random.default_rng(seed)
    array = RRAMArray(rows, cols, rng=rng, mode=mode)
    array.wear(wear)
    bits = rng.integers(0, 2, (rows, cols)).astype(np.uint8)
    array.program(bits)
    return array, bits


def _dense_hw(seed=0, out_features=24, in_features=50, sigma=0.15):
    rng = np.random.default_rng(seed)
    folded = FoldedBinaryDense(
        rng.integers(0, 2, (out_features, in_features)).astype(np.uint8),
        theta=rng.standard_normal(out_features),
        gamma_sign=np.ones(out_features), beta_sign=np.ones(out_features))
    config = AcceleratorConfig(sense=SenseParameters(offset_sigma=sigma))
    return folded, RRAMBackend(config, np.random.default_rng(seed + 1),
                               fast_path=False).prepare_dense(folded)


def _deterministic_stack():
    """A hidden + output folded stack and a batch of input bits."""
    rng = np.random.default_rng(0)
    hidden = FoldedBinaryDense(
        rng.integers(0, 2, (8, 40)).astype(np.uint8),
        theta=np.zeros(8), gamma_sign=np.ones(8), beta_sign=np.ones(8))
    output = FoldedOutputDense(
        rng.integers(0, 2, (3, 8)).astype(np.uint8),
        scale=rng.uniform(0.5, 1.5, 3), offset=rng.standard_normal(3))
    return hidden, output, rng.integers(0, 2, (6, 40)).astype(np.uint8)


class TestTrialStreams:
    def test_deterministic_and_independent(self):
        a = trial_streams(7, 4)
        b = trial_streams(7, 4)
        draws_a = [r.normal(size=3) for r in a]
        draws_b = [r.normal(size=3) for r in b]
        for x, y in zip(draws_a, draws_b):
            assert np.array_equal(x, y)
        # Distinct trials are distinct streams.
        assert not np.array_equal(draws_a[0], draws_a[1])

    def test_prefix_stable_under_growth(self):
        # Stream t of a T-trial study equals stream t of a larger study:
        # trial budgets can grow without invalidating earlier trials.
        small = [r.normal(size=4) for r in trial_streams(3, 2)]
        large = [r.normal(size=4) for r in trial_streams(3, 16)[:2]]
        assert all(np.array_equal(s, g) for s, g in zip(small, large))

    def test_validates_trials(self):
        with pytest.raises(ValueError, match="trials"):
            trial_streams(0, 0)

    def test_chunking_covers_range(self):
        windows = list(trial_chunks(10, per_trial_elems=1, budget=3))
        assert windows == [(0, 3), (3, 6), (6, 9), (9, 10)]
        # A budget below one trial still makes progress, one trial at a
        # time; a generous budget takes the whole range in one window.
        assert list(trial_chunks(2, 100, 10)) == [(0, 1), (1, 2)]
        assert list(trial_chunks(5, 1, 100)) == [(0, 5)]


class TestArrayTrialReads:
    @pytest.mark.parametrize("mode", ["2T2R", "1T1R"])
    def test_batched_equals_per_trial_loop(self, mode):
        array, _ = _programmed_array(mode)
        batched = array.read_all_trials(trial_streams(11, 6))
        serial = np.stack([array.read_all(rng=r)
                           for r in trial_streams(11, 6)])
        assert batched.shape == (6,) + (array.n_rows, array.n_cols)
        assert np.array_equal(batched, serial)

    def test_rng_override_leaves_array_stream_untouched(self):
        array, _ = _programmed_array()
        before = array.rng.bit_generator.state
        array.read_all(rng=np.random.default_rng(0))
        array.read_all_trials(trial_streams(0, 3))
        assert array.rng.bit_generator.state == before

    @pytest.mark.parametrize("trial_chunk", [None, 1, 2, 5])
    def test_read_bit_errors_chunk_invariant(self, trial_chunk):
        array, bits = _programmed_array(wear=5 * 10 ** 8)
        if trial_chunk is not None:     # windows of trial_chunk trials
            array.read_chunk_elems = trial_chunk * bits.size
        errors = read_bit_errors(array, bits, trial_streams(3, 5))
        reference = np.array([(array.read_all(rng=r) != bits).sum()
                              for r in trial_streams(3, 5)])
        assert np.array_equal(errors, reference)

    def test_read_bit_errors_validates_shape(self):
        array, bits = _programmed_array()
        with pytest.raises(ValueError, match="shape"):
            read_bit_errors(array, bits[:, :-1], trial_streams(0, 2))


class TestControllerTrialScans:
    @pytest.mark.parametrize("rows_per_block", [None, 1, 3])
    def test_batched_equals_per_trial_loop(self, rows_per_block):
        _, hw = _dense_hw()
        x = np.random.default_rng(9).integers(0, 2, (7, 50)).astype(np.uint8)
        if rows_per_block is not None:
            hw.controller.read_chunk_elems = \
                rows_per_block * hw.controller._stacked_margins().size
        batched = hw.forward_bits_trials(x, trial_streams(21, 5))
        serial = np.stack([hw.forward_bits_trials(x, [r])[0]
                           for r in trial_streams(21, 5)])
        assert np.array_equal(batched, serial)

    def test_batch_chunked_scan_identical(self):
        # Shrinking the offset-tensor budget forces batch chunking inside
        # each trial window; split-stable streams keep results identical.
        _, hw = _dense_hw()
        x = np.random.default_rng(9).integers(0, 2, (9, 50)).astype(np.uint8)
        wide = hw.forward_bits_trials(x, trial_streams(2, 4))
        hw.controller.read_chunk_elems = 2 * 32 * 64   # tiny budget
        narrow = hw.forward_bits_trials(x, trial_streams(2, 4))
        assert np.array_equal(wide, narrow)

    def test_per_trial_inputs_diverge_trials(self):
        _, hw = _dense_hw()
        rng = np.random.default_rng(1)
        x_stack = rng.integers(0, 2, (3, 7, 50)).astype(np.uint8)
        batched = hw.controller.popcounts_trials(x_stack,
                                                 trial_streams(2, 3))
        serial = np.stack(
            [hw.controller.popcounts(x_stack[t], rng=r)
             for t, r in enumerate(trial_streams(2, 3))])
        assert np.array_equal(batched, serial)

    def test_sense_override_matches_rebuilt_config(self):
        # Reading a programmed controller at a different offset sigma must
        # equal a controller built with that sigma (margins are untouched
        # by sense parameters) — the property the plan cache relies on.
        folded, hw = _dense_hw(sigma=0.0)
        x = np.random.default_rng(3).integers(0, 2, (5, 50)).astype(np.uint8)
        override = hw.forward_bits_trials(
            x, trial_streams(8, 4), sense=SenseParameters(offset_sigma=0.7))
        config = AcceleratorConfig(sense=SenseParameters(offset_sigma=0.7))
        rebuilt = RRAMBackend(config, np.random.default_rng(1),
                              fast_path=False).prepare_dense(folded)
        native = rebuilt.forward_bits_trials(x, trial_streams(8, 4))
        assert np.array_equal(override, native)

    @pytest.mark.parametrize("backend", [RRAMBackend, ShardedRRAMBackend])
    def test_fast_path_trials_coincide(self, backend):
        """A deterministic layer has no trial axis of its own: its plan
        runs it once and broadcasts."""
        hidden, output, x = _deterministic_stack()
        plan = plan_from_folded([hidden], output, backend(
            AcceleratorConfig(ideal=True), rng=np.random.default_rng(1)))
        hw = plan.layer_ops[0].executor
        assert hw.controller.fast_path
        assert not hasattr(hw, "forward_bits_trials")
        assert np.array_equal(hw.forward_bits(x), hidden.forward_bits(x))
        out = plan.scores_trials(x, trials=3)
        assert np.array_equal(out[0], plan_from_folded(
            [hidden], output, "reference").scores(x))
        assert np.array_equal(out[0], out[1]) and np.array_equal(
            out[1], out[2])

    def test_validates_input_shape(self):
        _, hw = _dense_hw()
        with pytest.raises(ValueError, match="input shape"):
            hw.controller.popcounts_trials(
                np.zeros((3, 7), dtype=np.uint8), trial_streams(0, 2))

    @pytest.mark.parametrize("backend", [RRAMBackend, ShardedRRAMBackend])
    def test_fast_path_refuses_noisy_sense_override(self, backend):
        # A deterministic plan has no margins; a noisy override must
        # raise instead of silently returning deterministic results.
        hidden, output, x = _deterministic_stack()
        plan = plan_from_folded([hidden], output, backend(
            AcceleratorConfig(ideal=True), rng=np.random.default_rng(1)))
        noisy = SenseParameters(offset_sigma=0.5)
        with pytest.raises(ValueError, match="fast_path=False"):
            plan.scores_trials(x, trials=2, sense=noisy)
        with pytest.raises(ValueError, match="fast_path=False"):
            plan.scores_trials(x, trials=1, sense=noisy)
        # A zero-sigma override is honoured trivially (no noise to draw).
        out = plan.scores_trials(x, trials=1,
                                 sense=SenseParameters(offset_sigma=0.0))
        assert np.array_equal(out[0], plan_from_folded(
            [hidden], output, "reference").scores(x))


class TestConvTrialReads:
    def _conv_hw(self):
        from repro.rram.conv import FoldedBinaryConv1d
        rng = np.random.default_rng(2)
        folded = FoldedBinaryConv1d(
            weight_bits=rng.integers(0, 2, (6, 4 * 3)).astype(np.uint8),
            in_channels=4, kernel_size=3, stride=1,
            theta=rng.standard_normal(6), gamma_sign=np.ones(6),
            beta_sign=np.ones(6))
        hw = RRAMBackend(AcceleratorConfig(), np.random.default_rng(3),
                         fast_path=False).prepare_conv1d(folded)
        x = rng.integers(0, 2, (5, 4, 11)).astype(np.uint8)
        return hw, x

    def test_batched_equals_per_trial_loop(self):
        hw, x = self._conv_hw()
        batched = hw.forward_bits_trials(x, trial_streams(6, 4))
        serial = np.stack([hw.forward_bits_trials(x, [r])[0]
                           for r in trial_streams(6, 4)])
        assert np.array_equal(batched, serial)

    def test_rejects_trial_count_mismatch(self):
        hw, x = self._conv_hw()
        stack = np.broadcast_to(x[None], (3,) + x.shape).copy()
        with pytest.raises(ValueError, match="trial slices"):
            hw.forward_bits_trials(stack, trial_streams(0, 2))


#: Zeroed variability and a noiseless programmed sense amplifier: noise
#: appears only when a read-time ``sense`` override injects it.
QUIET = AcceleratorConfig(
    device=DeviceParameters(sigma_lrs0=0.0, sigma_hrs0=0.0, broadening=0.0,
                            hrs_drift=0.0, device_mismatch=1.0),
    sense=SenseParameters(offset_sigma=0.0))


def _classifier_plan(seed, config, backend=None):
    """A random 30->16->4 folded classifier on the physical device path
    (or on ``backend``), plus a batch of input bits."""
    rng = np.random.default_rng(seed)
    hidden = FoldedBinaryDense(
        rng.integers(0, 2, (16, 30)).astype(np.uint8),
        theta=rng.standard_normal(16),
        gamma_sign=np.ones(16), beta_sign=np.ones(16))
    output = FoldedOutputDense(
        rng.integers(0, 2, (4, 16)).astype(np.uint8),
        scale=np.ones(4), offset=np.zeros(4))
    if backend is None:
        backend = RRAMBackend(config, np.random.default_rng(seed + 1),
                              fast_path=False)
    x = rng.integers(0, 2, (12, 30)).astype(np.uint8)
    return plan_from_folded([hidden], output, backend=backend), x


class TestClassifierTrials:
    def test_stacked_classifier_matches_serial_pass(self):
        plan, x = _classifier_plan(4, AcceleratorConfig())
        layer, out = (op.executor for op in plan.layer_ops)
        batched = plan.scores_trials(x, 4, seed=1)
        serial = [out.forward_scores_trials(
                      layer.forward_bits_trials(x, [r])[0], [r])[0]
                  for r in trial_streams(1, 4)]
        assert np.array_equal(batched, np.stack(serial))
        labels = plan.predict_trials(x, 4, seed=1)
        assert labels.shape == (4, 12)
        assert np.array_equal(labels, batched.argmax(axis=2))

    def test_classifier_sense_override_passes_through(self):
        """A ``sense=`` override on the plan reaches every layer — the
        mechanism the trained-robustness sweep uses to read one
        programmed chip at many sigmas."""
        plan, x = _classifier_plan(7, QUIET)
        layer, out = (op.executor for op in plan.layer_ops)
        quiet = plan.scores_trials(x, 3, seed=2)
        assert np.array_equal(quiet[0], quiet[1])      # deterministic
        sense = SenseParameters(offset_sigma=5.0)
        noisy = plan.scores_trials(x, 3, seed=2, sense=sense)
        assert not np.array_equal(noisy, quiet)
        serial = [out.forward_scores_trials(
                      layer.forward_bits_trials(x, [r], sense=sense)[0],
                      [r], sense=sense)[0]
                  for r in trial_streams(2, 3)]
        assert np.array_equal(noisy, np.stack(serial))
        hidden_only = [out.forward_scores_trials(
                           layer.forward_bits_trials(x, [r],
                                                     sense=sense)[0],
                           [r])[0]
                       for r in trial_streams(2, 3)]
        assert not np.array_equal(noisy, np.stack(hidden_only))
        assert np.array_equal(
            plan.predict_trials(x, 3, seed=2, sense=sense),
            noisy.argmax(axis=2))

    def test_sense_override_with_batch_and_trial_chunks(self):
        """Row chunks read the override too: the ``(seed, batch_size)``
        stack equals a serial per-trial pass over the same row chunks,
        for any ``trial_chunk``."""
        plan, x = _classifier_plan(7, QUIET)
        layer, out = (op.executor for op in plan.layer_ops)
        sense = SenseParameters(offset_sigma=2.0)
        chunked = plan.scores_trials(x, 4, seed=3, batch_size=5,
                                     sense=sense)
        serial = []
        for r in trial_streams(3, 4):
            serial.append(np.concatenate([
                out.forward_scores_trials(
                    layer.forward_bits_trials(x[s:s + 5], [r],
                                              sense=sense)[0],
                    [r], sense=sense)[0]
                for s in range(0, len(x), 5)]))
        assert np.array_equal(chunked, np.stack(serial))
        assert np.array_equal(
            chunked, plan.scores_trials(x, 4, seed=3, batch_size=5,
                                        trial_chunk=1, sense=sense))
        whole = plan.scores_trials(x, 4, seed=3, sense=sense)
        assert np.array_equal(
            whole, plan.scores_trials(x, 4, seed=3, trial_chunk=3,
                                      sense=sense))

    @pytest.mark.parametrize("backend", [
        "reference", "packed",
        lambda: RRAMBackend(AcceleratorConfig(ideal=True))])
    def test_noisy_override_on_deterministic_plan_raises(self, backend):
        """Packed/reference executors and fast-path RRAM have no margins to
        perturb: a nonzero-sigma override is refused, never ignored."""
        plan, x = _classifier_plan(
            7, QUIET, backend=backend() if callable(backend) else backend)
        with pytest.raises(ValueError, match="physical device path"):
            plan.scores_trials(x, 2, sense=SenseParameters(offset_sigma=1.0))
        with pytest.raises(ValueError, match="physical device path"):
            plan.predict_trials(x, 2,
                                sense=SenseParameters(offset_sigma=1.0))
        # A zero-sigma override asks for nothing these plans lack.
        assert np.array_equal(
            plan.scores_trials(x, 2, sense=SenseParameters(offset_sigma=0.0)),
            plan.scores_trials(x, 2))
