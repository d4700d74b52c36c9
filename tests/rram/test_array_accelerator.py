"""Memory array, controller tiling, and the in-memory classifier."""

import numpy as np
import pytest

from repro import nn
from repro.nn.binary import (fold_batchnorm_output, fold_batchnorm_sign,
                             to_bits, xnor_popcount)
from repro.rram import (AcceleratorConfig, DeviceParameters,
                        MemoryController, RRAMArray, SenseParameters,
                        trial_streams)
from repro.runtime import RRAMBackend

IDEAL = AcceleratorConfig(ideal=True)


def ideal_array(rng, rows=8, cols=8, mode="2T2R"):
    cfg = IDEAL.resolved()
    return RRAMArray(rows, cols, params=cfg.device, sense=cfg.sense,
                     rng=rng, mode=mode)


class TestRRAMArray:
    def test_program_read_roundtrip_ideal(self, rng):
        arr = ideal_array(rng)
        bits = rng.integers(0, 2, (8, 8)).astype(np.uint8)
        arr.program(bits)
        assert np.array_equal(arr.read_all(), bits)

    def test_1t1r_mode_roundtrip_ideal(self, rng):
        arr = ideal_array(rng, mode="1T1R")
        bits = rng.integers(0, 2, (8, 8)).astype(np.uint8)
        arr.program(bits)
        assert np.array_equal(arr.read_all(), bits)

    def test_realistic_array_roundtrip_fresh(self, rng):
        arr = RRAMArray(16, 16, rng=rng)
        bits = rng.integers(0, 2, (16, 16)).astype(np.uint8)
        arr.program(bits)
        # Fresh devices: BER ~1e-6, 256 bits should read back clean.
        assert np.array_equal(arr.read_all(), bits)

    def test_sense_override_reads_like_a_rebuilt_array(self, rng):
        arr = RRAMArray(8, 8, rng=rng)
        arr.program(rng.integers(0, 2, (8, 8)).astype(np.uint8))
        noisy = SenseParameters(offset_sigma=2.0)
        got = arr.read_all(np.random.default_rng(1), sense=noisy)
        arr.sense = noisy
        assert np.array_equal(got, arr.read_all(np.random.default_rng(1)))
        arr.read_all_trials(trial_streams(0, 3))
        assert arr.sense_ops == 5 * 64     # one per cell per read

    def test_decoder_bounds(self, rng):
        arr = ideal_array(rng)
        with pytest.raises(IndexError):
            arr.program_row(8, np.zeros(8, dtype=np.uint8))
        with pytest.raises(IndexError):
            arr.program_row(0, [1], cols=[9])

    def test_reading_unprogrammed_raises(self, rng):
        arr = ideal_array(rng)
        arr.program_row(0, np.zeros(8, dtype=np.uint8))
        with pytest.raises(RuntimeError):
            arr.read_all()

    def test_program_counts_cycles(self, rng):
        arr = ideal_array(rng)
        bits = np.zeros((8, 8), dtype=np.uint8)
        arr.program(bits)
        arr.program(bits)
        assert np.all(arr.cycles == 2)

    def test_shape_validation(self, rng):
        arr = ideal_array(rng)
        with pytest.raises(ValueError):
            arr.program(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            RRAMArray(4, 4, mode="3T3R")


class TestMemoryController:
    def test_tiling_covers_ragged_matrix(self, rng):
        bits = rng.integers(0, 2, (40, 70)).astype(np.uint8)
        ctrl = MemoryController(bits, AcceleratorConfig(
            tile_rows=32, tile_cols=32, ideal=True), rng)
        assert ctrl.grid_rows == 2 and ctrl.grid_cols == 3
        assert ctrl.n_tiles == 6

    def test_popcounts_match_software(self, rng):
        bits = rng.integers(0, 2, (10, 50)).astype(np.uint8)
        ctrl = MemoryController(bits, AcceleratorConfig(
            tile_rows=8, tile_cols=16, ideal=True), rng, fast_path=False)
        x = rng.integers(0, 2, (6, 50)).astype(np.uint8)
        assert np.array_equal(ctrl.popcounts(x), xnor_popcount(x, bits))

    def test_padding_columns_do_not_contribute(self, rng):
        # 5 inputs on 16-wide tiles: 11 padded columns must be masked.
        bits = rng.integers(0, 2, (4, 5)).astype(np.uint8)
        ctrl = MemoryController(bits, AcceleratorConfig(
            tile_rows=4, tile_cols=16, ideal=True), rng, fast_path=False)
        x = rng.integers(0, 2, (3, 5)).astype(np.uint8)
        assert np.array_equal(ctrl.popcounts(x), xnor_popcount(x, bits))
        assert ctrl.popcounts(x).max() <= 5

    def test_input_shape_validation(self, rng):
        ctrl = MemoryController(np.zeros((4, 5), np.uint8),
                                AcceleratorConfig(ideal=True), rng,
                                fast_path=False)
        with pytest.raises(ValueError, match="input shape"):
            ctrl.popcounts(np.zeros((2, 6), np.uint8))

    def test_device_count_includes_differential_pairs(self, rng):
        ctrl = MemoryController(np.zeros((4, 5), np.uint8),
                                AcceleratorConfig(tile_rows=4, tile_cols=8,
                                                  ideal=True), rng)
        assert ctrl.n_devices == 1 * 4 * 8 * 2


class TestFastPath:
    """Noise-free configs build no device state: their effective bits run
    on the packed kernels, and their reads are metered arithmetically."""

    def test_ideal_config_auto_selects_fast_path(self, rng):
        bits = rng.integers(0, 2, (10, 50)).astype(np.uint8)
        ctrl = MemoryController(bits, AcceleratorConfig(ideal=True), rng)
        assert ctrl.fast_path
        assert ctrl.tiles == []          # no device simulation at all

    def test_noisy_config_keeps_simulation(self, rng):
        bits = rng.integers(0, 2, (10, 50)).astype(np.uint8)
        ctrl = MemoryController(bits, AcceleratorConfig(), rng)
        assert not ctrl.fast_path
        assert len(ctrl.tiles) == ctrl.grid_rows

    def test_invalid_fast_path_value_raises(self, rng):
        bits = rng.integers(0, 2, (4, 5)).astype(np.uint8)
        for value in ("maybe", "auto", 1, None):
            with pytest.raises(ValueError, match="fast_path"):
                MemoryController(bits, AcceleratorConfig(ideal=True), rng,
                                 fast_path=value)

    def test_fast_matches_noisy_path_at_zero_variability(self, rng):
        bits = rng.integers(0, 2, (40, 70)).astype(np.uint8)
        config = AcceleratorConfig(tile_rows=8, tile_cols=16, ideal=True)
        fast = MemoryController(bits, config, np.random.default_rng(0))
        slow = MemoryController(bits, config, np.random.default_rng(0),
                                fast_path=False)
        x = rng.integers(0, 2, (9, 70)).astype(np.uint8)
        assert fast.fast_path and not slow.fast_path
        assert np.array_equal(fast.effective_bits, bits)
        counts = xnor_popcount(x, fast.effective_bits)
        assert np.array_equal(counts, slow.popcounts(x))
        assert np.array_equal(counts, xnor_popcount(x, bits))

    def test_fast_path_keeps_op_accounting(self, rng):
        bits = rng.integers(0, 2, (4, 5)).astype(np.uint8)
        config = AcceleratorConfig(tile_rows=4, tile_cols=8, ideal=True)
        fast = MemoryController(bits, config, np.random.default_rng(0))
        slow = MemoryController(bits, config, np.random.default_rng(0),
                                fast_path=False)
        x = rng.integers(0, 2, (3, 5)).astype(np.uint8)
        fast.meter_reads(len(x), trials=1)
        slow.popcounts(x)
        assert fast.n_devices == slow.n_devices == 1 * 4 * 8 * 2
        assert fast.sense_ops == slow.sense_ops > 0
        assert fast.popcount_bit_ops == slow.popcount_bit_ops > 0

    def test_fast_path_wear_and_reprogram_are_safe(self, rng):
        bits = rng.integers(0, 2, (4, 5)).astype(np.uint8)
        ctrl = MemoryController(bits, AcceleratorConfig(ideal=True), rng)
        ctrl.wear(int(1e9))              # no-op: no variability to age
        ctrl.reprogram()
        assert np.array_equal(ctrl.effective_bits, bits)


class TestNoisyPathChunking:
    """The batch-chunked scan is equivalent to one unchunked scan."""

    def test_chunked_equals_unchunked_under_fixed_rng(self, rng):
        bits = rng.integers(0, 2, (40, 70)).astype(np.uint8)
        config = AcceleratorConfig(tile_rows=8, tile_cols=16)
        x = rng.integers(0, 2, (11, 70)).astype(np.uint8)
        whole = MemoryController(bits, config, np.random.default_rng(3))
        chunked = MemoryController(bits, config, np.random.default_rng(3))
        # 3 batch rows per offset draw instead of the whole batch at once.
        chunked.read_chunk_elems = \
            3 * chunked.grid_rows * config.tile_rows * 70
        assert np.array_equal(whole.popcounts(x), chunked.popcounts(x))

    def test_chunking_bounds_do_not_change_statistics(self, rng):
        # Sanity: a noisy controller with tiny chunks still mostly agrees
        # with the stored bits on fresh devices.
        bits = rng.integers(0, 2, (16, 32)).astype(np.uint8)
        ctrl = MemoryController(bits, AcceleratorConfig(), rng)
        ctrl.read_chunk_elems = 1        # one batch row per draw
        x = rng.integers(0, 2, (8, 32)).astype(np.uint8)
        agreement = (ctrl.popcounts(x) == xnor_popcount(x, bits)).mean()
        assert agreement > 0.9


def _trained_like_bn(rng, features):
    bn = nn.BatchNorm1d(features)
    bn.gamma.data = rng.uniform(0.5, 1.5, features)
    bn.beta.data = rng.standard_normal(features)
    bn.set_buffer("running_mean", rng.standard_normal(features))
    bn.set_buffer("running_var", rng.uniform(0.5, 2.0, features))
    bn.eval()
    return bn


class TestInMemoryLayers:
    def test_dense_layer_matches_folded_software(self, rng):
        layer = nn.BinaryLinear(24, 7, rng=rng)
        bn = _trained_like_bn(rng, 7)
        folded = fold_batchnorm_sign(layer, bn)
        hw = RRAMBackend(AcceleratorConfig(
            tile_rows=8, tile_cols=8, ideal=True), rng).prepare_dense(folded)
        x = rng.integers(0, 2, (9, 24)).astype(np.uint8)
        assert np.array_equal(hw.forward_bits(x), folded.forward_bits(x))

    def test_output_layer_matches_folded_software(self, rng):
        layer = nn.BinaryLinear(16, 3, rng=rng)
        bn = _trained_like_bn(rng, 3)
        folded = fold_batchnorm_output(layer, bn)
        hw = RRAMBackend(AcceleratorConfig(
            tile_rows=8, tile_cols=8, ideal=True), rng).prepare_output(folded)
        x = rng.integers(0, 2, (5, 16)).astype(np.uint8)
        assert np.allclose(hw.forward_scores(x), folded.forward_scores(x))

    def test_noisy_hardware_mostly_agrees_when_fresh(self, rng):
        layer = nn.BinaryLinear(64, 8, rng=rng)
        bn = _trained_like_bn(rng, 8)
        folded = fold_batchnorm_sign(layer, bn)
        hw = RRAMBackend(AcceleratorConfig(), rng).prepare_dense(folded)
        x = rng.integers(0, 2, (20, 64)).astype(np.uint8)
        agreement = (hw.forward_bits(x) == folded.forward_bits(x)).mean()
        assert agreement > 0.95

    def test_wear_increases_disagreement(self, rng):
        layer = nn.BinaryLinear(64, 8, rng=rng)
        bn = _trained_like_bn(rng, 8)
        folded = fold_batchnorm_sign(layer, bn)
        params = DeviceParameters(sigma_lrs0=0.6, sigma_hrs0=0.6)
        hw = RRAMBackend(AcceleratorConfig(device=params),
                         rng).prepare_dense(folded)
        hw.controller.wear(int(1e10))
        hw.controller.reprogram()
        x = rng.integers(0, 2, (50, 64)).astype(np.uint8)
        worn = (hw.forward_bits(x) == folded.forward_bits(x)).mean()

        hw_fresh = RRAMBackend(AcceleratorConfig(device=params),
                               np.random.default_rng(0)).prepare_dense(folded)
        fresh = (hw_fresh.forward_bits(x) == folded.forward_bits(x)).mean()
        assert worn <= fresh
