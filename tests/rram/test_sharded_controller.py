"""Sharded multi-macro execution (repro.rram.accelerator.ShardedController
+ repro.rram.mc.shard_streams).

The contracts under test: the shard-and-reduce dataflow is bit-identical
to the monolithic controller on noise-free configurations (partial
popcounts decompose exactly over fan-in slices, so a deterministic
controller's stitched ``effective_bits`` equal the monolithic ones and
its arithmetic meters equal the physical scans), and noisy reads follow
the per-(shard, trial) stream contract — trial-batched execution equals a
serial per-trial loop for any trial chunking, with every chip drawing
independent sense noise.
"""

import numpy as np
import pytest

from repro.nn.binary import FoldedBinaryDense, xnor_popcount
from repro.rram import (AcceleratorConfig, DeviceParameters, LayerPlacement,
                        MacroGeometry, MemoryController, SenseParameters,
                        ShardedController, shard_streams, trial_streams)
from repro.runtime import ShardedRRAMBackend


def _set_read_budget(budget, *controllers):
    """Shrink the read windows of sharded controllers' chips (``None``
    keeps the default budget), so noisy scans run several row blocks."""
    for controller in controllers:
        for ctrl in controller.shards:
            if budget is not None:
                ctrl.read_chunk_elems = budget


def _noise_free_config() -> AcceleratorConfig:
    device = DeviceParameters(sigma_lrs0=0.0, sigma_hrs0=0.0,
                              broadening=0.0, hrs_drift=0.0,
                              device_mismatch=1.0)
    return AcceleratorConfig(device=device,
                             sense=SenseParameters(offset_sigma=0.0))


@pytest.fixture
def weights(rng):
    # 37 x 131: both dimensions prime, so every geometry below produces
    # non-divisible tail shards in at least one axis.
    return rng.integers(0, 2, (37, 131)).astype(np.uint8)


@pytest.fixture
def x_bits(rng):
    return rng.integers(0, 2, (9, 131)).astype(np.uint8)


class TestNoiseFreeEquivalence:
    @pytest.mark.parametrize("geometry", [(32, 32), (7, 13), (8, 24),
                                          (64, 256), (37, 131)])
    def test_matches_monolithic_bit_for_bit(self, weights, geometry):
        config = AcceleratorConfig(ideal=True)
        mono = MemoryController(weights, config, np.random.default_rng(1))
        sharded = ShardedController(weights, config=config,
                                    rng=np.random.default_rng(2),
                                    macro=MacroGeometry(*geometry))
        assert sharded.fast_path
        assert np.array_equal(sharded.effective_bits, mono.effective_bits)

    def test_noise_free_but_physical_path_matches_too(self, weights,
                                                      x_bits):
        """fast_path=False keeps real arrays resident; at zero sigma the
        reduction must still be exact."""
        config = _noise_free_config()
        mono = MemoryController(weights, config, np.random.default_rng(1),
                                fast_path=False)
        sharded = ShardedController(weights, config=config,
                                    rng=np.random.default_rng(2),
                                    fast_path=False,
                                    macro=MacroGeometry(8, 16))
        assert not sharded.fast_path
        assert np.array_equal(sharded.popcounts(x_bits),
                              mono.popcounts(x_bits))

    def test_executes_the_placement_shard_map(self, weights):
        placement = LayerPlacement("fc", 37, 131, MacroGeometry(8, 16))
        sharded = ShardedController(weights, placement,
                                    AcceleratorConfig(ideal=True))
        assert sharded.n_macros == placement.n_macros
        assert sharded.placement is placement
        for spec, shard in zip(sharded.shard_map, sharded.shards):
            assert (shard.out_features, shard.in_features) == \
                (spec.rows, spec.cols)
            # Every chip is a full fixed-geometry macro, tails included.
            assert shard.config.tile_rows == 8
            assert shard.config.tile_cols == 16
            assert shard.n_tiles == 1

    def test_devices_count_full_macros(self, weights):
        sharded = ShardedController(weights,
                                    config=AcceleratorConfig(ideal=True),
                                    macro=MacroGeometry(8, 16))
        assert sharded.n_devices == sharded.n_macros * 8 * 16 * 2

    def test_placement_shape_mismatch_raises(self, weights):
        placement = LayerPlacement("fc", 10, 131, MacroGeometry(8, 16))
        with pytest.raises(ValueError, match="placement"):
            ShardedController(weights, placement)

    def test_bad_input_shape_raises(self, weights):
        sharded = ShardedController(weights,
                                    config=AcceleratorConfig(ideal=True),
                                    fast_path=False)
        with pytest.raises(ValueError, match="input shape"):
            sharded.popcounts(np.zeros((4, 7), dtype=np.uint8))


class TestNoisyTrials:
    @pytest.fixture
    def sharded(self, weights):
        config = AcceleratorConfig(
            device=DeviceParameters(sigma_lrs0=0.0, sigma_hrs0=0.0,
                                    broadening=0.0, hrs_drift=0.0,
                                    device_mismatch=1.0),
            sense=SenseParameters(offset_sigma=0.6))
        return ShardedController(weights, config=config,
                                 rng=np.random.default_rng(3),
                                 fast_path=False,
                                 macro=MacroGeometry(8, 16))

    def test_batched_equals_serial_per_trial_loop(self, sharded, x_bits):
        batched = sharded.popcounts_trials(x_bits, trial_streams(7, 5))
        serial = np.stack([sharded.popcounts(x_bits, rng=stream)
                           for stream in trial_streams(7, 5)])
        assert np.array_equal(batched, serial)

    @pytest.mark.parametrize("budget", [1, 300, 9000, None])
    def test_trial_chunk_never_changes_results(self, sharded, x_bits,
                                               budget):
        expected = sharded.popcounts_trials(x_bits, trial_streams(7, 5))
        _set_read_budget(budget, sharded)
        chunked = sharded.popcounts_trials(x_bits, trial_streams(7, 5))
        assert np.array_equal(expected, chunked)

    def test_per_trial_activations_accepted(self, sharded, rng):
        stacked = rng.integers(0, 2, (4, 9, 131)).astype(np.uint8)
        batched = sharded.popcounts_trials(stacked, trial_streams(9, 4))
        serial = np.stack([sharded.popcounts(stacked[t], rng=stream)
                           for t, stream in enumerate(trial_streams(9, 4))])
        assert np.array_equal(batched, serial)

    def test_shards_draw_independent_noise(self, rng):
        """Two shards holding identical weight slices must not read
        identical noise — chips have their own sense amplifiers."""
        tile = rng.integers(0, 2, (8, 16)).astype(np.uint8)
        weights = np.concatenate([tile, tile], axis=1)   # two equal shards
        config = AcceleratorConfig(
            device=DeviceParameters(sigma_lrs0=0.0, sigma_hrs0=0.0,
                                    broadening=0.0, hrs_drift=0.0,
                                    device_mismatch=1.0),
            sense=SenseParameters(offset_sigma=2.5))
        sharded = ShardedController(weights, config=config,
                                    rng=np.random.default_rng(4),
                                    fast_path=False,
                                    macro=MacroGeometry(8, 16))
        assert sharded.n_macros == 2
        x = rng.integers(0, 2, (64, 32)).astype(np.uint8)
        reads = [shard.popcounts(x[:, s.col_start:s.col_stop],
                                 rng=np.random.default_rng(11).spawn(2)[i])
                 for i, (s, shard) in enumerate(zip(sharded.shard_map,
                                                    sharded.shards))]
        assert not np.array_equal(reads[0], reads[1])

    def test_sense_override_reaches_every_shard(self, sharded, x_bits):
        zero = sharded.popcounts_trials(
            x_bits, trial_streams(7, 2),
            sense=SenseParameters(offset_sigma=0.0))
        assert np.array_equal(zero[0], zero[1])   # deterministic at 0

    def test_fast_path_refuses_noisy_sense_override(self, weights, x_bits):
        sharded = ShardedController(weights,
                                    config=AcceleratorConfig(ideal=True),
                                    macro=MacroGeometry(8, 16))
        with pytest.raises(ValueError, match="fast_path"):
            sharded.popcounts(x_bits,
                              sense=SenseParameters(offset_sigma=0.5))

    def test_fast_path_trials_meter_every_scan(self, weights, x_bits):
        """Regression: metering ``T`` deterministic trials must account
        T scans on the ops meters, matching a serial per-trial loop and
        the physical trial scan."""
        make = lambda fast_path: ShardedController(
            weights, config=AcceleratorConfig(ideal=True),
            macro=MacroGeometry(8, 16), fast_path=fast_path)
        batched, serial, physical = make(True), make(True), make(False)
        batched.meter_reads(len(x_bits), trials=4)
        for _ in range(4):
            serial.meter_reads(len(x_bits), trials=1)
        physical.popcounts_trials(x_bits, trial_streams(7, 4))
        assert batched.sense_ops == serial.sense_ops == physical.sense_ops
        assert batched.popcount_bit_ops == serial.popcount_bit_ops \
            == physical.popcount_bit_ops

    def test_wear_and_reprogram_touch_every_chip(self, sharded):
        sharded.wear(1000)
        for shard in sharded.shards:
            for row in shard.tiles:
                for tile in row:
                    assert tile.cycles.min() >= 1000
        sharded.reprogram()   # must not raise; margins invalidated
        assert all(t._margins is None for t in sharded.shards)


class TestFastPath:
    """The sharded fast path: the layer's effective bits, whose popcount
    is bit-identical to the zero-sigma physical sharded path and the
    monolithic controller, with meters accounted arithmetically."""

    def _pair(self, weights, geometry):
        """(fast, zero-sigma physical reference) on one geometry."""
        config = AcceleratorConfig(ideal=True)
        fast = ShardedController(weights, config=config,
                                 macro=MacroGeometry(*geometry))
        reference = ShardedController(weights, config=config,
                                      macro=MacroGeometry(*geometry),
                                      fast_path=False)
        return fast, reference

    @pytest.mark.parametrize("geometry", [(32, 32), (7, 13), (8, 24),
                                          (64, 256), (37, 131)])
    def test_fast_equals_reference_and_monolithic(self, weights, x_bits,
                                                  geometry):
        fast, reference = self._pair(weights, geometry)
        assert fast.fast_path and not reference.fast_path
        mono = MemoryController(weights, AcceleratorConfig(ideal=True),
                                fast_path=False)
        counts = xnor_popcount(x_bits, fast.effective_bits)
        assert np.array_equal(counts, reference.popcounts(x_bits))
        assert np.array_equal(counts, mono.popcounts(x_bits))

    def test_one_shard_placement_takes_the_fast_path(self, weights,
                                                     x_bits):
        fast, reference = self._pair(weights, (64, 256))
        assert fast.n_shards == 1 and fast.fast_path
        assert np.array_equal(xnor_popcount(x_bits, fast.effective_bits),
                              reference.popcounts(x_bits))

    def test_empty_batch(self, weights):
        _, reference = self._pair(weights, (8, 16))
        empty = np.zeros((0, 131), dtype=np.uint8)
        fast = ShardedRRAMBackend(AcceleratorConfig(ideal=True),
                                  macro=MacroGeometry(8, 16)).prepare_dense(
            FoldedBinaryDense(weights, theta=np.zeros(37),
                              gamma_sign=np.ones(37), beta_sign=np.ones(37)))
        assert fast.forward_bits(empty).shape == (0, 37)
        assert fast.controller.sense_ops == 0
        assert reference.popcounts(empty).shape == (0, 37)

    @pytest.mark.parametrize("budget", [1, 300, 9000, None])
    def test_trials_shared_activations(self, weights, x_bits, budget):
        fast, reference = self._pair(weights, (7, 13))
        _set_read_budget(budget, reference)
        b = reference.popcounts_trials(x_bits, trial_streams(7, 5))
        counts = xnor_popcount(x_bits, fast.effective_bits)
        assert all(np.array_equal(trial, counts) for trial in b)

    @pytest.mark.parametrize("budget", [1, 300, 9000, None])
    def test_trials_per_trial_activations(self, weights, rng, budget):
        fast, reference = self._pair(weights, (7, 13))
        _set_read_budget(budget, reference)
        x = rng.integers(0, 2, (5, 9, 131)).astype(np.uint8)
        b = reference.popcounts_trials(x, trial_streams(7, 5))
        serial = np.stack([xnor_popcount(x[t], fast.effective_bits)
                           for t in range(5)])
        assert np.array_equal(b, serial)

    def test_meters_match_reference_exactly(self, weights, x_bits, rng):
        fast, reference = self._pair(weights, (8, 16))
        per_trial = rng.integers(0, 2, (3, 9, 131)).astype(np.uint8)
        reference.popcounts(x_bits)
        reference.popcounts_trials(x_bits, trial_streams(7, 4))
        _set_read_budget(300, reference)
        reference.popcounts_trials(per_trial, trial_streams(7, 3))
        for trials in (1, 4, 3):
            fast.meter_reads(len(x_bits), trials)
        assert fast.sense_ops == reference.sense_ops
        assert fast.popcount_bit_ops == reference.popcount_bit_ops

    def test_noisy_config_scans_shard_by_shard(self, weights):
        config = AcceleratorConfig(
            device=DeviceParameters(sigma_lrs0=0.0, sigma_hrs0=0.0,
                                    broadening=0.0, hrs_drift=0.0,
                                    device_mismatch=1.0),
            sense=SenseParameters(offset_sigma=0.5))
        noisy = ShardedController(weights, config=config)
        assert not noisy.fast_path and noisy.effective_bits is None

    def test_invalid_stacked_value_raises(self, weights):
        """No ``stacked`` option exists: ``fast_path`` alone picks the
        read path."""
        for value in (False, "yes"):
            with pytest.raises(TypeError, match="stacked"):
                ShardedController(weights, stacked=value)

    def test_repr_reports_the_path(self, weights):
        fast, reference = self._pair(weights, (8, 16))
        assert "fast_path=True" in repr(fast)
        assert "fast_path=False" in repr(reference)
        assert fast.fast_path and not reference.fast_path

    def test_fast_path_refuses_noisy_sense_override(self, weights, x_bits):
        fast, _ = self._pair(weights, (8, 16))
        with pytest.raises(ValueError, match="fast_path"):
            fast.popcounts(x_bits, sense=SenseParameters(offset_sigma=0.4))
        with pytest.raises(ValueError, match="fast_path"):
            fast.popcounts_trials(x_bits, trial_streams(7, 2),
                                  sense=SenseParameters(offset_sigma=0.4))


class TestShardStreams:
    def test_shape_and_independence(self):
        streams = shard_streams(trial_streams(0, 3), 4)
        assert len(streams) == 4 and len(streams[0]) == 3
        draws = {float(streams[s][t].normal())
                 for s in range(4) for t in range(3)}
        assert len(draws) == 12   # all (shard, trial) streams distinct

    def test_matches_serial_spawn(self):
        batched = shard_streams(trial_streams(5, 2), 3)
        for t, stream in enumerate(trial_streams(5, 2)):
            children = stream.spawn(3)
            for s in range(3):
                assert batched[s][t].normal() == children[s].normal()

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ValueError, match="n_shards"):
            shard_streams(trial_streams(0, 2), 0)
