"""Graceful degradation on the sharded backend: dead macros are remapped
onto provisioned spare chips instead of failing the deployment.

Contracts under test:

* a killed macro's shard re-programs onto a healthy spare, so results
  stay *bit-identical* to the monolithic controller on both paths
  (the effective bits a deterministic controller hands the packed
  executors, and the zero-sigma physical read);
* the fast path stays on under degradation: a remapped shard's spare
  chip contributes its fault-free bits to the layer's effective bits;
* spare provisioning is explicit: more dead macros than spares raises,
  chip-global maps must be rebased before reaching a layer;
* degradation is visible: placements, floorplan reports and repr all
  name the remapped shards.
"""

import numpy as np
import pytest

from repro.nn.binary import xnor_popcount
from repro.rram import (AcceleratorConfig, FaultMap, MacroGeometry,
                        MemoryController, ShardedController, trial_streams)


@pytest.fixture
def weights(rng):
    return rng.integers(0, 2, (37, 131)).astype(np.uint8)


@pytest.fixture
def x_bits(rng):
    return rng.integers(0, 2, (9, 131)).astype(np.uint8)


def _dead_map(*macros: int) -> FaultMap:
    return FaultMap(dead_macros=tuple(macros))


class TestRemapEquivalence:
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_killed_macro_matches_monolithic(self, weights, x_bits,
                                             fast_path):
        config = AcceleratorConfig(ideal=True)
        mono = MemoryController(weights, config, fast_path=False)
        sharded = ShardedController(weights, config=config,
                                    macro=MacroGeometry(8, 24),
                                    fault_map=_dead_map(1, 5),
                                    fast_path=fast_path)
        assert sharded.degraded
        assert tuple(sharded.remapped_shards) == (1, 5)
        if fast_path:
            assert np.array_equal(sharded.effective_bits, weights)
            counts = xnor_popcount(x_bits, sharded.effective_bits)
        else:
            counts = sharded.popcounts(x_bits)
        assert np.array_equal(counts, mono.popcounts(x_bits))

    def test_fast_path_survives_degradation(self, weights, x_bits):
        config = AcceleratorConfig(ideal=True)
        sharded = ShardedController(weights, config=config,
                                    macro=MacroGeometry(8, 24),
                                    fault_map=_dead_map(0))
        healthy = ShardedController(weights, config=config,
                                    macro=MacroGeometry(8, 24))
        assert np.array_equal(sharded.effective_bits,
                              healthy.effective_bits)
        # Both hand the packed executors one stitched weight matrix,
        # never a per-shard loop.
        assert sharded.fast_path and healthy.fast_path

    def test_physical_path_remap(self, weights, x_bits):
        config = AcceleratorConfig(ideal=True)
        mono = MemoryController(weights, config, fast_path=False)
        sharded = ShardedController(weights, config=config,
                                    macro=MacroGeometry(8, 24),
                                    fault_map=_dead_map(2),
                                    fast_path=False)
        assert np.array_equal(
            sharded.popcounts(x_bits, rng=np.random.default_rng(0)),
            mono.popcounts(x_bits, rng=np.random.default_rng(1)))

    def test_noisy_trials_batched_equals_serial_degraded(self, weights,
                                                         x_bits):
        config = AcceleratorConfig()
        make = lambda: ShardedController(
            weights, config=config, rng=np.random.default_rng(3),
            macro=MacroGeometry(8, 24),
            fault_map=FaultMap(stuck_lrs=0.01, dead_macros=(1,), seed=5))
        batched = make().popcounts_trials(x_bits, trial_streams(9, 3))
        serial = np.stack([make().popcounts(x_bits, rng=r)
                           for r in trial_streams(9, 3)])
        assert np.array_equal(batched, serial)

    def test_dead_plus_stuck_faults_consistent(self, weights, x_bits):
        """Cell faults apply to healthy shards; the remapped shard's
        spare chip is fault-free. The fast path and the zero-sigma
        physical path agree, scans and meters alike."""
        config = AcceleratorConfig(ideal=True)
        fm = FaultMap(stuck_lrs=0.02, dead_macros=(3,), seed=8)
        fast = ShardedController(weights, config=config,
                                 macro=MacroGeometry(8, 24), fault_map=fm)
        physical = ShardedController(weights, config=config,
                                     macro=MacroGeometry(8, 24),
                                     fault_map=fm, fast_path=False)
        assert fast.fast_path and not physical.fast_path
        assert sum(s.n_stuck_cells for s in physical.shards) > 0
        assert np.array_equal(xnor_popcount(x_bits, fast.effective_bits),
                              physical.popcounts(x_bits))
        fast.meter_reads(len(x_bits), trials=1)
        assert fast.sense_ops == physical.sense_ops
        assert fast.popcount_bit_ops == physical.popcount_bit_ops


class TestProvisioning:
    def test_auto_spares_cover_dead(self, weights):
        sharded = ShardedController(weights,
                                    config=AcceleratorConfig(ideal=True),
                                    macro=MacroGeometry(8, 24),
                                    fault_map=_dead_map(0, 1, 2))
        assert sharded.placement.spare_macros >= 3

    def test_insufficient_spares_raises(self, weights):
        with pytest.raises(RuntimeError, match="spare"):
            ShardedController(weights,
                              config=AcceleratorConfig(ideal=True),
                              macro=MacroGeometry(8, 24),
                              fault_map=_dead_map(0, 1), spares=1)

    def test_zero_spares_healthy_map_ok(self, weights):
        sharded = ShardedController(weights,
                                    config=AcceleratorConfig(ideal=True),
                                    macro=MacroGeometry(8, 24), spares=0)
        assert not sharded.degraded
        mono = MemoryController(weights, AcceleratorConfig(ideal=True))
        assert np.array_equal(sharded.effective_bits, mono.effective_bits)

    def test_chip_global_map_must_be_rebased(self, weights):
        with pytest.raises(ValueError, match="rebased"):
            ShardedController(weights,
                              config=AcceleratorConfig(ideal=True),
                              macro=MacroGeometry(8, 24),
                              fault_map=_dead_map(10_000))

    def test_empty_map_identical_to_no_map(self, weights, x_bits):
        config = AcceleratorConfig()
        a = ShardedController(weights, config=config,
                              rng=np.random.default_rng(2),
                              macro=MacroGeometry(8, 24))
        b = ShardedController(weights, config=config,
                              rng=np.random.default_rng(2),
                              macro=MacroGeometry(8, 24),
                              fault_map=FaultMap())
        assert not b.degraded
        ra = a.popcounts(x_bits, rng=np.random.default_rng(0))
        rb = b.popcounts(x_bits, rng=np.random.default_rng(0))
        assert np.array_equal(ra, rb)


class TestDegradedReporting:
    def test_placement_records_remaps(self, weights):
        sharded = ShardedController(weights,
                                    config=AcceleratorConfig(ideal=True),
                                    macro=MacroGeometry(8, 24),
                                    fault_map=_dead_map(1, 5))
        p = sharded.placement
        assert p.remapped == (1, 5)
        assert p.spare_macros >= 2

    def test_repr_names_remapped(self, weights):
        sharded = ShardedController(weights,
                                    config=AcceleratorConfig(ideal=True),
                                    macro=MacroGeometry(8, 24),
                                    fault_map=_dead_map(4))
        assert "remapped=(4,)" in repr(sharded)
