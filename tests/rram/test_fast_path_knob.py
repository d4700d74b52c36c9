"""The two-valued ``fast_path`` knob, across every place it is accepted.

Contracts under test, for ``MemoryController``, ``EccMemoryController``,
``ShardedController`` and the ``rram``/``sharded`` backends alike:

* ``fast_path`` is a plain bool; any other value (the retired
  ``"auto"`` included) raises a ``ValueError`` naming the knob;
* ``True`` builds no device state exactly when reads are deterministic
  (the controller exposes ``effective_bits`` instead), and silently
  falls back to device simulation on a noisy configuration or under
  retention aging instead of raising;
* ``False`` always simulates devices;
* a deterministic controller refuses direct reads before any meter
  moves, also when the read carries a noisy sense override;
* a sharded controller's effective bits are stitched from its chips:
  each healthy shard's stuck cells applied, a remapped (dead) shard's
  slice left as stored, because its spare chip is healthy.
"""

import numpy as np
import pytest

from repro.nn.binary import FoldedBinaryDense
from repro.rram import (AcceleratorConfig, DeviceParameters,
                        EccMemoryController, FaultMap, LifetimeConfig,
                        MacroGeometry, MemoryController, SenseParameters,
                        ShardedController)
from repro.runtime import RRAMBackend, ShardedRRAMBackend

MACRO = MacroGeometry(8, 16)


def _dense(weights):
    out = weights.shape[0]
    return FoldedBinaryDense(weights, theta=np.zeros(out),
                             gamma_sign=np.ones(out),
                             beta_sign=np.ones(out))


def _monolithic(weights, config, fast_path, lifetime):
    return MemoryController(weights, config, fast_path=fast_path,
                            lifetime=lifetime)


def _ecc(weights, config, fast_path, lifetime):
    return EccMemoryController(weights, config, fast_path=fast_path,
                               lifetime=lifetime)


def _sharded(weights, config, fast_path, lifetime):
    return ShardedController(weights, config=config, macro=MACRO,
                             fast_path=fast_path, lifetime=lifetime)


def _rram_backend(weights, config, fast_path, lifetime):
    backend = RRAMBackend(config, fast_path=fast_path, lifetime=lifetime)
    return backend.prepare_dense(_dense(weights)).controller


def _sharded_backend(weights, config, fast_path, lifetime):
    backend = ShardedRRAMBackend(config, macro=MACRO, fast_path=fast_path,
                                 lifetime=lifetime)
    return backend.prepare_dense(_dense(weights)).controller


BUILDERS = pytest.mark.parametrize(
    "build", [_monolithic, _ecc, _sharded, _rram_backend, _sharded_backend],
    ids=["monolithic", "ecc", "sharded", "rram-backend", "sharded-backend"])


def _noisy_config() -> AcceleratorConfig:
    device = DeviceParameters(sigma_lrs0=0.0, sigma_hrs0=0.0,
                              broadening=0.0, hrs_drift=0.0,
                              device_mismatch=1.0)
    return AcceleratorConfig(device=device,
                             sense=SenseParameters(offset_sigma=0.5))


@pytest.fixture
def weights(rng):
    return rng.integers(0, 2, (12, 40)).astype(np.uint8)


@BUILDERS
def test_non_bool_value_raises(build, weights):
    for value in ("auto", "maybe", 1, None):
        with pytest.raises(ValueError, match="fast_path"):
            build(weights, AcceleratorConfig(ideal=True), value, None)


@BUILDERS
def test_true_packs_deterministic_reads_and_false_simulates(build,
                                                            weights):
    config = AcceleratorConfig(ideal=True)
    fast = build(weights, config, True, None)
    physical = build(weights, config, False, None)
    assert fast.fast_path and fast.effective_bits is not None
    assert not physical.fast_path and physical.effective_bits is None


@BUILDERS
def test_true_falls_back_on_noisy_config(build, weights):
    controller = build(weights, _noisy_config(), True, None)
    assert not controller.fast_path
    assert controller.effective_bits is None


@BUILDERS
def test_true_falls_back_when_aged(build, weights):
    controller = build(weights, AcceleratorConfig(ideal=True), True,
                       LifetimeConfig.years(5, temp_c=125.0))
    assert not controller.fast_path
    assert controller.effective_bits is None


@pytest.mark.parametrize("build", [_monolithic, _ecc, _sharded],
                         ids=["monolithic", "ecc", "sharded"])
def test_deterministic_controller_refuses_reads_before_metering(build,
                                                                weights):
    controller = build(weights, AcceleratorConfig(ideal=True), True, None)
    x = np.ones((3, weights.shape[1]), dtype=np.uint8)
    before = (controller.sense_ops, controller.popcount_bit_ops)
    for read in (
            lambda: controller.popcounts(
                x, sense=SenseParameters(offset_sigma=0.5)),
            lambda: controller.popcounts(x),
            lambda: controller.popcounts_trials(x, [controller.rng] * 2)):
        with pytest.raises(ValueError, match="fast_path=False"):
            read()
        assert (controller.sense_ops,
                controller.popcount_bit_ops) == before


def test_sharded_effective_bits_are_stitched_from_its_chips(rng):
    weights = rng.integers(0, 2, (37, 131)).astype(np.uint8)
    fault_map = FaultMap(stuck_lrs=0.05, stuck_hrs=0.05, dead_macros=(3,),
                         seed=11)
    controller = ShardedController(weights,
                                   config=AcceleratorConfig(ideal=True),
                                   macro=MacroGeometry(8, 24),
                                   fault_map=fault_map)
    assert controller.fast_path and controller.remapped_shards == [3]
    effective = controller.effective_bits
    expected = weights.copy()
    for s in controller.shard_map:
        block = (slice(s.row_start, s.row_stop),
                 slice(s.col_start, s.col_stop))
        if s.index == 3:
            # The spare chip holds the stored slice, fault-free.
            assert np.array_equal(effective[block], weights[block])
        else:
            expected[block] = fault_map.apply_bits(
                weights[block], controller.fault_key + (s.index,))
    assert np.array_equal(effective, expected)
    assert not np.array_equal(effective, weights)
