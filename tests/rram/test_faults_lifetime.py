"""Lifetime fault injection (repro.rram.faults + reliability.LifetimeConfig
wired through the MC engine).

The contracts under test:

* an *empty* FaultMap and an *inactive* LifetimeConfig are byte-identical
  to never passing them — the reliability layer costs nothing when off;
* stuck-at masks are split-stable: drawn from the map's own keyed site
  stream, identical for any call order, chunking or worker layout, and
  fully decoupled from the controller's program/read streams;
* retention aging is a program-time transform — trial-batched noisy
  reads of an aged store stay bit-identical to the serial per-trial loop;
* stuck semantics are physical: stuck-LRS senses 1, stuck-HRS / dead
  rows sense 0, on both the fast (effective-bits) and physical paths.
"""

import numpy as np
import pytest

from repro.nn.binary import xnor_popcount
from repro.rram import (AcceleratorConfig, FaultMap, LifetimeConfig,
                        MemoryController, RRAMArray, RetentionModel,
                        site_stream, trial_streams)


@pytest.fixture
def weights(rng):
    return rng.integers(0, 2, (23, 97)).astype(np.uint8)


@pytest.fixture
def x_bits(rng):
    return rng.integers(0, 2, (7, 97)).astype(np.uint8)


class TestSiteStream:
    def test_matches_ith_spawn_child(self):
        """site_stream(seed, i) is exactly the i-th spawn child of the
        root SeedSequence — keyed access into the same tree the batched
        engine walks."""
        root = np.random.SeedSequence(42)
        children = root.spawn(5)
        for i in range(5):
            keyed = site_stream(42, i)
            spawned = np.random.default_rng(children[i])
            assert np.array_equal(keyed.random(8), spawned.random(8))

    def test_call_order_invariant(self):
        a = site_stream(7, 1, 2).random(16)
        _ = site_stream(7, 9).random(100)   # unrelated draw in between
        b = site_stream(7, 1, 2).random(16)
        assert np.array_equal(a, b)

    def test_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            site_stream(0, -1)


class TestFaultMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultMap(stuck_lrs=-0.1)
        with pytest.raises(ValueError):
            FaultMap(stuck_lrs=0.7, stuck_hrs=0.5)
        with pytest.raises(ValueError):
            FaultMap(dead_rows=1.5)

    def test_empty_and_cell_fault_flags(self):
        assert FaultMap().empty
        assert not FaultMap(dead_macros=(1,)).empty
        assert not FaultMap(dead_macros=(1,)).has_cell_faults
        assert FaultMap(stuck_lrs=0.01).has_cell_faults

    def test_dead_macros_deduped_sorted(self):
        assert FaultMap(dead_macros=(5, 1, 5)).dead_macros == (1, 5)

    def test_cell_masks_split_stable(self):
        fm = FaultMap(stuck_lrs=0.05, stuck_hrs=0.05, dead_rows=0.1,
                      seed=3)
        one_a, zero_a = fm.cell_masks((40, 60), key=(2,))
        one_b, zero_b = fm.cell_masks((40, 60), key=(2,))
        assert np.array_equal(one_a, one_b)
        assert np.array_equal(zero_a, zero_b)
        one_c, _ = fm.cell_masks((40, 60), key=(3,))
        assert not np.array_equal(one_a, one_c)
        assert not (one_a & zero_a).any()

    def test_dead_rows_stick_whole_row_to_zero(self):
        fm = FaultMap(dead_rows=0.5, seed=1)
        _, zero = fm.cell_masks((64, 16))
        dead = zero.all(axis=1)
        assert dead.any()
        # non-dead rows carry no zero-stuck cells (no other fault modes)
        assert not zero[~dead].any()

    def test_rebased_views(self):
        fm = FaultMap(dead_macros=(3, 7, 12))
        assert fm.dead_local(4, base=4) == (3,)           # global 7
        assert fm.rebased(6, base=6).dead_macros == (1,)  # global 7
        assert fm.rebased(4, base=0).dead_macros == (3,)


class TestArrayFaultsAndAging:
    def test_stuck_semantics_physical(self, rng):
        array = RRAMArray(8, 8, rng=rng)
        array.program(np.zeros((8, 8), dtype=np.uint8))
        stuck_one = np.zeros((8, 8), dtype=bool)
        stuck_zero = np.zeros((8, 8), dtype=bool)
        stuck_one[2, 3] = True
        array.inject_stuck(stuck_one, stuck_zero)
        read = array.read_all(rng=np.random.default_rng(0))
        assert read[2, 3] == 1
        array.program(np.ones((8, 8), dtype=np.uint8))
        stuck_zero[5, 5] = True
        array.inject_stuck(stuck_one, stuck_zero)
        read = array.read_all(rng=np.random.default_rng(0))
        assert read[5, 5] == 0
        assert read[2, 3] == 1
        assert array.n_stuck_cells == 2

    def test_stuck_survives_reprogramming(self, rng):
        array = RRAMArray(4, 4, rng=rng)
        stuck_one = np.zeros((4, 4), dtype=bool)
        stuck_one[0, 0] = True
        array.program(np.zeros((4, 4), dtype=np.uint8))
        array.inject_stuck(stuck_one, np.zeros((4, 4), dtype=bool))
        array.program(np.zeros((4, 4), dtype=np.uint8))
        read = array.read_all(rng=np.random.default_rng(0))
        assert read[0, 0] == 1

    def test_aging_accumulates_and_degrades_margin(self, rng):
        array = RRAMArray(16, 16, rng=rng)
        array.program(rng.integers(0, 2, (16, 16)).astype(np.uint8))
        margin_fresh = np.abs(array._sense_margin()).mean()
        retention = RetentionModel()
        array.age(1000.0, retention, np.random.default_rng(1))
        array.age(500.0, retention, np.random.default_rng(2))
        assert array.aged_hours == pytest.approx(1500.0)
        # HRS drifts toward LRS, closing the average sense window.
        assert np.abs(array._sense_margin()).mean() < margin_fresh


class TestLifetimeConfig:
    def test_years_constructor_and_bake(self):
        lt = LifetimeConfig.years(10, temp_c=125.0)
        assert lt.hours == pytest.approx(10 * 8760.0)
        assert lt.active
        # At the reference temperature the bake time is the wall time.
        assert lt.bake_hours() == pytest.approx(lt.hours)

    def test_arrhenius_acceleration_below_reference(self):
        cool = LifetimeConfig.years(10, temp_c=37.0)
        # 10 years at 37C stresses the devices far less than 10 years at
        # the 125C reference bake.
        assert cool.bake_hours() < 0.01 * cool.hours

    def test_inactive(self):
        assert not LifetimeConfig().active
        assert not LifetimeConfig.years(0).active


class TestControllerReliabilityLayer:
    def test_empty_map_inactive_lifetime_identity_fast(self, weights,
                                                       x_bits):
        config = AcceleratorConfig(ideal=True)
        plain = MemoryController(weights, config)
        wired = MemoryController(weights, config, fault_map=FaultMap(),
                                 lifetime=LifetimeConfig())
        assert wired.fast_path
        assert np.array_equal(plain.effective_bits, wired.effective_bits)

    def test_empty_map_inactive_lifetime_identity_noisy(self, weights,
                                                        x_bits):
        config = AcceleratorConfig()   # realistic, noisy
        plain = MemoryController(weights, config,
                                 np.random.default_rng(0))
        wired = MemoryController(weights, config,
                                 np.random.default_rng(0),
                                 fault_map=FaultMap(),
                                 lifetime=LifetimeConfig())
        a = plain.popcounts_trials(x_bits, trial_streams(5, 3))
        b = wired.popcounts_trials(x_bits, trial_streams(5, 3))
        assert np.array_equal(a, b)

    def test_stuck_faults_perturb_and_are_key_stable(self, weights,
                                                     x_bits):
        config = AcceleratorConfig(ideal=True)
        fm = FaultMap(stuck_lrs=0.02, stuck_hrs=0.02, seed=9)
        plain = MemoryController(weights, config)
        faulty1 = MemoryController(weights, config, fault_map=fm,
                                   fault_key=(0,))
        faulty2 = MemoryController(weights, config, fault_map=fm,
                                   fault_key=(0,))
        other = MemoryController(weights, config, fault_map=fm,
                                 fault_key=(1,))
        counts = lambda c: xnor_popcount(x_bits, c.effective_bits)
        assert not np.array_equal(counts(plain), counts(faulty1))
        assert np.array_equal(counts(faulty1), counts(faulty2))
        assert not np.array_equal(counts(faulty1), counts(other))

    def test_fast_and_physical_paths_agree_on_faults(self, weights,
                                                     x_bits):
        """The fast path folds stuck overrides into effective bits; the
        physical path pins resistances. Noise-free they must agree."""
        config = AcceleratorConfig(ideal=True)
        fm = FaultMap(stuck_lrs=0.03, stuck_hrs=0.03, dead_rows=0.05,
                      seed=4)
        fast = MemoryController(weights, config, fault_map=fm,
                                fault_key=(0,))
        phys = MemoryController(weights, config, fault_map=fm,
                                fault_key=(0,), fast_path=False)
        assert fast.fast_path and not phys.fast_path
        assert np.array_equal(
            xnor_popcount(x_bits, fast.effective_bits),
            phys.popcounts(x_bits, rng=np.random.default_rng(0)))

    def test_lifetime_disables_fast_path(self, weights):
        config = AcceleratorConfig(ideal=True)
        lt = LifetimeConfig.years(5, temp_c=125.0)
        mc = MemoryController(weights, config, lifetime=lt)
        assert not mc.fast_path

    def test_aged_trials_batched_equals_serial(self, weights, x_bits):
        """Aging happens at program time from the root stream, so the
        per-trial read contract survives: batched == serial loop."""
        config = AcceleratorConfig()
        lt = LifetimeConfig.years(3, temp_c=125.0)
        fm = FaultMap(stuck_lrs=0.01, seed=2)
        make = lambda: MemoryController(
            weights, config, np.random.default_rng(11), lifetime=lt,
            fault_map=fm, fault_key=(0,))
        batched = make().popcounts_trials(x_bits, trial_streams(3, 4))
        serial = np.stack([make().popcounts(x_bits, rng=r)
                           for r in trial_streams(3, 4)])
        assert np.array_equal(batched, serial)

    def test_aging_degrades_agreement(self, weights, x_bits):
        config = AcceleratorConfig()
        fresh = MemoryController(weights, config,
                                 np.random.default_rng(0))
        aged = MemoryController(weights, config, np.random.default_rng(0),
                                lifetime=LifetimeConfig.years(
                                    30, temp_c=125.0))
        truth = xnor_popcount(x_bits, weights)
        err_fresh = int((fresh.popcounts(
            x_bits, rng=np.random.default_rng(1)) != truth).sum())
        err_aged = int((aged.popcounts(
            x_bits, rng=np.random.default_rng(1)) != truth).sum())
        assert err_aged > err_fresh
