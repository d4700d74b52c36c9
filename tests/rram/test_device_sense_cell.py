"""Device statistics and sense amplifiers."""

import numpy as np
import pytest

from repro.rram import (DeviceParameters, RRAMArray, SenseParameters,
                        analytic_ber_1t1r, analytic_ber_2t2r)


class TestDeviceParameters:
    def test_sigma_grows_with_cycling(self):
        p = DeviceParameters()
        assert p.sigma_hrs(7e8) > p.sigma_hrs(1e8)
        assert np.isclose(p.sigma_hrs(1e8), p.sigma_hrs0)

    def test_sigma_flat_below_reference_cycles(self):
        p = DeviceParameters()
        assert np.isclose(p.sigma_hrs(1), p.sigma_hrs0)

    def test_reference_resistance_is_geometric_mean(self):
        p = DeviceParameters(median_lrs=1e3, median_hrs=1e5)
        assert np.isclose(p.reference_resistance, 1e4)

    def test_sample_respects_state_medians(self, rng):
        p = DeviceParameters()
        lrs = p.sample_resistance(np.ones(20000, dtype=bool), 1e8, rng)
        hrs = p.sample_resistance(np.zeros(20000, dtype=bool), 1e8, rng)
        assert abs(np.median(lrs) - p.median_lrs) / p.median_lrs < 0.05
        assert abs(np.median(hrs) - p.median_hrs) / p.median_hrs < 0.05

    def test_hrs_drift_lowers_median(self, rng):
        p = DeviceParameters(hrs_drift=0.5)
        fresh = p.mu_hrs(1e8)
        worn = p.mu_hrs(1e9)
        assert worn < fresh


class TestSampleResistance:
    """The vectorized device draw the arrays program through."""

    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 4, 6)])
    def test_shape_follows_state(self, rng, shape):
        state = rng.random(shape) < 0.5
        assert DeviceParameters().sample_resistance(
            state, 1e8, rng).shape == shape

    def test_deterministic_per_seed(self):
        p = DeviceParameters()
        state = np.arange(32) % 2 == 0
        a = p.sample_resistance(state, 3e8, np.random.default_rng(4))
        b = p.sample_resistance(state, 3e8, np.random.default_rng(4))
        assert np.array_equal(a, b)

    def test_states_sit_either_side_of_reference(self, rng):
        p = DeviceParameters()
        state = np.arange(20000) % 2 == 0
        r = p.sample_resistance(state, 1e8, rng)
        # Fresh devices: the 0.4 ln-unit spread leaves the tails past the
        # 1.5 ln-unit half-window well under one percent.
        assert np.mean(r[state] < p.reference_resistance) > 0.99
        assert np.mean(r[~state] > p.reference_resistance) > 0.99

    def test_mismatch_scales_log_spread(self, rng):
        p = DeviceParameters()
        state = np.zeros(40000, dtype=bool)
        plain = np.log(p.sample_resistance(state, 1e8, rng)).std()
        skewed = np.log(p.sample_resistance(state, 1e8, rng,
                                            mismatch=1.5)).std()
        assert skewed / plain == pytest.approx(1.5, rel=0.03)

    def test_wear_widens_spread_not_median(self, rng):
        p = DeviceParameters()
        state = np.ones(40000, dtype=bool)
        fresh = np.log(p.sample_resistance(state, 1e8, rng))
        worn = np.log(p.sample_resistance(state, 1e9, rng))
        assert worn.std() / fresh.std() == pytest.approx(
            p.sigma_lrs(1e9) / p.sigma_lrs0, rel=0.03)
        assert np.median(worn) == pytest.approx(np.median(fresh), abs=0.02)

    def test_per_device_cycle_counts_broadcast(self, rng):
        p = DeviceParameters()
        cycles = np.repeat([1e8, 1e10], 20000)
        r = np.log(p.sample_resistance(np.zeros(40000, dtype=bool),
                                       cycles, rng))
        assert r[20000:].std() > 1.5 * r[:20000].std()


class TestAnalyticBER:
    def test_monotonic_in_cycles(self):
        p = DeviceParameters()
        cycles = np.linspace(1e8, 7e8, 7)
        for curve in (analytic_ber_1t1r(p, cycles),
                      analytic_ber_2t2r(p, cycles)):
            assert np.all(np.diff(curve) > 0)

    def test_2t2r_beats_1t1r_by_orders_of_magnitude(self):
        """The paper's headline claim: ~two orders of magnitude (Fig. 4)."""
        p = DeviceParameters()
        cycles = np.linspace(1e8, 7e8, 7)
        ratio = analytic_ber_1t1r(p, cycles) / analytic_ber_2t2r(p, cycles)
        assert np.all(ratio > 10)
        geo_mean = np.exp(np.mean(np.log(ratio)))
        assert geo_mean > 50   # averaged over the sweep: ~2 decades

    def test_blb_mismatch_raises_ber(self):
        p = DeviceParameters()
        bl = analytic_ber_1t1r(p, 3e8)
        blb = analytic_ber_1t1r(p, 3e8, mismatch=p.device_mismatch)
        assert blb > bl



class TestSenseOffset:
    def test_offset_flips_marginal_reads(self, rng):
        """A read decides ``margin + offset > 0``: a margin inside the
        offset spread reads noisily."""
        arr = RRAMArray(1, 300, sense=SenseParameters(offset_sigma=0.5),
                        rng=rng)
        arr.program(np.ones((1, 300), dtype=np.uint8))
        arr.r_bl[:] = 1e4          # ln-margin ~0.1
        arr.r_blb[:] = 1.1e4
        arr._margin_cache = None
        assert 0 < arr.read_all().mean() < 1
