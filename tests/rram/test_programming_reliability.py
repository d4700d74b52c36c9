"""Program-and-verify, retention drift, and yield analysis."""

import numpy as np
import pytest

from repro.rram import (DeviceParameters, ProgramVerifyConfig, RRAMArray,
                        RetentionModel, SenseParameters, YieldAnalysis,
                        analytic_ber_1t1r, analytic_ber_2t2r,
                        program_array_verified, program_row_verified)


def _noisy_array(rng, rows=16, cols=16):
    """An array with enough device spread that verification matters."""
    params = DeviceParameters(sigma_lrs0=0.8, sigma_hrs0=0.8)
    return RRAMArray(rows, cols, params=params,
                     sense=SenseParameters(offset_sigma=0.0), rng=rng)


class TestProgramVerify:
    def test_verified_rows_read_back_better(self, rng):
        bits = rng.integers(0, 2, (16, 16)).astype(np.uint8)

        plain = _noisy_array(np.random.default_rng(1))
        plain.program(bits)
        plain_errors = (plain.read_all() != bits).mean()

        verified = _noisy_array(np.random.default_rng(1))
        program_array_verified(verified, bits,
                               ProgramVerifyConfig(max_attempts=8))
        verified_errors = (verified.read_all() != bits).mean()
        assert verified_errors <= plain_errors

    def test_pulse_accounting(self, rng):
        array = _noisy_array(rng)
        bits = rng.integers(0, 2, 16).astype(np.uint8)
        stats = program_row_verified(array, 0, bits)
        # 2T2R: 32 devices on the row, at least one pulse each.
        assert stats.total_devices == 32
        assert stats.total_pulses >= 32
        assert stats.mean_pulses >= 1.0
        assert array.program_ops == stats.total_pulses

    def test_verification_wears_devices(self, rng):
        array = _noisy_array(rng)
        bits = np.ones(16, dtype=np.uint8)
        program_row_verified(array, 0, bits,
                             ProgramVerifyConfig(lrs_max_factor=1.05,
                                                 hrs_min_factor=0.95,
                                                 max_attempts=6))
        # Tight windows force retries; cycle counters must exceed 1.
        assert array.cycles[0].max() > 1

    def test_single_attempt_equals_plain_distribution(self, rng):
        # With max_attempts=1 no retry happens; failure count is reported.
        array = _noisy_array(rng)
        bits = rng.integers(0, 2, 16).astype(np.uint8)
        stats = program_row_verified(array, 0, bits,
                                     ProgramVerifyConfig(max_attempts=1))
        assert stats.total_pulses == stats.total_devices

    def test_shape_validation(self, rng):
        array = _noisy_array(rng)
        with pytest.raises(ValueError):
            program_array_verified(array, np.zeros((4, 4), np.uint8))
        with pytest.raises(ValueError):
            program_row_verified(array, 0, np.zeros(5, np.uint8))


class TestRetention:
    def test_hrs_drifts_down_lrs_up(self, rng):
        model = RetentionModel()
        hrs = np.full(20000, 1e5)
        lrs = np.full(20000, 5e3)
        hrs_aged = model.apply(hrs, np.zeros(20000, bool), 1000.0, rng)
        lrs_aged = model.apply(lrs, np.ones(20000, bool), 1000.0, rng)
        assert np.median(hrs_aged) < 1e5
        assert np.median(lrs_aged) > 5e3

    def test_no_drift_at_reference_time(self, rng):
        model = RetentionModel()
        assert model.hrs_shift(model.reference_hours) == 0.0
        assert model.extra_sigma(0.5) == 0.0   # clamped below reference

    def test_ber_grows_with_storage_time(self):
        params = DeviceParameters()
        model = RetentionModel()
        hours = np.array([1.0, 100.0, 1e4, 1e6])
        curve_1t = analytic_ber_1t1r(params, 1e8, retention=model,
                                     hours=hours)
        curve_2t = analytic_ber_2t2r(params, 1e8, retention=model,
                                     hours=hours)
        assert np.all(np.diff(curve_1t) > 0)
        assert np.all(np.diff(curve_2t) > 0)

    def test_differential_stays_below_single_ended(self):
        """Drift closes both read margins, but the 2T2R absolute error rate
        must stay below 1T1R at every storage time."""
        params = DeviceParameters()
        model = RetentionModel()
        hours = np.array([1.0, 1e2, 1e4, 1e5])
        curve_1t = analytic_ber_1t1r(params, 1e8, retention=model,
                                     hours=hours)
        curve_2t = analytic_ber_2t2r(params, 1e8, retention=model,
                                     hours=hours)
        assert np.all(curve_2t < curve_1t)

    @pytest.mark.parametrize("cycles", [1e6, 1e8, 3e8, 7e8])
    def test_matches_base_model_at_time_zero(self, cycles):
        """No drift at the reference time: the retention terms add exact
        zeros, so the BER equals the endurance-only BER bit for bit."""
        params = DeviceParameters()
        model = RetentionModel()
        for ber in (analytic_ber_1t1r, analytic_ber_2t2r):
            aged = ber(params, cycles, retention=model,
                       hours=model.reference_hours)
            assert float(aged) == float(ber(params, cycles))

    def test_storage_hours_need_a_retention_model(self):
        with pytest.raises(ValueError, match="retention model"):
            analytic_ber_2t2r(DeviceParameters(), 1e8, hours=10.0)


class TestYield:
    def test_2t2r_yield_beats_1t1r(self):
        analysis = YieldAnalysis(DeviceParameters(), die_sigma=0.15,
                                 n_chips=300, ber_limit=1e-3, seed=3)
        y_2t2r = analysis.run(cycles=3e8, mode="2T2R")
        y_1t1r = analysis.run(cycles=3e8, mode="1T1R")
        assert y_2t2r.yield_fraction >= y_1t1r.yield_fraction

    def test_yield_fraction_bounds(self):
        result = YieldAnalysis(DeviceParameters(), n_chips=50,
                               seed=1).run()
        assert 0.0 <= result.yield_fraction <= 1.0
        assert result.worst_chip_ber >= result.ber_per_chip.min()

    def test_die_spread_hurts_yield(self):
        # The limit sits above the nominal BER (6e-4 at 1e8 cycles for
        # 1T1R), so a tight process passes everywhere and spread only
        # creates failing corners.
        tight = YieldAnalysis(DeviceParameters(), die_sigma=0.01,
                              n_chips=200, ber_limit=2e-3, seed=2)
        loose = YieldAnalysis(DeviceParameters(), die_sigma=0.4,
                              n_chips=200, ber_limit=2e-3, seed=2)
        assert tight.run(mode="1T1R").yield_fraction > \
            loose.run(mode="1T1R").yield_fraction

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            YieldAnalysis(DeviceParameters(), n_chips=10).run(mode="3T3R")
