"""Tests for the deployment-lifetime composition (repro.analysis.lifetime)."""

import numpy as np
import pytest

from repro.analysis import (accuracy_vs_cycles, interpolate_accuracy,
                            usable_cycles)
from repro.rram import DeviceParameters, analytic_ber_1t1r, analytic_ber_2t2r

# A representative fault-injection measurement (XTRA2 shape): flat through
# the 2T2R regime, collapsing at high BER.
BER_GRID = np.array([0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5])
ACC_GRID = np.array([0.85, 0.85, 0.85, 0.85, 0.84, 0.78, 0.65, 0.52])


class TestInterpolateAccuracy:
    def test_hits_measured_points(self):
        fn = interpolate_accuracy(BER_GRID, ACC_GRID)
        assert fn(np.array([1e-4])).item() == pytest.approx(0.85)
        assert fn(np.array([0.1])).item() == pytest.approx(0.65)

    def test_log_interpolation_between_points(self):
        fn = interpolate_accuracy(BER_GRID, ACC_GRID)
        # Geometric midpoint of 1e-2 and 1e-1 -> arithmetic midpoint of
        # the accuracies under log-linear interpolation.
        mid = fn(np.array([np.sqrt(1e-2 * 0.1)])).item()
        assert mid == pytest.approx((0.78 + 0.65) / 2, abs=1e-6)

    def test_below_smallest_ber_uses_clean_accuracy(self):
        fn = interpolate_accuracy(BER_GRID, ACC_GRID)
        assert fn(np.array([1e-9])).item() == pytest.approx(0.85)
        assert fn(np.array([0.0])).item() == pytest.approx(0.85)

    def test_above_largest_ber_clamps(self):
        fn = interpolate_accuracy(BER_GRID, ACC_GRID)
        assert fn(np.array([0.9])).item() == pytest.approx(0.52)

    def test_unsorted_input_accepted(self):
        perm = np.random.default_rng(0).permutation(len(BER_GRID))
        fn = interpolate_accuracy(BER_GRID[perm], ACC_GRID[perm])
        assert fn(np.array([1e-5])).item() == pytest.approx(0.85)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            interpolate_accuracy(BER_GRID, ACC_GRID[:-1])
        with pytest.raises(ValueError, match="two"):
            interpolate_accuracy([1e-3], [0.8])
        with pytest.raises(ValueError, match="negative"):
            interpolate_accuracy([-1e-3, 1e-2], [0.8, 0.7])
        with pytest.raises(ValueError, match="duplicate"):
            interpolate_accuracy([1e-3, 1e-3], [0.8, 0.7])


class TestComposition:
    def setup_method(self):
        self.params = DeviceParameters()
        self.acc_of_ber = interpolate_accuracy(BER_GRID, ACC_GRID)

    def test_accuracy_declines_with_wear(self):
        cycles = np.geomspace(1e8, 1e11, 30)
        acc_1t1r = accuracy_vs_cycles(
            cycles, lambda c: analytic_ber_1t1r(self.params, c),
            self.acc_of_ber)
        assert np.all(np.diff(acc_1t1r) <= 1e-12)

    def test_2t2r_outlives_1t1r(self):
        """The paper's differential read buys deployment lifetime."""
        budget = 0.84
        life_1t1r = usable_cycles(
            budget, lambda c: analytic_ber_1t1r(self.params, c),
            self.acc_of_ber)
        life_2t2r = usable_cycles(
            budget, lambda c: analytic_ber_2t2r(self.params, c),
            self.acc_of_ber)
        assert life_2t2r > 5 * life_1t1r

    def test_impossible_budget_gives_zero(self):
        life = usable_cycles(
            0.99, lambda c: analytic_ber_1t1r(self.params, c),
            self.acc_of_ber)
        assert life == 0.0

    def test_trivial_budget_gives_inf(self):
        life = usable_cycles(
            0.01, lambda c: analytic_ber_2t2r(self.params, c),
            self.acc_of_ber)
        assert life == float("inf")

    def test_budget_monotone_in_lifetime(self):
        lifetimes = [usable_cycles(
            b, lambda c: analytic_ber_1t1r(self.params, c),
            self.acc_of_ber) for b in (0.60, 0.80, 0.845)]
        assert lifetimes == sorted(lifetimes, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError, match="budget"):
            usable_cycles(1.5, lambda c: c, self.acc_of_ber)
        with pytest.raises(ValueError, match="cycle range"):
            usable_cycles(0.8, lambda c: c, self.acc_of_ber,
                          cycle_range=(10, 1))
        with pytest.raises(ValueError, match="positive"):
            accuracy_vs_cycles(np.array([0.0]), lambda c: c,
                               self.acc_of_ber)

    def test_composes_with_retention_time(self):
        """Same machinery answers 'how long can the chip store weights'."""
        from repro.rram import RetentionModel, analytic_ber_2t2r

        retention = RetentionModel()
        hours = usable_cycles(
            0.84,
            lambda h: analytic_ber_2t2r(self.params, 1e8,
                                        retention=retention, hours=h),
            self.acc_of_ber, cycle_range=(1.0, 1e7))
        assert hours > 1.0  # survives more than an hour of storage
