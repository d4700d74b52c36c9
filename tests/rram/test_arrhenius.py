"""Tests for Arrhenius temperature acceleration of retention."""

import numpy as np
import pytest

from repro.rram import (DeviceParameters, RetentionModel,
                        analytic_ber_2t2r, arrhenius_acceleration,
                        equivalent_hours)


class TestArrheniusAcceleration:
    def test_unity_at_reference(self):
        assert arrhenius_acceleration(125.0) == pytest.approx(1.0)

    def test_slower_below_reference(self):
        assert arrhenius_acceleration(25.0) > 1.0
        assert arrhenius_acceleration(85.0) > 1.0

    def test_faster_above_reference(self):
        assert arrhenius_acceleration(150.0) < 1.0

    def test_monotone_in_temperature(self):
        factors = [arrhenius_acceleration(t) for t in (0, 25, 37, 85, 125)]
        assert factors == sorted(factors, reverse=True)

    def test_higher_activation_energy_steeper(self):
        mild = arrhenius_acceleration(25.0, activation_energy_ev=0.6)
        steep = arrhenius_acceleration(25.0, activation_energy_ev=1.5)
        assert steep > mild

    def test_known_order_of_magnitude(self):
        """125 C bake vs 37 C body temperature, Ea=1.1 eV: the standard
        JEDEC math gives a factor in the thousands."""
        factor = arrhenius_acceleration(37.0)
        assert 1e3 < factor < 1e5

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError, match="absolute zero"):
            arrhenius_acceleration(-300.0)
        with pytest.raises(ValueError, match="activation"):
            arrhenius_acceleration(25.0, activation_energy_ev=0.0)


class TestEquivalentHours:
    def test_identity_at_reference(self):
        assert equivalent_hours(100.0, 125.0) == pytest.approx(100.0)

    def test_ten_field_years_is_a_short_bake(self):
        hours = equivalent_hours(10 * 365.25 * 24, 37.0)
        assert hours < 100.0  # a wearable's decade is a brief oven test

    def test_array_input(self):
        out = equivalent_hours(np.array([1.0, 10.0, 100.0]), 85.0)
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)

    def test_composes_with_retention_ber(self):
        """Field-temperature BER must be far below bake-temperature BER
        for the same wall-clock storage time."""
        params = DeviceParameters()
        model = RetentionModel()
        wall_clock_hours = 10 * 365.25 * 24
        ber_bake = analytic_ber_2t2r(params, 1e8, retention=model,
                                     hours=wall_clock_hours)
        ber_field = analytic_ber_2t2r(
            params, 1e8, retention=model,
            hours=equivalent_hours(wall_clock_hours, 37.0))
        assert ber_field < ber_bake
