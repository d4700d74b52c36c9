"""Stochastic input binarization (paper ref. [14])."""

import numpy as np
import pytest

from repro.nn import stochastic_bits


def _decode(planes):
    """Analog estimate from bit planes: the mean of the ±1 samples."""
    return (2.0 * np.asarray(planes, dtype=float) - 1.0).mean(axis=0)


class TestStochasticBits:
    def test_mean_converges_to_value(self, rng):
        values = np.array([-0.8, -0.3, 0.0, 0.4, 0.9])
        planes = stochastic_bits(values, 20_000, rng)
        decoded = _decode(planes)
        assert np.allclose(decoded, values, atol=0.02)

    def test_extremes_are_deterministic(self, rng):
        planes = stochastic_bits(np.array([-1.0, 1.0]), 100, rng)
        assert np.all(planes[:, 0] == 0)
        assert np.all(planes[:, 1] == 1)

    def test_out_of_range_values_clip(self, rng):
        planes = stochastic_bits(np.array([-5.0, 5.0]), 50, rng)
        assert np.all(planes[:, 0] == 0)
        assert np.all(planes[:, 1] == 1)

    def test_shape(self, rng):
        planes = stochastic_bits(np.zeros((3, 4)), 7, rng)
        assert planes.shape == (7, 3, 4)

    def test_requires_positive_samples(self, rng):
        with pytest.raises(ValueError):
            stochastic_bits(np.zeros(3), 0, rng)

    def test_precision_improves_with_samples(self, rng):
        value = np.full(2000, 0.3)
        err_few = np.abs(_decode(
            stochastic_bits(value, 8, rng)) - 0.3).mean()
        err_many = np.abs(_decode(
            stochastic_bits(value, 512, rng)) - 0.3).mean()
        assert err_many < err_few


    @pytest.mark.parametrize("n_samples", (1, 7, 64))
    def test_planes_are_binary_uint8(self, rng, n_samples):
        planes = stochastic_bits(rng.uniform(-1, 1, 50), n_samples, rng)
        assert planes.dtype == np.uint8
        assert set(np.unique(planes)) <= {0, 1}

    def test_deterministic_per_seed(self):
        values = np.linspace(-1, 1, 9)
        a = stochastic_bits(values, 16, np.random.default_rng(5))
        b = stochastic_bits(values, 16, np.random.default_rng(5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("value", (-0.75, -0.25, 0.0, 0.5, 0.9))
    def test_one_probability_is_half_of_one_plus_value(self, value):
        planes = stochastic_bits(np.full(4000, value), 8,
                                 np.random.default_rng(6))
        # 32,000 draws: the standard error is below 0.003.
        assert planes.mean() == pytest.approx((1 + value) / 2, abs=0.012)

    def test_xnor_popcount_recovers_dot_product(self):
        """Bitwise products of independent streams decode to the analog
        dot product: the first layer can run on the binary fabric."""
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, 16)
        w = rng.uniform(-1, 1, 16)
        x_bits = stochastic_bits(x, 20_000, rng)
        w_bits = stochastic_bits(w, 20_000, rng)
        xnor = (x_bits == w_bits).astype(np.uint8)
        assert _decode(xnor).sum() == pytest.approx(x @ w, abs=0.15)
