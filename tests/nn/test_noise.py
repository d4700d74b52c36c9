"""RRAM read-noise surrogate: flip model, STE backward, layer arming."""

import math

import numpy as np
import pytest

from repro import nn
from repro.nn import (DEFAULT_LN_MARGIN, flip_probability, rram_read_noise,
                      set_read_noise)
from repro.tensor import Tensor


class TestFlipProbability:
    def test_zero_sigma_reads_perfectly(self):
        assert flip_probability(0.0) == 0.0
        assert flip_probability(-1.0) == 0.0

    def test_matches_gaussian_tail(self):
        # p = Phi(-margin / sigma), via the erfc identity.
        for sigma in (0.5, 1.5, 2.5):
            z = DEFAULT_LN_MARGIN / sigma
            expected = 0.5 * math.erfc(z / math.sqrt(2.0))
            assert flip_probability(sigma) == pytest.approx(expected)

    def test_monotone_in_sigma(self):
        sigmas = np.linspace(0.1, 5.0, 40)
        ps = [flip_probability(s) for s in sigmas]
        assert all(b > a for a, b in zip(ps, ps[1:]))
        assert all(0.0 < p < 0.5 for p in ps)

    def test_default_margin_matches_device_parameters(self):
        # The constant must stay in lockstep with the MC engine's cell.
        from repro.rram import DeviceParameters

        device = DeviceParameters()
        assert DEFAULT_LN_MARGIN == pytest.approx(
            math.log(device.median_hrs / device.median_lrs), abs=1e-12)


class TestRramReadNoise:
    def test_zero_sigma_is_identity(self, rng):
        x = Tensor(rng.standard_normal((4, 8)))
        assert rram_read_noise(x, 64, 0.0, rng) is x

    def test_perturbs_forward(self, rng):
        x = Tensor(rng.standard_normal((4, 8)))
        out = rram_read_noise(x, 64, 1.5, rng)
        assert out.shape == x.shape
        assert not np.allclose(out.data, x.data)

    def test_clt_statistics(self):
        # Mean shrinks by (1-2p); std is 2*sqrt(n*p*(1-p)).
        rng = np.random.default_rng(0)
        fan_in, sigma, n = 256, 2.0, 200_000
        x = Tensor(np.full((n,), 100.0))
        out = rram_read_noise(x, fan_in, sigma, rng)
        p = flip_probability(sigma)
        assert out.data.mean() == pytest.approx((1 - 2 * p) * 100.0,
                                                abs=0.05)
        assert out.data.std() == pytest.approx(
            2.0 * math.sqrt(fan_in * p * (1 - p)), rel=0.02)

    def test_backward_is_straight_through(self, rng):
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        out = rram_read_noise(x, 32, 1.5, rng)
        (out * Tensor(np.full(out.shape, 2.0))).sum().backward()
        # The noise op passes the gradient through untouched.
        assert np.array_equal(x.grad, np.full((3, 5), 2.0))

    def test_deterministic_per_seed(self):
        x = Tensor(np.ones((4, 4)))
        a = rram_read_noise(x, 16, 1.0, np.random.default_rng(7))
        b = rram_read_noise(x, 16, 1.0, np.random.default_rng(7))
        assert np.array_equal(a.data, b.data)


class TestBinaryLayerKnob:
    def test_layers_default_to_noise_free(self, rng):
        layer = nn.BinaryLinear(8, 4, rng=rng)
        assert layer.noise_sigma == 0.0

    def test_train_forward_perturbs_when_armed(self, rng):
        layer = nn.BinaryLinear(8, 4, rng=rng)
        x = Tensor(rng.standard_normal((3, 8)))
        clean = layer(x).data.copy()
        layer.noise_sigma = 1.5
        layer.noise_rng = np.random.default_rng(0)
        layer.train()
        assert not np.allclose(layer(x).data, clean)

    def test_eval_forward_stays_clean_when_armed(self, rng):
        layer = nn.BinaryLinear(8, 4, rng=rng)
        x = Tensor(rng.standard_normal((3, 8)))
        clean = layer(x).data.copy()
        layer.noise_sigma = 1.5
        layer.eval()
        assert np.array_equal(layer(x).data, clean)

    def test_armed_layer_draws_fresh_noise_each_forward(self, rng):
        layer = nn.BinaryLinear(8, 4, rng=rng)
        layer.noise_sigma = 1.5
        layer.noise_rng = np.random.default_rng(0)
        layer.train()
        x = Tensor(rng.standard_normal((3, 8)))
        assert not np.array_equal(layer(x).data, layer(x).data)

    @pytest.mark.parametrize("make,shape", [
        (lambda rng: nn.BinaryConv1d(3, 4, 5, rng=rng), (2, 3, 16)),
        (lambda rng: nn.BinaryConv2d(3, 4, (3, 3), rng=rng), (2, 3, 8, 8)),
        (lambda rng: nn.BinaryDepthwiseConv2d(3, (3, 3), rng=rng),
         (2, 3, 8, 8)),
    ])
    def test_conv_layers_carry_the_knob(self, make, shape, rng):
        layer = make(rng)
        x = Tensor(rng.standard_normal(shape))
        clean = layer(x).data.copy()
        layer.noise_sigma = 2.0
        layer.noise_rng = np.random.default_rng(1)
        layer.train()
        assert not np.allclose(layer(x).data, clean)
        layer.eval()
        assert np.array_equal(layer(x).data, clean)


class TestSetReadNoise:
    def _stack(self, rng):
        return nn.Sequential(nn.BinaryLinear(8, 8, rng=rng),
                             nn.Linear(8, 8, rng=rng),
                             nn.BinaryLinear(8, 2, rng=rng))

    def test_arms_every_binary_layer(self, rng):
        model = self._stack(rng)
        assert set_read_noise(model, 1.5) == 2
        fc0, mid, fc2 = model._layers
        assert fc0.noise_sigma == 1.5
        assert fc2.noise_sigma == 1.5
        assert not hasattr(mid, "noise_sigma")

    def test_shared_rng_across_layers(self, rng):
        model = self._stack(rng)
        stream = np.random.default_rng(3)
        set_read_noise(model, 1.0, rng=stream)
        assert model._layers[0].noise_rng is stream
        assert model._layers[2].noise_rng is stream

    def test_layer_names_filter(self, rng):
        model = self._stack(rng)
        assert set_read_noise(model, 2.0, layer_names=("2",)) == 1
        assert model._layers[0].noise_sigma == 0.0
        assert model._layers[2].noise_sigma == 2.0

    def test_unknown_layer_name_raises(self, rng):
        with pytest.raises(ValueError, match="no binary layer"):
            set_read_noise(self._stack(rng), 1.0,
                           layer_names=("1", "2"))

    def test_zero_sigma_disarms(self, rng):
        model = self._stack(rng)
        set_read_noise(model, 1.5)
        set_read_noise(model, 0.0)
        x = Tensor(rng.standard_normal((2, 8)))
        model.train()
        assert np.array_equal(model(x).data, model(x).data)

    def test_negative_sigma_rejected(self, rng):
        with pytest.raises(ValueError, match="sigma"):
            set_read_noise(self._stack(rng), -1.0)

    def test_noise_changes_training_not_gradients_shape(self, rng):
        model = self._stack(rng)
        set_read_noise(model, 1.5, rng=np.random.default_rng(2))
        model.train()
        x = Tensor(rng.standard_normal((4, 8)))
        (model(x) ** 2).sum().backward()
        w = model._layers[0].weight
        assert w.grad is not None and w.grad.shape == w.data.shape


class TestReadNoiseMargin:
    def test_wider_margin_flips_less(self):
        assert flip_probability(1.5, margin=4.0) < flip_probability(
            1.5, margin=2.0)

    def test_wider_margin_perturbs_less(self):
        x = Tensor(np.zeros(20_000))
        narrow = rram_read_noise(x, 64, 1.5, np.random.default_rng(0),
                                 margin=2.0)
        wide = rram_read_noise(x, 64, 1.5, np.random.default_rng(0),
                               margin=4.0)
        assert wide.data.std() < narrow.data.std()
