"""Linear, convolution, and pooling layers: shapes, values, gradients."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, check_gradients


class TestLinear:
    def test_forward_shape_and_value(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        x = rng.standard_normal((5, 4))
        out = layer(Tensor(x))
        assert out.shape == (5, 3)
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(out.data, expected)

    def test_no_bias(self, rng):
        layer = nn.Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert layer(Tensor(np.ones((2, 4)))).shape == (2, 3)

    def test_gradcheck(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        check_gradients(lambda x, w, b: (layer(x) ** 2).sum(),
                        [x, layer.weight, layer.bias])


class TestConv1d:
    def test_output_length(self, rng):
        layer = nn.Conv1d(12, 32, 13, rng=rng)
        assert layer.output_length(750) == 738

    def test_forward_shape(self, rng):
        layer = nn.Conv1d(3, 5, 4, stride=2, padding=1, rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 3, 21))))
        assert out.shape == (2, 5, layer.output_length(21))

    def test_channel_mismatch_raises(self, rng):
        layer = nn.Conv1d(3, 5, 4, rng=rng)
        with pytest.raises(ValueError):
            layer(Tensor(rng.standard_normal((2, 4, 21))))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 3)])
    def test_gradcheck(self, rng, stride, padding):
        layer = nn.Conv1d(2, 3, 4, stride=stride, padding=padding, rng=rng)
        x = Tensor(rng.standard_normal((2, 2, 11)), requires_grad=True)
        check_gradients(lambda x, w, b: (layer(x) ** 2).sum(),
                        [x, layer.weight, layer.bias], rtol=1e-3)


class TestConv2d:
    def test_forward_shape(self, rng):
        layer = nn.Conv2d(3, 8, (3, 2), stride=(2, 1), padding=(1, 0),
                          rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 3, 10, 8))))
        assert out.shape == (2, 8) + layer.output_shape(10, 8)

    def test_eeg_spatial_conv_collapses_electrodes(self, rng):
        layer = nn.Conv2d(4, 4, (1, 64), rng=rng)
        out = layer(Tensor(rng.standard_normal((1, 4, 12, 64))))
        assert out.shape == (1, 4, 12, 1)

    def test_gradcheck(self, rng):
        layer = nn.Conv2d(2, 3, (3, 3), stride=2, padding=1, rng=rng)
        x = Tensor(rng.standard_normal((2, 2, 7, 7)), requires_grad=True)
        check_gradients(lambda x, w, b: (layer(x) ** 2).sum(),
                        [x, layer.weight, layer.bias], rtol=1e-3)


class TestDepthwiseConv2d:
    def test_channels_do_not_mix(self, rng):
        layer = nn.DepthwiseConv2d(2, 3, padding=1, rng=rng)
        x = np.zeros((1, 2, 6, 6))
        x[0, 0] = rng.standard_normal((6, 6))
        layer.bias.data[:] = 0.0
        out = layer(Tensor(x))
        assert np.allclose(out.data[0, 1], 0.0)
        assert not np.allclose(out.data[0, 0], 0.0)

    def test_matches_explicit_conv2d(self, rng):
        ch = 3
        dw = nn.DepthwiseConv2d(ch, 3, stride=2, padding=1, rng=rng)
        # An equivalent grouped conv as a block-diagonal full conv.
        full = nn.Conv2d(ch, ch, 3, stride=2, padding=1, rng=rng)
        full.weight.data[:] = 0.0
        for c in range(ch):
            full.weight.data[c, c] = dw.weight.data[c]
        full.bias.data[:] = dw.bias.data
        x = Tensor(rng.standard_normal((2, ch, 8, 8)))
        assert np.allclose(dw(x).data, full(x).data)

    def test_gradcheck(self, rng):
        layer = nn.DepthwiseConv2d(2, 3, padding=1, rng=rng)
        x = Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
        check_gradients(lambda x, w, b: (layer(x) ** 2).sum(),
                        [x, layer.weight, layer.bias], rtol=1e-3)


class TestPooling1d:
    def test_maxpool_values(self):
        x = Tensor(np.array([[[1.0, 3.0, 2.0, 5.0, 4.0, 0.0]]]))
        out = nn.MaxPool1d(2)(x)
        assert np.allclose(out.data, [[[3, 5, 4]]])

    def test_avgpool_overlapping_matches_naive(self, rng):
        # The EEG model's pool: kernel 30, stride 15 (overlapping).
        x = rng.standard_normal((2, 3, 95))
        pool = nn.AvgPool1d(30, 15)
        out = pool(Tensor(x))
        l_out = pool.output_length(95)
        naive = np.stack([x[:, :, i * 15:i * 15 + 30].mean(axis=2)
                          for i in range(l_out)], axis=2)
        assert np.allclose(out.data, naive)

    def test_maxpool_gradcheck(self, rng):
        x = Tensor(rng.permutation(36).astype(float).reshape(2, 2, 9),
                   requires_grad=True)
        pool = nn.MaxPool1d(3, 2)
        check_gradients(lambda x: (pool(x) ** 2).sum(), [x])

    def test_avgpool_overlap_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 13)), requires_grad=True)
        pool = nn.AvgPool1d(4, 2)
        check_gradients(lambda x: (pool(x) ** 2).sum(), [x])


class TestPooling2d:
    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 5, 3, 4))
        out = nn.GlobalAvgPool2d()(Tensor(x))
        assert out.shape == (2, 5)
        assert np.allclose(out.data, x.mean(axis=(2, 3)))
