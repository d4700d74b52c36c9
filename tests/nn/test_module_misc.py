"""Module registration, serialization, containers, activations, losses."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, check_gradients


class TestModule:
    def test_parameter_discovery_is_recursive(self, rng):
        model = nn.Sequential(nn.Linear(4, 8, rng=rng), nn.ReLU(),
                              nn.Linear(8, 2, rng=rng))
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == 4
        assert any("0.weight" in n for n in names)

    def test_num_parameters(self, rng):
        layer = nn.Linear(10, 5, rng=rng)
        assert layer.num_parameters() == 10 * 5 + 5

    def test_train_eval_propagates(self, rng):
        model = nn.Sequential(nn.Dropout(0.5, rng=rng),
                              nn.Sequential(nn.Dropout(0.5, rng=rng)))
        model.eval()
        assert not model[0].training
        assert not model[1][0].training

    def test_state_dict_roundtrip(self, rng):
        a = nn.Sequential(nn.Linear(3, 4, rng=rng), nn.BatchNorm1d(4))
        a(Tensor(rng.standard_normal((16, 3))))   # move running stats
        b = nn.Sequential(nn.Linear(3, 4, rng=rng), nn.BatchNorm1d(4))
        b.load_state_dict(a.state_dict())
        assert np.array_equal(b[0].weight.data, a[0].weight.data)
        assert np.array_equal(b[1].running_mean, a[1].running_mean)
        x = Tensor(rng.standard_normal((4, 3)))
        a.eval(), b.eval()
        assert np.allclose(a(x).data, b(x).data)

    def test_load_state_dict_rejects_unknown_and_mismatched(self, rng):
        model = nn.Linear(3, 4, rng=rng)
        with pytest.raises(KeyError):
            model.load_state_dict({"bogus": np.zeros(3)})
        with pytest.raises(ValueError):
            model.load_state_dict({"weight": np.zeros((2, 2))})

    def test_zero_grad(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        (layer(Tensor(rng.standard_normal((4, 3)))) ** 2).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestContainers:
    def test_sequential_applies_in_order(self, rng):
        model = nn.Sequential(nn.Linear(2, 2, rng=rng), nn.ReLU())
        x = rng.standard_normal((3, 2))
        expected = np.maximum(
            x @ model[0].weight.data.T + model[0].bias.data, 0)
        assert np.allclose(model(Tensor(x)).data, expected)

    def test_sequential_len_iter_getitem(self, rng):
        model = nn.Sequential(nn.ReLU(), nn.Tanh())
        assert len(model) == 2
        assert isinstance(model[1], nn.Tanh)
        assert [type(m).__name__ for m in model] == ["ReLU", "Tanh"]


class TestActivations:
    def test_relu_module(self):
        assert np.allclose(nn.ReLU()(Tensor([-1.0, 2.0])).data, [0, 2])

    def test_hardtanh_module(self):
        assert np.allclose(nn.HardTanh()(Tensor([-2.0, 0.3])).data, [-1, 0.3])

    def test_sign_module_binary_output(self, rng):
        out = nn.Sign()(Tensor(rng.standard_normal(50))).data
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_identity(self, rng):
        x = rng.standard_normal(5)
        assert np.array_equal(nn.Identity()(Tensor(x)).data, x)


class TestLosses:
    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.standard_normal((6, 3))
        targets = rng.integers(0, 3, 6)
        loss = nn.CrossEntropyLoss()(Tensor(logits), targets)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1,
                                                         keepdims=True))
        manual = -log_probs[np.arange(6), targets].mean()
        assert np.isclose(loss.item(), manual)

    def test_cross_entropy_perfect_prediction_is_small(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss = nn.CrossEntropyLoss()(Tensor(logits), np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_cross_entropy_gradcheck(self, rng):
        logits = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        targets = rng.integers(0, 3, 4)
        check_gradients(lambda t: nn.CrossEntropyLoss()(t, targets),
                        [logits], rtol=1e-3)

    def test_cross_entropy_rejects_2d_targets(self, rng):
        with pytest.raises(ValueError):
            nn.CrossEntropyLoss()(Tensor(np.zeros((2, 2))), np.zeros((2, 2)))
