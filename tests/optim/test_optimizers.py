"""SGD and Adam."""

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Parameter
from repro.optim import SGD, Adam
from repro.tensor import Tensor


def quadratic_loss(param):
    """f(w) = sum((w - 3)^2), minimized at w = 3."""
    return ((param - Tensor(np.full_like(param.data, 3.0))) ** 2).sum()


class TestSGD:
    def test_single_step_matches_formula(self):
        p = Parameter(np.array([1.0, 2.0]))
        opt = SGD([p], lr=0.1)
        p.grad = np.array([1.0, -2.0])
        opt.step()
        assert np.allclose(p.data, [0.9, 2.2])

    def test_momentum_accumulates(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad = np.array([1.0])
        opt.step()            # v = 1, p = -1
        p.grad = np.array([1.0])
        opt.step()            # v = 1.5, p = -2.5
        assert np.allclose(p.data, [-2.5])

    def test_weight_decay(self):
        p = Parameter(np.array([10.0]))
        opt = SGD([p], lr=0.1, weight_decay=0.1)
        p.grad = np.array([0.0])
        opt.step()
        assert np.allclose(p.data, [10.0 - 0.1 * 1.0])

    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(3))
        opt = SGD([p], lr=0.05, momentum=0.5)
        for _ in range(200):
            loss = quadratic_loss(p)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert np.allclose(p.data, 3.0, atol=1e-3)

    def test_skips_none_grads(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        opt.step()   # no grad -> no change, no crash
        assert p.data[0] == 1.0

    def test_validation(self):
        p = Parameter(np.array([1.0]))
        with pytest.raises(ValueError):
            SGD([p], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_first_step_size_is_lr(self):
        # With bias correction, the first Adam step is ~lr * sign(grad).
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.01)
        p.grad = np.array([123.0])
        opt.step()
        assert np.isclose(p.data[0], -0.01, rtol=1e-4)

    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(4))
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            loss = quadratic_loss(p)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert np.allclose(p.data, 3.0, atol=1e-2)

    def test_trains_small_network(self, rng):
        model = nn.Sequential(nn.Linear(5, 16, rng=rng), nn.Tanh(),
                              nn.Linear(16, 2, rng=rng))
        X = rng.standard_normal((64, 5))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        opt = Adam(model.parameters(), lr=0.02)
        loss_fn = nn.CrossEntropyLoss()
        first = None
        for _ in range(80):
            loss = loss_fn(model(Tensor(X)), y)
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.5 * first

    def test_beta_validation(self):
        p = Parameter(np.array([1.0]))
        with pytest.raises(ValueError):
            Adam([p], betas=(1.0, 0.9))

