"""Property-based gradient checks on randomly composed op chains.

Single ops are covered exhaustively in ``tests/tensor``; training correctness
additionally depends on *compositions* — broadcasting into reductions into
nonlinearities — where unbroadcast/accumulation bugs hide.  Hypothesis picks
the composition; finite differences referee.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor
from repro.tensor.gradcheck import check_gradients

# Smooth unary ops sampled into chains (kink-free so finite differences
# are valid everywhere).
UNARY = {
    "exp": lambda t: (0.3 * t).exp(),
    "tanh": lambda t: t.tanh(),
    "sigmoid": lambda t: t.sigmoid(),
    "square": lambda t: t ** 2,
    "scale": lambda t: 1.7 * t - 0.3,
}
REDUCE = {
    "sum": lambda t: t.sum(),
    "mean": lambda t: t.mean(),
    "sumsq": lambda t: (t * t).sum(),
}


@st.composite
def op_chain(draw):
    names = draw(st.lists(st.sampled_from(sorted(UNARY)), min_size=1,
                          max_size=4))
    reducer = draw(st.sampled_from(sorted(REDUCE)))
    return names, reducer


def _chain_fn(names, reducer, unary=UNARY):
    def fn(t):
        out = t
        for name in names:
            out = unary[name](out)
        return REDUCE[reducer](out)
    return fn


#: A chain whose output reaches ~1e7: the central difference's own
#: cancellation error (up to 0.33 absolute at seed 0) once exceeded
#: ``atol`` on elements whose true gradient is near zero.
LARGE_OUTPUT_CHAIN = ["scale", "square", "square", "exp"]


def _wrong_square(t):
    """``t ** 2`` with a broken backward (``grad * x`` for ``2 grad x``)."""
    return Tensor._make(t.data ** 2, (t,), lambda grad: (grad * t.data,))


class TestUnaryChains:
    @settings(max_examples=40, deadline=None)
    @given(op_chain(), st.integers(0, 10_000))
    @example((LARGE_OUTPUT_CHAIN, "mean"), 0)
    def test_chain_gradient_matches_numeric(self, chain, seed):
        names, reducer = chain
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1.5, 1.5, size=(3, 4)), requires_grad=True)
        check_gradients(_chain_fn(names, reducer), [x], rtol=1e-3,
                        atol=1e-5)

    @pytest.mark.parametrize("seed", [0, 7, 12])
    def test_rounding_allowance_still_catches_a_wrong_backward(self, seed):
        """The numeric side's rounding allowance scales with ``|f|``; on
        the large-output chain it must not hide a wrong derivative."""
        x = Tensor(np.random.default_rng(seed).uniform(-1.5, 1.5, (3, 4)),
                   requires_grad=True)
        broken = dict(UNARY, square=_wrong_square)
        with pytest.raises(AssertionError, match="gradient mismatch"):
            check_gradients(_chain_fn(LARGE_OUTPUT_CHAIN, "mean", broken),
                            [x], rtol=1e-3, atol=1e-5)


class TestBroadcastCompositions:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 10_000))
    def test_row_bias_broadcast_into_reduction(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
        bias = Tensor(rng.normal(size=(cols,)), requires_grad=True)

        def fn(a, b):
            return ((a + b).tanh() * (a - b)).mean()

        check_gradients(fn, [x, bias], rtol=1e-3, atol=1e-5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10_000))
    def test_matmul_into_softmax_loss(self, n, m, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(n, m)), requires_grad=True)
        w = Tensor(rng.normal(size=(m, 3)), requires_grad=True)

        def fn(a, b):
            logits = a @ b
            return -(logits.log_softmax(axis=1)[:, 0]).mean()

        check_gradients(fn, [x, w], rtol=1e-3, atol=1e-5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10_000))
    def test_shared_operand_diamond(self, size, seed):
        """x used along two paths must accumulate both contributions."""
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(0.2, 1.5, size=(size,)), requires_grad=True)

        def fn(t):
            left = t.exp().sum()
            right = (t * t).mean()
            return left * right

        check_gradients(fn, [x], rtol=1e-3, atol=1e-5)


class TestForwardAgainstNumpy:
    """Forward values of composed expressions vs the raw numpy equivalent."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
    def test_normalization_expression(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(rows, cols))
        t = Tensor(data)
        got = ((t - t.mean(axis=0, keepdims=True))
               / (t.var(axis=0, keepdims=True) + 1e-5).sqrt()).data
        expected = (data - data.mean(axis=0, keepdims=True)) \
            / np.sqrt(data.var(axis=0, keepdims=True) + 1e-5)
        assert np.allclose(got, expected)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
           st.integers(0, 10_000))
    def test_affine_chain(self, n, m, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, m))
        b = rng.normal(size=(m, k))
        c = rng.normal(size=(k,))
        got = (Tensor(a) @ Tensor(b) + Tensor(c)).relu().data
        assert np.allclose(got, np.maximum(a @ b + c, 0.0))
