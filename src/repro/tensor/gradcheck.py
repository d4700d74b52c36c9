"""Finite-difference gradient verification.

Every differentiable operation and layer in this repository is checked
against central finite differences.  The training results of the benchmark
harnesses are only trustworthy if the gradients are right, so the test-suite
leans on this module heavily.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["numerical_gradient", "check_gradients"]

#: Rounding budget of one evaluation of ``fn``, in units of ``|f|``'s
#: machine epsilon (the worst seen on the unary-chain property tests is
#: about 1.1).
_ROUNDING_ULPS = 4.0


def numerical_gradient(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
                       index: int, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(*inputs)`` w.r.t. one input.

    ``fn`` must return a scalar :class:`Tensor`.  The perturbed input is
    restored afterwards.
    """
    target = inputs[index]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        f_plus = fn(*inputs).item()
        flat[i] = original - eps
        f_minus = fn(*inputs).item()
        flat[i] = original
        grad_flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def check_gradients(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
                    eps: float = 1e-6, rtol: float = 1e-4,
                    atol: float = 1e-6) -> None:
    """Assert analytic gradients of scalar ``fn(*inputs)`` match numerics.

    Raises ``AssertionError`` with a diagnostic message on mismatch.  Inputs
    that do not require grad are skipped.

    The central difference subtracts two nearly equal values of ``f``, so
    its own rounding error, up to ``4 * |f| * machine-eps / eps``, joins
    ``atol``: a large ``f`` cannot fail an element whose true gradient is
    near zero on cancellation noise alone.  At ``|f|`` of order one the
    term is ~1e-9 and changes nothing.
    """
    for tensor in inputs:
        tensor.zero_grad()
    out = fn(*inputs)
    if out.size != 1:
        raise ValueError("check_gradients requires a scalar-valued function")
    out.backward()
    f = abs(out.item())
    rounding = _ROUNDING_ULPS * f * np.finfo(float).eps / eps \
        if np.isfinite(f) else 0.0
    for i, tensor in enumerate(inputs):
        if not tensor.requires_grad:
            continue
        analytic = tensor.grad
        assert analytic is not None, f"input {i} received no gradient"
        numeric = numerical_gradient(fn, inputs, i, eps=eps)
        if not np.allclose(analytic, numeric, rtol=rtol,
                           atol=atol + rounding):
            worst = np.abs(analytic - numeric).max()
            raise AssertionError(
                f"gradient mismatch on input {i}: max abs diff {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}")
