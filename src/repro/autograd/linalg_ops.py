"""Linear-algebra operations with batched-matmul gradients."""

from __future__ import annotations

import numpy as np

from repro.autograd.select_ops import declare
from repro.autograd.tensor import Tensor, as_tensor, unbroadcast


def matmul_grad_a(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gradient of ``a @ b`` with respect to ``a``, reduced to ``a``'s shape."""
    if a.ndim == 1 and b.ndim == 1:
        return g * b
    if a.ndim == 1:
        # (k,) @ (..., k, n) -> (..., n); grad_a = sum over batch of B g
        ga = (b @ np.expand_dims(g, -1)).squeeze(-1)
        return unbroadcast(ga, a.shape)
    if b.ndim == 1:
        # (..., m, k) @ (k,) -> (..., m)
        ga = np.expand_dims(g, -1) * b
        return unbroadcast(ga, a.shape)
    ga = g @ np.swapaxes(b, -1, -2)
    return unbroadcast(ga, a.shape)


def matmul_grad_b(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gradient of ``a @ b`` with respect to ``b``, reduced to ``b``'s shape."""
    if a.ndim == 1 and b.ndim == 1:
        return g * a
    if a.ndim == 1:
        gb = np.expand_dims(a, -1) * np.expand_dims(g, -2)
        return unbroadcast(gb, b.shape)
    if b.ndim == 1:
        gb = np.swapaxes(a, -1, -2) @ np.expand_dims(g, -1)
        return unbroadcast(gb.squeeze(-1) if gb.ndim > b.ndim else gb, b.shape)
    gb = np.swapaxes(a, -1, -2) @ g
    return unbroadcast(gb, b.shape)


def _matmul_backward(g, out, saved, a, b, needs):
    return (
        matmul_grad_a(g, a, b) if needs[0] else None,
        matmul_grad_b(g, a, b) if needs[1] else None,
    )


#: Matrix product following ``numpy.matmul`` semantics: 1-D operands
#: (vector dot / matrix-vector) and broadcast batch dimensions, with
#: gradients reduced back to each operand's shape.
matmul = declare("matmul", np.matmul, _matmul_backward)


def _outer_backward(g, out, saved, a, b, needs):
    return g @ b if needs[0] else None, g.T @ a if needs[1] else None


_outer = declare(
    "outer", lambda a, b, out=None, work=None: np.outer(a, b, out), _outer_backward
)


def outer(a: Tensor, b: Tensor) -> Tensor:
    """Outer product of two vectors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("outer() expects 1-D tensors")
    return _outer(a, b)
