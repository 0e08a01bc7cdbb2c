"""Linear-algebra operations with batched-matmul gradients."""

from __future__ import annotations

import numpy as np

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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product following ``numpy.matmul`` semantics.

    Supports 1-D operands (vector dot / matrix-vector) and arbitrary
    broadcast batch dimensions, with gradients reduced back to each
    operand's shape.
    """
    a, b = as_tensor(a), as_tensor(b)
    return Tensor._make(
        a.data @ b.data,
        [
            (a, lambda g: matmul_grad_a(g, a.data, b.data)),
            (b, lambda g: matmul_grad_b(g, a.data, b.data)),
        ],
        "matmul",
    )


def outer(a: Tensor, b: Tensor) -> Tensor:
    """Outer product of two vectors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("outer() expects 1-D tensors")
    return Tensor._make(
        np.outer(a.data, b.data),
        [(a, lambda g: g @ b.data), (b, lambda g: g.T @ a.data)],
        "outer",
    )
