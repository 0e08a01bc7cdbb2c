"""Elementwise differentiable math operations."""

from __future__ import annotations

import numpy as np
from scipy import special as _special

from repro.autograd.tensor import Tensor, as_tensor, is_grad_enabled

_SQRT_2 = float(np.sqrt(2.0))


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential."""
    x = as_tensor(x)
    out_data = np.exp(x.data)
    return Tensor._make(out_data, [(x, lambda g: g * out_data)], "exp")


def log(x: Tensor) -> Tensor:
    """Elementwise natural logarithm."""
    x = as_tensor(x)
    return Tensor._make(np.log(x.data), [(x, lambda g: g / x.data)], "log")


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root."""
    x = as_tensor(x)
    out_data = np.sqrt(x.data)
    return Tensor._make(out_data, [(x, lambda g: g / (2.0 * out_data))], "sqrt")


def abs(x: Tensor) -> Tensor:  # noqa: A001 - mirrors numpy naming
    """Elementwise absolute value (subgradient sign(x) at 0 -> 0)."""
    x = as_tensor(x)
    return Tensor._make(np.abs(x.data), [(x, lambda g: g * np.sign(x.data))], "abs")


def sin(x: Tensor) -> Tensor:
    """Elementwise sine."""
    x = as_tensor(x)
    return Tensor._make(np.sin(x.data), [(x, lambda g: g * np.cos(x.data))], "sin")


def cos(x: Tensor) -> Tensor:
    """Elementwise cosine."""
    x = as_tensor(x)
    return Tensor._make(np.cos(x.data), [(x, lambda g: -g * np.sin(x.data))], "cos")


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    x = as_tensor(x)
    out_data = np.tanh(x.data)
    return Tensor._make(out_data, [(x, lambda g: g * (1.0 - out_data**2))], "tanh")


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic sigmoid (numerically stable via expit)."""
    x = as_tensor(x)
    out_data = _special.expit(x.data)
    return Tensor._make(
        out_data, [(x, lambda g: g * out_data * (1.0 - out_data))], "sigmoid"
    )


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0)."""
    x = as_tensor(x)
    mask = x.data > 0
    return Tensor._make(np.where(mask, x.data, 0.0), [(x, lambda g: g * mask)], "relu")


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """ReLU with a small slope for negative inputs."""
    x = as_tensor(x)
    mask = x.data > 0
    slope = np.where(mask, 1.0, negative_slope)
    return Tensor._make(
        x.data * slope,
        [(x, lambda g: g * slope)],
        "leaky_relu",
        extras=negative_slope,
    )


def erf(x: Tensor) -> Tensor:
    """Elementwise Gauss error function."""
    x = as_tensor(x)
    return Tensor._make(
        _special.erf(x.data),
        [(x, lambda g: g * float(2.0 / np.sqrt(np.pi)) * np.exp(-x.data**2))],
        "erf",
    )


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: ``x * Phi(x)`` with the Gaussian CDF ``Phi``."""
    x = as_tensor(x)
    cdf = 0.5 * (1.0 + _special.erf(x.data / _SQRT_2))
    slope = None
    if x.requires_grad and is_grad_enabled():
        # The backward keeps one array: the local slope Phi(x) + x phi(x).
        pdf = np.exp(-0.5 * x.data**2) / float(np.sqrt(2.0 * np.pi))
        slope = cdf + x.data * pdf
    return Tensor._make(x.data * cdf, [(x, lambda g: g * slope)], "gelu")


def silu(x: Tensor) -> Tensor:
    """SiLU / swish: ``x * sigmoid(x)``."""
    x = as_tensor(x)
    sig = _special.expit(x.data)
    return Tensor._make(
        x.data * sig,
        [(x, lambda g: g * (sig + x.data * sig * (1.0 - sig)))],
        "silu",
    )


def softplus(x: Tensor) -> Tensor:
    """Smooth ReLU: log(1 + e^x), computed stably."""
    x = as_tensor(x)
    out_data = np.logaddexp(0.0, x.data)
    return Tensor._make(out_data, [(x, lambda g: g * _special.expit(x.data))], "softplus")


def clip(x: Tensor, low: float | None = None, high: float | None = None) -> Tensor:
    """Clamp values; gradient is passed through inside the clip range only."""
    x = as_tensor(x)
    out_data = np.clip(x.data, low, high)
    inside = np.ones_like(x.data, dtype=bool)
    if low is not None:
        inside &= x.data >= low
    if high is not None:
        inside &= x.data <= high
    return Tensor._make(out_data, [(x, lambda g: g * inside)], "clip", extras=(low, high))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the gradient goes to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    a_wins = a.data >= b.data
    return Tensor._make(
        np.maximum(a.data, b.data),
        [(a, lambda g: g * a_wins), (b, lambda g: g * ~a_wins)],
        "maximum",
    )


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; on ties the gradient goes to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    a_wins = a.data <= b.data
    return Tensor._make(
        np.minimum(a.data, b.data),
        [(a, lambda g: g * a_wins), (b, lambda g: g * ~a_wins)],
        "minimum",
    )


def where(condition, a: Tensor, b: Tensor) -> Tensor:
    """Select from ``a`` where ``condition`` else ``b`` (condition is data)."""
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    cond = cond.astype(bool)
    a, b = as_tensor(a), as_tensor(b)
    return Tensor._make(
        np.where(cond, a.data, b.data),
        [(a, lambda g: g * cond), (b, lambda g: g * ~cond)],
        "where",
    )
