"""Reductions and normalized reductions (softmax family)."""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.autograd.select_ops import declare
from repro.autograd.tensor import Tensor, as_tensor

_builtin_max = max


def _normalize_axis(axis, ndim: int):
    if axis is None:
        return None
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def _expand_reduced(grad: np.ndarray, shape: tuple[int, ...], axis) -> np.ndarray:
    """Reshape a reduced (keepdims=False) gradient so it broadcasts back."""
    if axis is None:
        return np.broadcast_to(grad, shape)
    expanded_shape = list(shape)
    for a in axis:
        expanded_shape[a] = 1
    return np.broadcast_to(grad.reshape(expanded_shape), shape)


def _sum(x, axis, keepdims, out=None, work=None):
    # ndarray.sum is add.reduce behind a dispatch wrapper.
    return np.add.reduce(x, axis, None, out, keepdims)


def _sum_backward(g, out, saved, x, axis, keepdims, needs):
    if keepdims or axis is None and g.ndim == x.ndim:
        return (np.broadcast_to(g, x.shape),)
    return (_expand_reduced(g, x.shape, axis),)


_sum_op = declare("sum", _sum, _sum_backward)


def sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum over the given axes (numpy semantics)."""
    x = as_tensor(x)
    return _sum_op(x, axis=_normalize_axis(axis, x.ndim), keepdims=keepdims)


def _count(x, axis) -> int:
    return x.size if axis is None else math.prod(x.shape[a] for a in axis)


def _mean(x, axis, keepdims, out=None, work=None):
    # np.mean is this sum and an in-place division by the element count,
    # except that it sums float16 in float32.
    if x.dtype == np.float16:
        return np.mean(x, axis, None, out, keepdims)
    total = np.add.reduce(x, axis, None, out, keepdims)
    return np.true_divide(total, _count(x, axis), out)


def _mean_backward(g, out, saved, x, axis, keepdims, needs):
    if keepdims:
        return (np.broadcast_to(g, x.shape) / _count(x, axis),)
    return (_expand_reduced(g, x.shape, axis) / _count(x, axis),)


_mean_op = declare("mean", _mean, _mean_backward)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over the given axes."""
    x = as_tensor(x)
    return _mean_op(x, axis=_normalize_axis(axis, x.ndim), keepdims=keepdims)


def var(x: Tensor, axis=None, keepdims: bool = False, ddof: int = 0) -> Tensor:
    """Variance, differentiable, composed from primitive ops."""
    x = as_tensor(x)
    count = _count(x, _normalize_axis(axis, x.ndim))
    centered = x - mean(x, axis=axis, keepdims=True)
    total = sum(centered * centered, axis=axis, keepdims=keepdims)
    return total * (1.0 / _builtin_max(count - ddof, 1))


def std(x: Tensor, axis=None, keepdims: bool = False, ddof: int = 0, eps: float = 0.0) -> Tensor:
    """Standard deviation; ``eps`` is added under the square root."""
    from repro.autograd.math_ops import sqrt

    return sqrt(var(x, axis=axis, keepdims=keepdims, ddof=ddof) + eps)


def _extreme_backward(g, out, saved, x, axis, keepdims, needs, np_fn):
    out_keep = np_fn(x, axis=axis, keepdims=True)
    mask = x == out_keep
    # Split gradient evenly among ties so the sum over ties matches g.
    counts = mask.sum(axis=axis, keepdims=True)
    if keepdims:
        g_keep = np.broadcast_to(g, out_keep.shape)
    elif axis is None:
        g_keep = np.asarray(g).reshape((1,) * x.ndim)
    else:
        reduced_shape = list(x.shape)
        for a in axis:
            reduced_shape[a] = 1
        g_keep = np.asarray(g).reshape(reduced_shape)
    return (np.broadcast_to(g_keep, x.shape) * mask / counts,)


def _max(x, axis, keepdims, out=None, work=None):
    return np.maximum.reduce(x, axis, None, out, keepdims)


def _min(x, axis, keepdims, out=None, work=None):
    return np.minimum.reduce(x, axis, None, out, keepdims)


_max_op = declare("max", _max, functools.partial(_extreme_backward, np_fn=np.max))
_min_op = declare("min", _min, functools.partial(_extreme_backward, np_fn=np.min))


def max(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Maximum over axes; ties split the gradient evenly."""
    x = as_tensor(x)
    return _max_op(x, axis=_normalize_axis(axis, x.ndim), keepdims=keepdims)


def min(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Minimum over axes; ties split the gradient evenly."""
    x = as_tensor(x)
    return _min_op(x, axis=_normalize_axis(axis, x.ndim), keepdims=keepdims)


def _softmax(x, axis, out=None, work=None):
    # In place in ``out`` once the subtraction has read ``x``, so ``out``
    # may be ``x``.  ndarray.max/.sum are maximum.reduce/add.reduce
    # behind a dispatch wrapper.
    out = np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    return np.true_divide(out, np.add.reduce(out, axis=axis, keepdims=True), out=out)


def _softmax_backward(g, out, saved, x, axis, needs):
    dot = (g * out).sum(axis=axis, keepdims=True)
    return (out * (g - dot),)


_softmax_op = declare("softmax", _softmax, _softmax_backward, "ew")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    return _softmax_op(x, axis=axis)


def _log_softmax(x, axis, out=None, work=None):
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return np.subtract(shifted, lse, out=out)


def _log_softmax_backward(g, out, saved, x, axis, needs):
    return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)


_log_softmax_op = declare("log_softmax", _log_softmax, _log_softmax_backward, "ew")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log of the softmax along ``axis``."""
    return _log_softmax_op(x, axis=axis)


def _logsumexp(x, axis, keepdims, out=None, work=None):
    peak = x.max(axis=axis, keepdims=True)
    out_keep = peak + np.log(np.exp(x - peak).sum(axis=axis, keepdims=True))
    return out_keep if keepdims else np.squeeze(out_keep, axis=axis)


def _logsumexp_backward(g, out, saved, x, axis, keepdims, needs):
    out_keep = out if keepdims else np.expand_dims(out, axis=axis)
    g_keep = g if keepdims else np.expand_dims(g, axis=axis)
    return (np.exp(x - out_keep) * g_keep,)


_logsumexp_op = declare("logsumexp", _logsumexp, _logsumexp_backward, "fresh")


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp reduction along ``axis``."""
    return _logsumexp_op(x, axis=axis, keepdims=keepdims)
