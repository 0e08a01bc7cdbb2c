"""Shape-manipulation operations (all differentiable), ``Tensor``
indexing among them."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd.select_ops import declare
from repro.autograd.tensor import Tensor, as_tensor, unbroadcast


def _back_to_input_shape(g, out, saved, x, needs, **params):
    return (g.reshape(x.shape),)


def _getitem_backward(g, out, saved, x, index, needs):
    full = np.zeros_like(x)
    np.add.at(full, index, g)
    return (full,)


#: ``x[index]``: a view for basic indexing, a new array for fancy indexing.
getitem = declare(
    "getitem", lambda x, index, out=None, work=None: x[index], _getitem_backward, "view"
)
_reshape = declare(
    "reshape",
    lambda x, shape, out=None, work=None: x.reshape(shape),
    _back_to_input_shape,
    "view",
)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    """Reshape without copying semantics (gradient reshapes back)."""
    return _reshape(x, shape=tuple(shape))


def flatten(x: Tensor) -> Tensor:
    """Flatten to 1-D."""
    return reshape(x, (-1,))


def _transpose_backward(g, out, saved, x, axes, needs):
    return (g.transpose(tuple(int(i) for i in np.argsort(axes))),)


_transpose = declare(
    "transpose",
    lambda x, axes, out=None, work=None: x.transpose(axes),
    _transpose_backward,
    "view",
)


def transpose(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes (all reversed when ``axes`` is None)."""
    x = as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    return _transpose(x, axes=tuple(axes))


_swapaxes = declare(
    "swapaxes",
    lambda x, axis1, axis2, out=None, work=None: x.swapaxes(axis1, axis2),
    lambda g, out, saved, x, axis1, axis2, needs: (np.swapaxes(g, axis1, axis2),),
    "view",
)


def swapaxes(x: Tensor, axis1: int, axis2: int) -> Tensor:
    """Exchange two axes."""
    return _swapaxes(x, axis1=axis1, axis2=axis2)


_squeeze = declare(
    "squeeze",
    lambda x, axis, out=None, work=None: np.squeeze(x, axis=axis),
    _back_to_input_shape,
    "view",
)
_unsqueeze = declare(
    "unsqueeze",
    lambda x, axis, out=None, work=None: np.expand_dims(x, axis=axis),
    _back_to_input_shape,
    "view",
)


def squeeze(x: Tensor, axis: int | None = None) -> Tensor:
    """Drop size-1 axes."""
    return _squeeze(x, axis=axis)


def unsqueeze(x: Tensor, axis: int) -> Tensor:
    """Insert a size-1 axis at ``axis``."""
    return _unsqueeze(x, axis=axis)


def expand_dims(x: Tensor, axis: int) -> Tensor:
    """Alias of :func:`unsqueeze` mirroring numpy naming."""
    return unsqueeze(x, axis)


def _broadcast_to(x, shape, out=None, work=None):
    if out is None:
        out = np.empty(shape, x.dtype)
    np.copyto(out, x)
    return out


_broadcast_to_op = declare(
    "broadcast_to",
    _broadcast_to,
    lambda g, out, saved, x, shape, needs: (unbroadcast(g, x.shape),),
)


def broadcast_to(x: Tensor, shape: Sequence[int]) -> Tensor:
    """Materialize a broadcast view; the gradient sums back."""
    return _broadcast_to_op(x, shape=tuple(shape))


def _repeat_backward(g, out, saved, x, repeats, axis, needs):
    axis_norm = axis % x.ndim
    reshaped = list(x.shape)
    reshaped.insert(axis_norm + 1, repeats)
    return (g.reshape(reshaped).sum(axis=axis_norm + 1),)


_repeat = declare(
    "repeat",
    lambda x, repeats, axis, out=None, work=None: np.repeat(x, repeats, axis=axis),
    _repeat_backward,
    "fresh",
)


def repeat(x: Tensor, repeats: int, axis: int) -> Tensor:
    """Tile ``x`` ``repeats`` times along ``axis`` (numpy.repeat semantics)."""
    return _repeat(x, repeats=repeats, axis=axis)


def _concat_backward(g, out, saved, *arrays, axis, needs):
    grads = []
    start = 0
    for array in arrays:
        slicer = [slice(None)] * g.ndim
        slicer[axis] = slice(start, start + array.shape[axis])
        grads.append(g[tuple(slicer)])
        start += array.shape[axis]
    return grads


_concat = declare(
    "concat",
    lambda *arrays, axis, out=None, work=None: np.concatenate(arrays, axis=axis, out=out),
    _concat_backward,
)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along an existing axis."""
    tensors = [as_tensor(t) for t in tensors]
    return _concat(*tensors, axis=axis % tensors[0].ndim)


_stack = declare(
    "stack",
    lambda *arrays, axis, out=None, work=None: np.stack(arrays, axis=axis, out=out),
    lambda g, out, saved, *arrays, axis, needs: [
        np.take(g, index, axis=axis) if need else None for index, need in enumerate(needs)
    ],
)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    return _stack(*tensors, axis=axis % (tensors[0].ndim + 1))


def _section(axis: int, start: int, stop: int) -> tuple:
    return (slice(None),) * axis + (slice(start, stop),)


def _split_backward(g, out, saved, x, axis, start, stop, needs):
    full = np.zeros_like(x)
    full[_section(axis, start, stop)] = g
    return (full,)


_split = declare(
    "split",
    lambda x, axis, start, stop, out=None, work=None: x[_section(axis, start, stop)],
    _split_backward,
    "view",
)


def split(x: Tensor, sections: int, axis: int = 0) -> list[Tensor]:
    """Split into equal sections along ``axis`` (numpy.split semantics)."""
    x = as_tensor(x)
    axis = axis % x.ndim
    if x.shape[axis] % sections:
        raise ValueError("array split does not result in an equal division")
    width = x.shape[axis] // sections
    return [
        _split(x, axis=axis, start=start, stop=start + width)
        for start in range(0, x.shape[axis], width)
    ]


def _pad_backward(g, out, saved, x, pad_width, needs):
    inner = tuple(slice(before, before + n) for (before, _), n in zip(pad_width, x.shape))
    return (g[inner],)


_pad = declare(
    "pad",
    lambda x, pad_width, out=None, work=None: np.pad(x, pad_width, mode="constant"),
    _pad_backward,
    "fresh",
)


def pad(x: Tensor, pad_width, mode: str = "constant") -> Tensor:
    """Zero-pad (only constant mode is differentiable here)."""
    if mode != "constant":
        raise ValueError("only constant (zero) padding supports gradients")
    x = as_tensor(x)
    pad_width = np.broadcast_to(np.asarray(pad_width), (x.ndim, 2))
    return _pad(x, pad_width=tuple((int(before), int(after)) for before, after in pad_width))


def _gather_backward(g, out, saved, x, indices, axis, needs):
    full = np.zeros_like(x)
    axis_norm = axis % x.ndim
    moved = np.moveaxis(full, axis_norm, 0)
    g_moved = np.moveaxis(
        g, tuple(range(axis_norm, axis_norm + indices.ndim)), tuple(range(indices.ndim))
    )
    np.add.at(moved, indices, g_moved)
    return (full,)


_gather = declare(
    "gather",
    lambda x, indices, axis, out=None, work=None: np.take(x, indices, axis=axis),
    _gather_backward,
    "fresh",
)


def gather(x: Tensor, indices, axis: int = 0) -> Tensor:
    """Take rows/elements by integer indices along ``axis``."""
    return _gather(x, indices=np.asarray(indices, dtype=np.int64), axis=axis)
