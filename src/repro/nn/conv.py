"""1-D convolution with stride / padding / dilation (im2col based).

Implemented as one declared op (:func:`repro.autograd.select_ops.declare`):
the forward builds sliding windows with numpy stride tricks and
contracts them with the kernel via einsum; the backward scatters
gradients back tap by tap (col2im).  This is much faster than composing
the convolution out of primitive gather ops.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.autograd.select_ops import declare
from repro.nn import init
from repro.nn.module import Module, Parameter


def _conv1d_windows(
    x: np.ndarray, kernel_size: int, stride: int, dilation: int
) -> np.ndarray:
    """Return sliding windows ``(B, C, L_out, K)`` of an already-padded input."""
    span = (kernel_size - 1) * dilation + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, span, axis=2)
    return windows[:, :, ::stride, ::dilation]


def _conv1d(
    x, weight, bias=None, stride=1, padding=(0, 0), dilation=1, out=None, work=None
):
    """The cross-correlation, from the windows of the zero-padded input;
    saves the windows for the weight gradient."""
    x_padded = np.pad(x, ((0, 0), (0, 0), padding))
    windows = _conv1d_windows(x_padded, weight.shape[2], stride, dilation)
    out = np.einsum("bclk,ock->bol", windows, weight, optimize=True)
    if bias is not None:
        out = out + bias[None, :, None]
    return out if work is not None else (out, windows)


def _conv1d_backward(
    g, out, windows, x, weight, bias=None, *, stride, padding, dilation, needs
):
    grads = [None, None]
    if needs[0]:
        batch, c_in, length = x.shape
        grad_padded = np.zeros((batch, c_in, length + sum(padding)), x.dtype)
        # d/d windows = einsum('bol,ock->bclk', g, W); scatter back per tap.
        # For a fixed tap the target positions form a non-overlapping
        # strided slice, so direct += is safe (and much faster than add.at).
        grad_windows = np.einsum("bol,ock->bclk", g, weight, optimize=True)
        for tap in range(weight.shape[2]):
            offset = tap * dilation
            stop = offset + stride * g.shape[2]
            grad_padded[:, :, offset:stop:stride] += grad_windows[:, :, :, tap]
        grads[0] = grad_padded[:, :, padding[0] : padding[0] + length]
    if needs[1]:
        grads[1] = np.einsum("bol,bclk->ock", g, windows, optimize=True)
    if bias is not None:
        grads.append(g.sum(axis=(0, 2)) if needs[2] else None)
    return grads


_conv1d_op = declare("conv1d", _conv1d, _conv1d_backward, "fresh")


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int | tuple[int, int] = 0,
    dilation: int = 1,
) -> Tensor:
    """Cross-correlation of ``x (B, C_in, L)`` with ``weight (C_out, C_in, K)``.

    ``padding`` may be an int (symmetric) or an ``(left, right)`` pair,
    which enables causal convolutions (pad only on the left).
    """
    if isinstance(padding, int):
        padding = (padding, padding)
    batch, c_in, length = x.shape
    c_out, c_in_w, kernel_size = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in} vs weight {c_in_w}")
    if length + sum(padding) < (kernel_size - 1) * dilation + 1:
        raise ValueError("input (with padding) shorter than kernel span")
    tensors = (x, weight) if bias is None else (x, weight, bias)
    return _conv1d_op(*tensors, stride=stride, padding=tuple(padding), dilation=dilation)


class Conv1d(Module):
    """1-D convolution layer over ``(B, C_in, L)`` inputs.

    ``causal=True`` left-pads by ``(K-1)*dilation`` so the output at time t
    only depends on inputs at times <= t (WaveNet-style).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        dilation: int = 1,
        bias: bool = True,
        causal: bool = False,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.dilation = dilation
        self.causal = causal
        if causal:
            self.padding: int | tuple[int, int] = ((kernel_size - 1) * dilation, 0)
        else:
            self.padding = padding
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kernel_size))
        )
        if bias:
            bound = 1.0 / np.sqrt(in_channels * kernel_size)
            self.bias = Parameter(init.uniform((out_channels,), -bound, bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return conv1d(
            x,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            dilation=self.dilation,
        )

    def _extra_repr(self) -> str:
        return (
            f"(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, d={self.dilation}, causal={self.causal})"
        )
