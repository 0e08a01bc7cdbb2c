"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, as_tensor
from repro.autograd.linalg_ops import matmul_grad_a, matmul_grad_b
from repro.autograd.select_ops import declare
from repro.autograd.tensor import unbroadcast
from repro.nn import init
from repro.nn.module import Module, Parameter


def _linear(x, weight, bias=None, out=None, work=None):
    """``x @ weight.T + bias``: the matmul into ``out``, the bias added
    in place.  Saves nothing: the backward reads only the inputs."""
    out = np.matmul(x, weight.T, out)
    if bias is not None:
        np.add(out, bias, out)
    return out


def _linear_backward(grad, out, saved, x, weight, bias=None, *, needs):
    """The gradients ``matmul(x, weight.T) + bias`` gives its inputs,
    computed as that composite computes them."""
    weight_t = weight.T
    grads = [
        matmul_grad_a(grad, x, weight_t) if needs[0] else None,
        matmul_grad_b(grad, x, weight_t).T if needs[1] else None,
    ]
    if bias is not None:
        grads.append(unbroadcast(grad, bias.shape) if needs[2] else None)
    return grads


linear = declare("linear", _linear, _linear_backward)


class Linear(Module):
    """Affine map ``y = x W^T + b`` applied to the last axis.

    Accepts inputs of any leading shape ``(..., in_features)``.  One
    declared op (:func:`linear`): the training graph keeps no pre-bias
    product.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features)))
        if bias:
            bound = 1.0 / np.sqrt(in_features)
            self.bias = Parameter(init.uniform((out_features,), -bound, bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        if self.bias is None:
            return linear(as_tensor(x), self.weight)
        return linear(as_tensor(x), self.weight, self.bias)

    def _extra_repr(self) -> str:
        return f"(in={self.in_features}, out={self.out_features})"
