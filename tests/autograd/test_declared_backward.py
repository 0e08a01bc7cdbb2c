"""Differentiable declared ops: ``nn.Linear`` and ``nn.LayerNorm``.

Each layer is one op declared with a backward
(:func:`repro.autograd.select_ops.declare`).  It must give the outputs
and gradients of the composite expression it replaced, byte for byte,
and the FLOPs the composite's ops would have counted.
"""

import numpy as np
import pytest

from repro import autograd as ag
from repro.nn import LayerNorm, Linear
from repro.nn.linear import linear
from repro.nn.norm import layer_norm
from repro.profiling.counter import count_ops, profile_model


def composite_linear(x, weight, bias=None):
    out = ag.matmul(x, weight.T)
    return out if bias is None else out + bias


def composite_layer_norm(x, weight, bias, axes, eps):
    mu = ag.mean(x, axis=axes, keepdims=True)
    sigma2 = ag.var(x, axis=axes, keepdims=True)
    return (x - mu) / ag.sqrt(sigma2 + eps) * weight + bias


def fused_linear(x, weight, bias=None):
    return linear(x, weight) if bias is None else linear(x, weight, bias)


def fused_layer_norm(x, weight, bias, axes, eps):
    return layer_norm(x, weight, bias, axes=axes, eps=eps)


def leaves(rng, dtype, *shapes):
    return [
        ag.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
        for shape in shapes
    ]


def run(op, arrays, upstream, reused):
    """Output and input gradients of ``op`` inside a small graph.

    With ``reused`` the op's input also multiplies its output, so the
    walk adds that path's gradient into the input before the op's own.
    """
    tensors = [ag.Tensor(a.copy(), requires_grad=True) for a in arrays]
    x = tensors[0] * 1.5
    out = op(x, *tensors[1:])
    if reused:
        out = out * x
    (out * ag.Tensor(upstream)).sum().backward()
    return [out.data] + [t.grad for t in tensors]


CASES = {
    "linear": (fused_linear, composite_linear, [(4, 3, 6), (6, 6), (6,)], {}),
    "linear_no_bias": (fused_linear, composite_linear, [(4, 3, 6), (6, 6)], {}),
    "linear_2d": (fused_linear, composite_linear, [(7, 6), (6, 6), (6,)], {}),
    "layer_norm": (
        fused_layer_norm, composite_layer_norm, [(4, 3, 6), (6,), (6,)],
        {"axes": (2,), "eps": 1e-5},
    ),
    "layer_norm_two_axes": (
        fused_layer_norm, composite_layer_norm, [(4, 3, 6), (3, 6), (3, 6)],
        {"axes": (1, 2), "eps": 1e-3},
    ),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("reused", [False, True], ids=["alone", "reused"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_bytewise_equal_to_composite(case, reused, dtype, rng):
    fused, composite, shapes, params = CASES[case]
    arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]

    def call(op):
        return lambda x, *rest: op(x, *rest, **params)

    with ag.no_grad():
        expected = composite(*[ag.Tensor(a) for a in arrays], **params).data
    upstream = rng.standard_normal(expected.shape).astype(dtype)
    got = run(call(fused), arrays, upstream, reused)
    want = run(call(composite), arrays, upstream, reused)
    for mine, theirs in zip(got, want):
        assert mine.dtype == theirs.dtype == dtype
        assert mine.tobytes() == theirs.tobytes()
    with ag.no_grad():
        plain = fused(*[ag.Tensor(a) for a in arrays], **params)
    assert not plain.requires_grad
    assert plain.data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_gradcheck(case, rng):
    fused, _, shapes, params = CASES[case]
    ag.gradcheck(lambda *ts: fused(*ts, **params), leaves(rng, np.float64, *shapes))


def test_only_the_needed_gradients_are_computed(rng):
    x = ag.Tensor(rng.standard_normal((4, 6)))
    weight, bias = leaves(rng, np.float64, (6,), (6,))
    layer_norm(x, weight, bias, axes=(1,), eps=1e-5).sum().backward()
    assert x.grad is None
    assert weight.grad.shape == bias.grad.shape == (6,)


def test_one_node_per_layer(rng):
    x, weight, bias = leaves(rng, np.float64, (4, 6), (6,), (6,))
    out = layer_norm(x, weight, bias, axes=(1,), eps=1e-5)
    assert [parent for parent, _ in out._parents] == [x, weight, bias]
    lin_weight, lin_bias = leaves(rng, np.float64, (3, 6), (3,))
    out = linear(out, lin_weight, lin_bias)
    assert [parent for parent, _ in out._parents][1:] == [lin_weight, lin_bias]


@pytest.mark.parametrize("layer", [Linear(6, 5), LayerNorm(6)], ids=["linear", "layer_norm"])
def test_second_backward_through_a_fused_node_raises(layer, rng):
    x = ag.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    loss = layer(x).sum()
    loss.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()


@pytest.mark.parametrize("case", sorted(CASES))
def test_flops_equal_the_composite(case, rng):
    fused, composite, shapes, params = CASES[case]
    tensors = [ag.Tensor(rng.standard_normal(s)) for s in shapes]
    counts = []
    for op in (fused, composite):
        with ag.no_grad(), count_ops() as counter:
            op(*tensors, **params)
        counts.append(counter.flops)
    assert counts[0] == counts[1] > 0


def test_focus_flops_at_the_benchmark_config():
    """FOCUS at perfbench's pinned config counts the FLOPs it counted
    when ``Linear`` and ``LayerNorm`` were composites."""
    from repro.core.model import FOCUSConfig, FOCUSForecaster
    from repro.nn import init as nn_init

    config = FOCUSConfig(
        lookback=96, horizon=24, num_entities=12, segment_length=12,
        num_prototypes=8, d_model=32, num_readout=2,
    )
    nn_init.seed(0)
    model = FOCUSForecaster(
        config, prototypes=np.random.default_rng(0).standard_normal((8, 12))
    )
    assert profile_model(model, (1, 96, 12)).flops == 2_935_644
