"""``backward()`` consumes the graph it walks.

Each interior node drops its parents (and with them its backward
closures and the forward arrays they hold) as soon as its gradient has
reached them, so the forward's memory is released during the walk and a
training loop holds one graph at a time.  A consumed graph cannot be
walked again; leaf gradients still accumulate across separately built
graphs (``test_tensor.py::test_grad_accumulates_across_backward_calls``).
"""

import weakref

import numpy as np
import pytest
from scipy import special

from repro import autograd as ag


def two_layer_loss(x, w):
    """``sum(tanh(x @ w) ** 2)`` plus weak references to the interior
    arrays, which only the graph itself holds."""
    hidden = ag.tanh(x @ w)
    squared = hidden * hidden
    refs = [weakref.ref(hidden.data), weakref.ref(squared.data)]
    return squared.sum(), refs


def test_interior_arrays_die_once_backward_returns(rng):
    x = ag.Tensor(rng.standard_normal((4, 3)))
    w = ag.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    loss, refs = two_layer_loss(x, w)
    assert all(ref() is not None for ref in refs)
    loss.backward()
    assert all(ref() is None for ref in refs)
    hidden = np.tanh(x.data @ w.data)
    expected = x.data.T @ (2.0 * hidden * (1.0 - hidden**2))
    assert np.allclose(w.grad, expected)


def test_interior_arrays_are_released_during_the_walk(rng):
    """By the time the walk reaches the input side, the loss-side
    interior arrays are already gone."""
    refs, seen = [], []
    x = ag.Tensor(rng.standard_normal((4, 3)), requires_grad=True)

    def watching(g):
        seen.append([ref() is None for ref in refs])
        return g

    first = ag.Tensor._make(x.data.copy(), [(x, watching)], "identity")
    loss, later = two_layer_loss(first, ag.Tensor(rng.standard_normal((3, 5))))
    refs.extend(later)
    del first
    loss.backward()
    assert seen == [[True, True]]
    assert x.grad is not None


def test_second_backward_on_the_same_root_raises(rng):
    w = ag.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    loss, _ = two_layer_loss(ag.Tensor(rng.standard_normal((4, 3))), w)
    loss.backward()
    first = w.grad.copy()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    assert np.array_equal(w.grad, first)  # nothing was accumulated


def test_a_new_graph_through_a_consumed_node_raises():
    x = ag.tensor([1.0, 2.0], requires_grad=True)
    hidden = x * 3.0
    hidden.sum().backward()
    with pytest.raises(RuntimeError, match="consumed"):
        (hidden * 2.0).sum().backward()


def test_root_and_leaves_keep_their_gradients():
    x = ag.tensor([1.0, 2.0], requires_grad=True)
    y = (x * x).sum()
    y.backward()
    assert y.grad == pytest.approx(1.0)
    assert np.allclose(x.grad, [2.0, 4.0])
    assert y.item() == pytest.approx(5.0)  # the root keeps its value


def test_gelu_backward_is_the_historical_formula_bit_for_bit(rng):
    data = rng.standard_normal((6, 7)) * 3.0
    upstream = rng.standard_normal((6, 7))
    x = ag.Tensor(data.copy(), requires_grad=True)
    out = ag.gelu(x)
    out.backward(upstream)
    cdf = 0.5 * (1.0 + special.erf(data / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * data**2) / float(np.sqrt(2.0 * np.pi))
    assert out.data.tobytes() == (data * cdf).tobytes()
    assert x.grad.tobytes() == (upstream * (cdf + data * pdf)).tobytes()
    with ag.no_grad():
        assert ag.gelu(x).data.tobytes() == out.data.tobytes()
