"""Common-subexpression elimination in ``compile_plan``.

A dynamic node with the same op, the same (already merged) parents and
equal extras as an earlier node is dropped; its consumers read the
earlier node.  The merged plan must stay bit-identical to eager, merge
what is duplicated, and never merge nodes that read different inputs or
different live leaves (equal values at trace time prove nothing about
the next replay).
"""

import numpy as np
import pytest

from repro import autograd as ag
from repro.autograd import Tensor
from repro.engine import trace_function
from repro.engine.plan import _frozen

from .conftest import build_plan_model, make_windows

pytestmark = pytest.mark.plan


def eager(fn, *arrays):
    with ag.no_grad():
        return fn(*[Tensor(a) for a in arrays]).data


def centred_square(x):
    # ``mean`` and ``x - mean`` are built twice, as LayerNorm's ``var``
    # rebuilds them.
    a = x - x.mean(axis=-1, keepdims=True)
    b = x - x.mean(axis=-1, keepdims=True)
    return a * b + x.mean(axis=-1, keepdims=True)


def test_duplicated_subexpression_is_merged_bitwise():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 7))
    plan = trace_function(centred_square, x)
    assert plan.stats.num_merged == 3  # two means, one subtraction
    assert plan.stats.num_ops == 4  # mean, sub, mul, add
    for array in (x, rng.standard_normal((4, 7))):
        assert np.array_equal(plan.replay(array), eager(centred_square, array))


def test_different_inputs_never_merge():
    def fn(x, y):
        return ag.exp(x) + ag.exp(y)

    x = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    plan = trace_function(fn, x, x.copy())  # equal values at trace time
    assert plan.stats.num_merged == 0
    y = np.full((2, 3), 0.5)
    assert np.array_equal(plan.replay(x, y), eager(fn, x, y))


def test_different_live_leaves_never_merge():
    first, second = np.arange(3.0), np.arange(3.0)

    def fn(x):
        return x * ag.live(first) + x * ag.live(second)

    plan = trace_function(fn, np.ones(3))
    assert plan.stats.num_merged == 0
    second[...] = [10.0, 20.0, 30.0]
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(plan.replay(x), x * first + x * second)


def test_different_extras_never_merge():
    def fn(x):
        return x.sum(axis=0, keepdims=True) + x.sum(axis=1, keepdims=True)

    x = np.random.default_rng(1).standard_normal((3, 3))
    plan = trace_function(fn, x)
    assert plan.stats.num_merged == 0
    assert np.array_equal(plan.replay(x), eager(fn, x))


def test_frozen_extras_tell_values_and_types_apart():
    assert _frozen(0.0) != _frozen(-0.0)
    assert _frozen(True) != _frozen(1)
    assert _frozen(1) != _frozen(1.0)
    assert _frozen((0, (1, 2))) == _frozen((0, (1, 2)))
    assert _frozen({"alpha": 0.2}) == _frozen({"alpha": 0.2})
    assert _frozen({"alpha": 0.2}) != _frozen({"alpha": 0.3})
    assert _frozen(np.zeros(2)) is None  # arrays: never merged
    assert _frozen((1, np.zeros(2))) is None


@pytest.mark.parametrize("n_layers", [1, 2])
def test_model_plan_merges_norm_statistics_bitwise(n_layers):
    model = build_plan_model(n_layers=n_layers)
    windows = make_windows(model, 5, seed=3, nan_rows=[0])
    planned = model.forecast_batch(windows, engine="plan")
    assert model.plan_stats().num_merged > 0
    assert np.array_equal(planned, model.forecast_batch(windows), equal_nan=True)
