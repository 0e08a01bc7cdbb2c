"""Tests for ProtoAttn (Sec. VI / Algorithm 2)."""

import contextlib

import numpy as np
import pytest

from repro import autograd as ag
from repro.core.clustering import composite_distance
from repro.core.protoattn import ProtoAttn


def make_layer(rng, k=4, p=6, d=8, alpha=0.2):
    return ProtoAttn(rng.standard_normal((k, p)), d_model=d, alpha=alpha)


class TestForward:
    def test_output_shape(self, rng):
        layer = make_layer(rng)
        out = layer(ag.Tensor(rng.standard_normal((3, 10, 6))))
        assert out.shape == (3, 10, 8)

    def test_rejects_wrong_segment_length(self, rng):
        layer = make_layer(rng, p=6)
        with pytest.raises(ValueError, match="p=6"):
            layer(ag.Tensor(rng.standard_normal((2, 5, 7))))

    def test_rejects_wrong_rank(self, rng):
        layer = make_layer(rng)
        with pytest.raises(ValueError):
            layer(ag.Tensor(rng.standard_normal((5, 6))))

    def test_assignment_is_nearest_prototype(self, rng):
        layer = make_layer(rng, alpha=0.0)
        # Feed the prototypes themselves (plus tiny noise): each segment
        # must be assigned to its own prototype.
        segments = layer.prototypes[None] + 1e-9
        layer(ag.Tensor(segments))
        assert np.array_equal(layer.last_assignment_[0], np.arange(4))

    @pytest.mark.parametrize("grad", [False, True])
    def test_labels_are_composite_distance_argmin(self, rng, grad):
        """Labels are the nearest prototype under Eq. (13), also for a
        row with a NaN and for flat (zero-variance) rows."""
        layer = make_layer(rng)
        segments = rng.standard_normal((2, 6, 6))
        segments[0, 1, 3] = np.nan
        segments[0, 2] = 0.0
        segments[1, 4] = 1.5
        with contextlib.nullcontext() if grad else ag.no_grad():
            layer(ag.Tensor(segments))
        flat = segments.reshape(-1, 6)
        expected = composite_distance(flat, layer.prototypes, layer.alpha).argmin(axis=1)
        assert np.array_equal(layer.last_assignment_, expected.reshape(2, 6))

    def test_shared_prototype_shares_output(self, rng):
        """Eq. (19): segments assigned to the same prototype get identical
        attention output rows."""
        layer = make_layer(rng, k=2, p=4)
        proto = layer.prototypes
        # Two copies of prototype 0's neighborhood and one of prototype 1.
        segments = np.stack([proto[0], proto[0] + 1e-9, proto[1]])[None]
        out = layer(ag.Tensor(segments)).data
        assert layer.last_assignment_[0].tolist() == [0, 0, 1]
        assert np.allclose(out[0, 0], out[0, 1])
        assert not np.allclose(out[0, 0], out[0, 2])

    def test_attention_rows_normalized(self, rng):
        layer = make_layer(rng)
        layer(ag.Tensor(rng.standard_normal((2, 12, 6))))
        assert layer.last_attention_.shape == (2, 4, 12)
        assert np.allclose(layer.last_attention_.sum(axis=-1), 1.0)

    def test_gradients_flow_to_projections(self, rng):
        layer = make_layer(rng)
        x = ag.Tensor(rng.standard_normal((2, 7, 6)), requires_grad=True)
        layer(x).sum().backward()
        assert layer.w_e.weight.grad is not None
        assert layer.w_k.weight.grad is not None
        assert layer.w_v.weight.grad is not None
        assert x.grad is not None

    def test_gradcheck_through_layer(self, rng):
        layer = make_layer(rng, k=3, p=4, d=5)
        x = ag.Tensor(rng.standard_normal((1, 5, 4)), requires_grad=True)
        # Hard assignment is piecewise-constant, so as long as no segment
        # sits on a decision boundary the layer is differentiable in x.
        ag.gradcheck(lambda t: layer(t), [x], atol=1e-4)

    def test_prototypes_buffer_in_state_dict(self, rng):
        layer = make_layer(rng)
        state = layer.state_dict()
        assert "prototypes__buffer" in state
        clone = ProtoAttn(np.zeros((4, 6)), d_model=8)
        clone.load_state_dict(state)
        assert np.allclose(clone.prototypes, layer.prototypes)

    def test_rejects_bad_prototypes(self):
        with pytest.raises(ValueError, match="k, p"):
            ProtoAttn(np.zeros(5), d_model=4)


class TestLinearComplexity:
    def test_attention_size_independent_of_length(self, rng):
        """The attention matrix is (k, l): growing l grows it linearly,
        while full self-attention would grow quadratically."""
        layer = make_layer(rng, k=4)
        for length in (8, 32):
            layer(ag.Tensor(rng.standard_normal((1, length, 6))))
            assert layer.last_attention_.shape == (1, 4, length)


def _clone(layer):
    """A fresh layer holding ``layer``'s current weights and prototypes."""
    clone = ProtoAttn(np.zeros_like(layer.prototypes), d_model=layer.d_model)
    clone.load_state_dict(layer.state_dict())
    return clone


def _infer(layer, x):
    with ag.no_grad():
        return layer(ag.Tensor(x)).data


class TestQueryCache:
    """Nothing derived from W_E or the prototype bank is cached: after
    any in-place write, a forward (and its C_Q = W_E(C)) equals a fresh
    layer's built from the written state."""

    def test_repeated_forward_identical(self, rng):
        layer = make_layer(rng)
        x = rng.standard_normal((2, 5, 6))
        assert np.array_equal(_infer(layer, x), _infer(layer, x))
        assert np.array_equal(_infer(layer, x), _infer(_clone(layer), x))

    def test_inplace_weight_mutation_detected(self, rng):
        """Optimizer steps mutate W_E in place."""
        layer = make_layer(rng)
        x = rng.standard_normal((2, 5, 6))
        stale = _infer(layer, x)
        layer.w_e.weight.data += 0.5  # in-place, object identity unchanged
        updated = _infer(layer, x)
        assert not np.array_equal(stale, updated)
        assert np.array_equal(updated, _infer(_clone(layer), x))

    def test_inplace_prototype_mutation_detected(self, rng):
        """Streaming adaptation rewrites prototype rows in place."""
        layer = make_layer(rng)
        x = rng.standard_normal((2, 5, 6))
        stale = _infer(layer, x)
        layer.prototypes[0] += 3.0
        updated = _infer(layer, x)
        assert not np.array_equal(stale, updated)
        assert np.array_equal(updated, _infer(_clone(layer), x))
        assert np.array_equal(layer.last_assignment_, layer.assign(x))

    def test_load_state_dict_served_correctly(self, rng):
        """Weights restored via load_state_dict must not be shadowed by
        anything derived from the previous weights."""
        layer = make_layer(rng)
        x = rng.standard_normal((2, 5, 6))
        state = layer.state_dict()
        before = _infer(layer, x)
        layer.w_e.weight.data += 1.0
        _infer(layer, x)
        layer.load_state_dict(state)
        assert np.array_equal(_infer(layer, x), before)


class TestFlopAccounting:
    """proto_assignment cost depends on whether Pearson is computed."""

    def _assignment_flops(self, rng, alpha, batch=2, length=10, k=4, p=6):
        from repro.profiling import count_ops

        layer = make_layer(rng, k=k, p=p, alpha=alpha)
        x = ag.Tensor(rng.standard_normal((batch, length, p)))
        with ag.no_grad(), count_ops() as counter:
            layer(x)
        return counter.per_op_flops["proto_assignment"]

    def test_euclidean_only_charges_one_gemm(self, rng):
        batch, length, k, p = 2, 10, 4, 6
        flops = self._assignment_flops(rng, alpha=0.0, batch=batch, length=length, k=k, p=p)
        assert flops == 2 * batch * length * k * p

    def test_correlation_charges_second_gemm(self, rng):
        batch, length, k, p = 2, 10, 4, 6
        flops = self._assignment_flops(rng, alpha=0.2, batch=batch, length=length, k=k, p=p)
        assert flops == 4 * batch * length * k * p

    def test_profiled_forward_matches_unprofiled(self, rng):
        """Profiled runs route through the one-hot matmul, unprofiled
        inference through the row gather: the numbers must match."""
        from repro.profiling import count_ops

        layer = make_layer(rng)
        x = rng.standard_normal((2, 5, 6))
        with ag.no_grad():
            gathered = layer(ag.Tensor(x)).data
        with ag.no_grad(), count_ops():
            profiled = layer(ag.Tensor(x)).data
        assert np.array_equal(gathered, profiled)


class TestDependencyMatrix:
    def test_shape_and_rows(self, rng):
        layer = make_layer(rng)
        layer(ag.Tensor(rng.standard_normal((2, 9, 6))))
        dep = layer.dependency_matrix()
        assert dep.shape == (2, 9, 9)
        assert np.allclose(dep.sum(axis=-1), 1.0)

    def test_matches_manual_gather(self, rng):
        layer = make_layer(rng)
        layer(ag.Tensor(rng.standard_normal((1, 6, 6))))
        dep = layer.dependency_matrix()
        for i, label in enumerate(layer.last_assignment_[0]):
            assert np.allclose(dep[0, i], layer.last_attention_[0, label])

    def test_requires_forward_first(self, rng):
        with pytest.raises(RuntimeError, match="forward"):
            make_layer(rng).dependency_matrix()
