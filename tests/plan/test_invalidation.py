"""Plan invalidation: no sanctioned mutation can serve a stale replay.

Plans are keyed by ``(input shape, dtype)`` and hold the prototype
buffers as live leaves: ``set_prototypes`` / ``update_prototype`` write
those buffers in place, and every replay recomputes ProtoAttn's query
projection and assignment distances from their current values, for
hard and soft assignment and for the deep blocks' reused routing alike.
Nothing derived from the bank is cached, so a swap reuses the same plan
objects with zero retraces, and only ``to_dtype`` evicts.  The property
test drives random mutation sequences and re-checks bit-equivalence
after each step; the structural tests pin the cache mechanics and the
capture layer's rejection of data-dependent leaves (the failure mode
that would otherwise allow silent staleness).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import PlanError, PlanUnsupportedError, trace_function

from .conftest import build_plan_model, make_windows

pytestmark = pytest.mark.plan


def _mutate(model, op, rng):
    k, p = model.config.num_prototypes, model.config.segment_length
    if op == "set":
        model.set_prototypes(rng.standard_normal((k, p)))
    elif op == "update":
        model.update_prototype(int(rng.integers(k)), rng.standard_normal(p))
    else:
        raise AssertionError(op)


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(st.sampled_from(["set", "update"]), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("assignment", ["hard", "soft"])
def test_any_prototype_mutation_retraces_before_next_replay(assignment, n_layers, ops, seed):
    model = build_plan_model(assignment=assignment, n_layers=n_layers)
    rng = np.random.default_rng(seed)
    windows = make_windows(model, 2, seed=seed)
    assert np.array_equal(
        model.forecast_batch(windows, engine="plan"),
        model.forecast_batch(windows, engine="eager"),
    )
    for op in ops:
        stale = model.forecast_batch(windows, engine="plan")
        _mutate(model, op, rng)
        eager = model.forecast_batch(windows, engine="eager")
        plan = model.forecast_batch(windows, engine="plan")
        assert np.array_equal(plan, eager), f"stale replay after {op!r}"
        # The mutation must actually change the forward for this check
        # to be meaningful most of the time; when it does, the plan
        # tracked it.
        if not np.array_equal(stale, eager):
            assert not np.array_equal(plan, stale)


def test_set_prototypes_reuses_cached_plan(model_factory=build_plan_model):
    model = model_factory()
    windows = make_windows(model, 1, seed=0)
    model.forecast_batch(windows, engine="plan")
    first = model._last_plan
    model.set_prototypes(np.random.default_rng(5).standard_normal(
        (model.config.num_prototypes, model.config.segment_length)
    ))
    plan = model.forecast_batch(windows, engine="plan")
    assert model._last_plan[1] is first[1]  # no retrace
    assert list(model._plans) == [first[0]]
    assert np.array_equal(plan, model.forecast_batch(windows, engine="eager"))


def test_dtype_switch_retraces():
    model = build_plan_model()
    windows = make_windows(model, 2, seed=1)
    f64 = model.forecast_batch(windows, engine="plan")
    model.to_dtype(np.float32)
    assert not model._plans
    f32 = model.forecast_batch(windows.astype(np.float32), engine="plan")
    eager32 = model.forecast_batch(windows.astype(np.float32), engine="eager")
    finite = np.isfinite(eager32)
    np.testing.assert_allclose(f32[finite], eager32[finite], atol=1e-4, rtol=1e-4)
    assert f64.dtype == f32.dtype == np.float64  # forecast contract


def test_prototype_updates_keep_every_plan():
    model = build_plan_model()
    batches = {batch: make_windows(model, batch, seed=batch) for batch in (1, 2, 4)}
    for windows in batches.values():
        model.forecast_batch(windows, engine="plan")
    plans = dict(model._plans)
    assert len(plans) == 3
    model.update_prototype(0, np.zeros(model.config.segment_length))
    model.set_prototypes(model.prototype_values()[::-1])
    for windows in batches.values():
        eager = model.forecast_batch(windows, engine="eager")
        assert np.array_equal(model.forecast_batch(windows, engine="plan"), eager)
    assert model._plans == plans  # same keys, same plan objects


def test_plan_cache_is_bounded():
    model = build_plan_model()
    for batch in range(1, model.PLAN_CACHE_CAPACITY + 4):
        model.forecast_batch(make_windows(model, batch), engine="plan")
    assert len(model._plans) <= model.PLAN_CACHE_CAPACITY


def test_replay_rejects_signature_mismatch(model):
    model.forecast_batch(make_windows(model, 2), engine="plan")
    plan = model._last_plan[1]
    wrong = make_windows(model, 3)
    with pytest.raises(PlanError, match="retrace"):
        plan.replay(wrong)


def test_data_dependent_leaf_is_rejected():
    """A Tensor born from the input's *values* cannot be baked.

    This is the structural guarantee behind invalidation: anything the
    capture cannot prove input-independent (or compute with traced ops,
    or read as a live leaf) refuses to compile, so a plan can never
    freeze input-derived data.
    """
    from repro.autograd import Tensor

    def sneaky(x):
        frozen = Tensor(np.argsort(x.data, axis=0).astype(float))
        return x + frozen

    with pytest.raises(PlanUnsupportedError, match="leaf Tensor"):
        trace_function(sneaky, np.random.default_rng(0).standard_normal((4, 3)))


def test_live_leaf_is_never_folded():
    """A node computed only from a live leaf replays on every call, so an
    in-place write to the buffer reaches the next replay without a
    retrace; the same leaf as a plain parameter would be folded."""
    from repro import autograd as ag

    bank = np.arange(3.0)
    plan = trace_function(lambda x: x + ag.live(bank) * 2.0, np.zeros(3))
    bank[...] = [5.0, 6.0, 7.0]
    assert np.array_equal(plan.replay(np.ones(3)), 1.0 + bank * 2.0)
