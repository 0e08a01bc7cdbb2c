"""Differential fuzz: the plan engine ≡ the eager forward.

The tentpole claim of ``repro.engine``: for any model configuration and
any input, ``forecast_batch(w, engine="plan")`` returns **bit-identical
float64 bytes** to ``engine="eager"`` — the compiled plan replays the
same numpy ufuncs in the same order, so there is no tolerance to tune.
Float32 is held to 1e-4 (BLAS accumulation order may differ across
out=/temporary code paths at single precision).

Three layers of fuzz:

- hypothesis-drawn ``(B, l, N, k, p, horizon)`` model configurations
  with fresh seeded weights per draw (derandomized so CI is stable);
- ragged serving batch sizes {1, 3, max_batch, 4*max_batch} against one
  shared model, exercising the per-shape plan cache;
- hypothesis-drawn *tensor programs* through
  :func:`repro.engine.trace_function`, reaching every declared op the
  plan lowers (elementwise chains, reductions with axis/keepdims,
  views, indexing, concat/stack/split/pad, softmax/logsumexp, conv1d)
  independently of the model.

NaN-poisoned rows ride through every layer: a NaN window must produce
the same NaN pattern from both engines (serving's NaN-policy fallback
sits *above* ``forecast_batch`` and sees identical inputs either way).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import autograd as ag
from repro.engine import trace_function
from repro.nn.conv import conv1d
from repro.serving import ServingConfig

from .conftest import build_plan_model, make_windows

pytestmark = pytest.mark.plan

BATCH_K = ServingConfig().max_batch


def assert_engines_agree(model, windows, exact=True, tol=1e-4):
    eager = model.forecast_batch(windows, engine="eager")
    plan = model.forecast_batch(windows, engine="plan")
    assert eager.shape == plan.shape
    if exact:
        assert np.array_equal(eager, plan, equal_nan=True), (
            "plan diverged from eager (float64 must be bit-identical)"
        )
    else:
        finite = np.isfinite(eager)
        assert np.array_equal(finite, np.isfinite(plan))
        np.testing.assert_allclose(plan[finite], eager[finite], atol=tol, rtol=tol)


# ----------------------------------------------------------------------
# Model-level fuzz
# ----------------------------------------------------------------------
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    batch=st.integers(min_value=1, max_value=4),
    n_segments=st.integers(min_value=2, max_value=4),
    segment_length=st.sampled_from([4, 6, 8]),
    num_entities=st.integers(min_value=1, max_value=4),
    num_prototypes=st.integers(min_value=2, max_value=5),
    horizon=st.sampled_from([4, 12]),
    n_layers=st.integers(min_value=1, max_value=2),
    assignment=st.sampled_from(["hard", "soft"]),
    nan_row=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_fuzz_configs_bitwise_float64(
    batch, n_segments, segment_length, num_entities, num_prototypes,
    horizon, n_layers, assignment, nan_row, seed,
):
    model = build_plan_model(
        lookback=n_segments * segment_length,
        num_entities=num_entities,
        segment_length=segment_length,
        num_prototypes=num_prototypes,
        d_model=8,
        horizon=horizon,
        n_layers=n_layers,
        assignment=assignment,
        seed=seed,
    )
    nan_rows = (0,) if nan_row else ()
    windows = make_windows(model, batch, seed=seed, nan_rows=nan_rows)
    assert_engines_agree(model, windows)
    # A second, fresh batch replays the cached plan (no retrace).
    assert_engines_agree(model, make_windows(model, batch, seed=seed + 1))


@pytest.mark.parametrize("batch", [1, 3, BATCH_K, 4 * BATCH_K])
def test_ragged_batch_sizes_bitwise(model, batch):
    """Every serving batch size replays bit-identically (per-shape plans)."""
    assert_engines_agree(model, make_windows(model, batch, seed=batch))


def test_nan_rows_fall_through_identically(model):
    """NaN-poisoned rows yield the same NaN pattern from both engines."""
    windows = make_windows(model, 6, seed=9, nan_rows=(0, 3))
    eager = model.forecast_batch(windows, engine="eager")
    plan = model.forecast_batch(windows, engine="plan")
    assert np.array_equal(eager, plan, equal_nan=True)
    # The poisoned rows actually went non-finite — the fallback rows the
    # serving NaN policy would route around — and the clean rows did not.
    finite_rows = np.isfinite(plan).all(axis=(1, 2))
    assert not finite_rows[0] and not finite_rows[3]
    assert finite_rows[[1, 2, 4, 5]].all()


def test_float32_within_1e4(model_f32):
    windows = make_windows(model_f32, 5, seed=3).astype(np.float32)
    assert_engines_agree(model_f32, windows, exact=False)


def test_integer_windows_coerced_like_eager(model):
    windows = np.ones((2, model.config.lookback, model.config.num_entities), dtype=np.int64)
    assert_engines_agree(model, windows)


def test_unknown_engine_rejected(model):
    with pytest.raises(ValueError, match="unknown engine"):
        model.forecast_batch(make_windows(model, 1), engine="turbo")


def test_soft_assignment_and_deep_layers_bitwise():
    model = build_plan_model(assignment="soft", n_layers=2)
    assert_engines_agree(model, make_windows(model, 3, seed=21))


# ----------------------------------------------------------------------
# Op-level fuzz via trace_function
# ----------------------------------------------------------------------
def _programs():
    """Tensor programs that reach every op the plan lowers."""
    kernel = ag.Tensor(np.linspace(-1.0, 1.0, 6).reshape(3, 1, 2))
    return {
        "elementwise_chain": lambda x, y: ag.tanh(x * 2.0 + y) / (ag.abs(y) + 1.5),
        "activations": lambda x, y: ag.gelu(x) + ag.silu(y) + ag.softplus(x - y),
        "reductions": lambda x, y: (x * y).sum(axis=1, keepdims=True)
        + x.mean(axis=0) + y.max(axis=1, keepdims=True),
        "softmaxes": lambda x, y: ag.softmax(x, axis=-1)
        + ag.exp(ag.log_softmax(y, axis=0)),
        "views_concat": lambda x, y: ag.concat(
            [x.transpose(), y.transpose()], axis=0
        ).reshape(-1, x.shape[0]).sum(axis=0),
        "matmul_mix": lambda x, y: ag.matmul(x, y.transpose()) + (x * x).sum(),
        "variance": lambda x, y: ((x - x.mean(axis=1, keepdims=True)) ** 2).mean(axis=1)
        + ag.sqrt(ag.maximum(y, 0.0)).sum(axis=1),
        "rectifiers": lambda x, y: ag.relu(x - y) + ag.leaky_relu(y, 0.2)
        + ag.clip(x, -0.5, 0.7),
        "tensor_power": lambda x, y: ag.abs(x) ** y,
        "outer": lambda x, y: ag.outer(x.flatten(), y.sum(axis=0)),
        "minima": lambda x, y: ag.min(x, axis=0) + ag.minimum(x, y).sum(axis=0)
        + ag.logsumexp(y, axis=0),
        "logsumexp_keepdims": lambda x, y: ag.logsumexp(x * y, axis=1, keepdims=True) - x,
        "repeat_stack": lambda x, y: ag.stack(
            [ag.repeat(x, 2, axis=1), ag.repeat(y, 2, axis=1)], axis=-1
        ).sum(axis=-1),
        "gather": lambda x, y: ag.gather(x, [0, -1, 0], axis=0).sum(axis=0)
        * ag.gather(y, [-1], axis=1).sum(axis=0),
        "getitem_basic": lambda x, y: x[:, ::2] + y[-1, ::2] + x[0, 0],
        "getitem_fancy": lambda x, y: x[[0, -1, 0]] * y[np.array([-1, 0, 0])],
        "broadcast_to": lambda x, y: ag.broadcast_to(x, (2,) + x.shape) + y,
        "squeeze_unsqueeze": lambda x, y: ag.unsqueeze(x, -1) * ag.unsqueeze(y, 1)
        + x.unsqueeze(0).squeeze(0).unsqueeze(-1),
        "swapaxes": lambda x, y: ag.matmul(x.swapaxes(0, 1), y),
        "trigonometry": lambda x, y: ag.sin(x) * ag.cos(y) + ag.log(ag.abs(y) + 1.0),
        "sigmoid_erf_neg": lambda x, y: -ag.sigmoid(x) + ag.erf(-y),
        "where": lambda x, y: ag.where(ag.relu(x - y), x, y * 2.0),
        "split": lambda x, y: ag.split(ag.concat([x, y], axis=1), 2, axis=1)[0]
        / (ag.split(ag.concat([y, x], axis=0), 2, axis=0)[1] + 3.0),
        "pad": lambda x, y: ag.pad(x, ((1, 0), (0, 2))) + ag.pad(y, 1).sum(),
        "conv1d": lambda x, y: conv1d(x.reshape(1, 1, -1), kernel, padding=1) + y.sum(),
    }


def _every_program(test):
    """An explicit, NaN-poisoned example of each program, on top of the
    drawn ones, so every lowered op replays at least once."""
    for name in sorted(_programs()):
        test = example(name=name, rows=3, cols=4, seed=5, poison=True)(test)
    return test


@_every_program
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(_programs())),
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
    poison=st.booleans(),
)
def test_fuzz_traced_programs_bitwise(name, rows, cols, seed, poison):
    fn = _programs()[name]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols))
    y = rng.standard_normal((rows, cols))
    if poison:
        x[0, 0] = np.nan
    with ag.no_grad():
        from repro.autograd import Tensor

        expected = fn(Tensor(x), Tensor(y)).data
    # compile_plan self-checks the traced input; replay a *fresh* input
    # to prove the plan generalizes, then the traced one for bitwise.
    plan = trace_function(fn, x, y)
    assert np.array_equal(plan.replay(x, y), expected, equal_nan=True)
    x2 = rng.standard_normal((rows, cols))
    y2 = rng.standard_normal((rows, cols))
    with ag.no_grad():
        from repro.autograd import Tensor

        expected2 = fn(Tensor(x2), Tensor(y2)).data
    assert np.array_equal(plan.replay(x2, y2), expected2, equal_nan=True)


def test_constant_folding_reports_folded_ops():
    """Input-independent subgraphs fold (the model's weight transposes);
    the prototype query projections replay live instead."""
    model = build_plan_model()
    model.forecast_batch(make_windows(model, 1), engine="plan")
    stats = model.plan_stats()
    assert stats is not None
    assert stats.num_folded > 0
    assert stats.num_ops < stats.num_captured
    assert stats.arena_bytes > 0
