"""Fused execution-plan inference engine.

Lowers one captured FOCUS forward to a flat numpy replay with no Tensor
wrappers, no grad bookkeeping, constant-folded input-independent
subgraphs, and liveness-assigned arena buffers.  The eager autograd
forward stays the reference implementation; plans are proven
bit-identical to it (in float64) by the ``tests/plan`` differential
suite and by a mandatory compile-time self-check.

Entry points: :meth:`repro.core.model.FOCUSForecaster.forecast_batch`
with ``engine="plan"``, which the serving stack (``ServingConfig``,
``FleetConfig``, ``repro serve``) uses by default.  It replays large
batches as two row halves on two threads (:mod:`repro.engine.lanes`).
"""

from repro.engine.plan import (
    ExecutionPlan,
    PlanError,
    PlanStats,
    PlanUnsupportedError,
    compile_plan,
    trace_function,
)

__all__ = [
    "ExecutionPlan",
    "PlanError",
    "PlanStats",
    "PlanUnsupportedError",
    "compile_plan",
    "trace_function",
]
