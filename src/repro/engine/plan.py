"""Lower a captured forward graph to a replayable execution plan.

The eager engine pays Python dispatch per op per call: ``Tensor``
wrapping, operand coercion, observer checks, and grad-closure
construction, even under ``no_grad``.  An :class:`ExecutionPlan` strips
all of it away once: a captured forward (see
:mod:`repro.autograd.capture`) is lowered to a flat, topologically
ordered list of ``(kernel, source slots, output slot)`` steps that
replay as plain numpy calls into a preallocated per-thread arena.

The lowering makes three guarantees:

**Bitwise equivalence.**  Every kernel executes the *same* numpy ufuncs
in the *same* order as the eager op it replaces — ``out=`` destinations
and in-place elementwise chaining never change the floating-point
arithmetic, so a float64 replay is bit-identical to the eager forward
(``tests/plan`` pins this, and every compile self-checks against the
traced output before the plan is returned).

**Constant folding with live leaves.**  Any node whose ancestors are
all input-independent leaves is folded to the value captured at trace
time; pure view nodes over parameters (e.g. ``weight.T``) keep
referencing the live arrays.  A *live* leaf
(:func:`repro.autograd.live`) is held by reference but never folded
through: ProtoAttn wraps its prototype bank as one, so the query
projection ``W_E(C)`` and the prototype side of the assignment distance
are recomputed from the bank's current values on every replay, and
:class:`~repro.core.model.FOCUSForecaster` keeps its plans across
``set_prototypes`` / ``update_prototype``.  Mutating other parameters in
place without retracing is **not** supported while a plan is cached;
``to_dtype`` (which replaces every array) evicts the plans.

**Arena reuse.**  Output buffers are assigned by liveness (linear-scan
over the flat op list, views extending their root storage's lifetime),
and elementwise ops whose source storage dies at that step write in
place — fusing elementwise chains into a single buffer.  Arenas are
per-thread (``threading.local``), so one shared plan replays
concurrently from many serving threads without torn buffers; on one
thread, plans share equal-spec buffers through a per-thread pool.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
import weakref
from typing import Callable, Sequence

import numpy as np
from scipy import special as _special

from repro.autograd.capture import CapturedNode, GraphCapture
from repro.autograd.select_ops import FORWARDS
from repro.autograd.tensor import Tensor

_SQRT_2 = float(np.sqrt(2.0))

__all__ = [
    "ExecutionPlan",
    "PlanError",
    "PlanUnsupportedError",
    "PlanStats",
    "compile_plan",
    "trace_function",
]


class PlanError(RuntimeError):
    """A plan could not be compiled or replayed."""


class PlanUnsupportedError(PlanError):
    """The captured graph contains something the plan engine cannot replay."""


# ----------------------------------------------------------------------
# Kernel registry
#
# Kinds:
#   "ew"    elementwise; honors ``out=`` and may alias a dying source
#           buffer (in-place chain fusion) without changing results.
#   "out"   honors ``out=`` but must not alias any source (matmul,
#           reductions, concat).
#   "view"  returns a (possibly lazy-copied) view of its source; no
#           buffer is allocated and the source storage stays live.
#   "fresh" allocates its own result; no buffer is assigned.
#
# Every kernel reproduces the eager op's exact arithmetic: same ufuncs,
# same operand order.  When numpy's operator fast paths could differ
# from an explicit ufunc call (ndarray.__pow__, fancy indexing), the
# kernel evaluates the eager expression verbatim instead of using out=.
# The declared ops of repro.autograd.select_ops need no kernel here:
# their one forward runs as an "out" kernel (see _declared).
# ----------------------------------------------------------------------
_KERNELS: dict[str, tuple[Callable, str]] = {}


def _register(name: str, kind: str):
    def deco(fn):
        _KERNELS[name] = (fn, kind)
        return fn

    return deco


def _unary(name: str, ufunc, kind: str = "ew"):
    def kernel(srcs, out, scratch, extras):
        return ufunc(srcs[0], out=out)

    _KERNELS[name] = (kernel, kind)


def _binary(name: str, ufunc, kind: str = "ew"):
    def kernel(srcs, out, scratch, extras):
        return ufunc(srcs[0], srcs[1], out=out)

    _KERNELS[name] = (kernel, kind)


_binary("add", np.add)
_binary("sub", np.subtract)
_binary("mul", np.multiply)
_binary("div", np.true_divide)
_binary("maximum", np.maximum)
_binary("minimum", np.minimum)
_unary("neg", np.negative)
_unary("exp", np.exp)
_unary("log", np.log)
_unary("sqrt", np.sqrt)
_unary("abs", np.absolute)
_unary("sin", np.sin)
_unary("cos", np.cos)
_unary("tanh", np.tanh)
_unary("sigmoid", _special.expit)
_unary("erf", _special.erf)


@_register("softplus", "ew")
def _k_softplus(srcs, out, scratch, extras):
    return np.logaddexp(0.0, srcs[0], out=out)


class _Scratch(dict):
    """A step's scratch state (one per step per arena).

    ``scratch[name, shape, dtype]`` is the step's temporary of that spec,
    drawn once from the thread's pool (:func:`scratch_buffer`) and kept
    here so it stays pooled.  Declared ops receive it as ``work``.
    """

    def __missing__(self, key):
        buf = self[key] = scratch_buffer(*key)
        return buf


def _declared(forward: Callable) -> Callable:
    """Kernel of a declared op: its forward, writing into the arena
    buffer, with its temporaries from the step's scratch."""

    def kernel(srcs, out, scratch, extras):
        return forward(*srcs, out=out, work=scratch, **extras)

    return kernel


@_register("gelu", "ew")
def _k_gelu(srcs, out, scratch, extras):
    # Eager: cdf = 0.5 * (1.0 + erf(x / sqrt(2))); out = x * cdf
    x = srcs[0]
    t = scratch["t", x.shape, x.dtype]
    np.true_divide(x, _SQRT_2, out=t)
    _special.erf(t, out=t)
    np.add(1.0, t, out=t)
    np.multiply(0.5, t, out=t)
    return np.multiply(x, t, out=out)


@_register("silu", "ew")
def _k_silu(srcs, out, scratch, extras):
    x = srcs[0]
    t = scratch["t", x.shape, x.dtype]
    _special.expit(x, out=t)
    return np.multiply(x, t, out=out)


@_register("softmax", "ew")
def _k_softmax(srcs, out, scratch, extras):
    # Eager: shifted = x - max; exped = exp(shifted); exped / sum(exped).
    # Safe in place: once x is consumed by the subtract, only ``out`` is
    # read, so ``out`` may alias a dying x.
    # ndarray.max/.sum delegate to maximum.reduce/add.reduce
    # (numpy/core/_methods.py umr_maximum/umr_sum): same arithmetic,
    # less dispatch.
    x = srcs[0]
    peak = np.maximum.reduce(x, axis=extras, keepdims=True)
    np.subtract(x, peak, out=out)
    np.exp(out, out=out)
    total = np.add.reduce(out, axis=extras, keepdims=True)
    np.true_divide(out, total, out=out)
    return out


@_register("relu", "fresh")
def _k_relu(srcs, out, scratch, extras):
    x = srcs[0]
    return np.where(x > 0, x, 0.0)


@_register("leaky_relu", "fresh")
def _k_leaky_relu(srcs, out, scratch, extras):
    x = srcs[0]
    slope = np.where(x > 0, 1.0, extras)
    return x * slope


@_register("pow_const", "fresh")
def _k_pow_const(srcs, out, scratch, extras):
    return srcs[0] ** extras


@_register("pow", "fresh")
def _k_pow(srcs, out, scratch, extras):
    return srcs[0] ** srcs[1]


@_register("clip", "fresh")
def _k_clip(srcs, out, scratch, extras):
    return np.clip(srcs[0], extras[0], extras[1])


@_register("matmul", "out")
def _k_matmul(srcs, out, scratch, extras):
    return np.matmul(srcs[0], srcs[1], out=out)


@_register("outer", "fresh")
def _k_outer(srcs, out, scratch, extras):
    return np.outer(srcs[0], srcs[1])


@_register("sum", "out")
def _k_sum(srcs, out, scratch, extras):
    # np.sum delegates straight to add.reduce (numpy/core/_methods.py
    # umr_sum); calling the ufunc method skips the dispatch wrapper.
    return np.add.reduce(srcs[0], axis=extras[0], keepdims=extras[1], out=out)


@_register("mean", "out")
def _k_mean(srcs, out, scratch, extras):
    # np.mean is exactly add.reduce followed by an in-place true_divide
    # by the reduced element count (numpy/core/_methods.py _mean), so
    # this is bitwise identical — except float16, where np.mean upcasts
    # internally and therefore keeps the library path.
    x = srcs[0]
    if x.dtype == np.float16:
        return np.mean(x, axis=extras[0], keepdims=extras[1], out=out)
    count = scratch.get("count")
    if count is None:
        axes = extras[0]
        if axes is None:
            count = x.size
        else:
            count = 1
            for axis in axes if isinstance(axes, tuple) else (axes,):
                count *= x.shape[axis]
        scratch["count"] = count
    np.add.reduce(x, axis=extras[0], keepdims=extras[1], out=out)
    return np.true_divide(out, count, out=out)


@_register("max", "fresh")
def _k_max(srcs, out, scratch, extras):
    return np.max(srcs[0], axis=extras[0], keepdims=extras[1])


@_register("min", "fresh")
def _k_min(srcs, out, scratch, extras):
    return np.min(srcs[0], axis=extras[0], keepdims=extras[1])


@_register("log_softmax", "fresh")
def _k_log_softmax(srcs, out, scratch, extras):
    x = srcs[0]
    shifted = x - x.max(axis=extras, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=extras, keepdims=True))
    return shifted - lse


@_register("logsumexp", "fresh")
def _k_logsumexp(srcs, out, scratch, extras):
    x = srcs[0]
    axis, keepdims = extras
    peak = x.max(axis=axis, keepdims=True)
    out_keep = peak + np.log(np.exp(x - peak).sum(axis=axis, keepdims=True))
    return out_keep if keepdims else np.squeeze(out_keep, axis=axis)


@_register("broadcast_to", "out")
def _k_broadcast_to(srcs, out, scratch, extras):
    np.copyto(out, srcs[0])
    return out


@_register("repeat", "fresh")
def _k_repeat(srcs, out, scratch, extras):
    return np.repeat(srcs[0], extras[0], axis=extras[1])


@_register("concat", "out")
def _k_concat(srcs, out, scratch, extras):
    return np.concatenate(srcs, axis=extras, out=out)


@_register("stack", "out")
def _k_stack(srcs, out, scratch, extras):
    return np.stack(srcs, axis=extras, out=out)


@_register("gather", "fresh")
def _k_gather(srcs, out, scratch, extras):
    return np.take(srcs[0], extras[0], axis=extras[1])


@_register("getitem", "fresh")
def _k_getitem(srcs, out, scratch, extras):
    result = srcs[0][extras]
    if not isinstance(result, np.ndarray):
        return np.asarray(result)
    # Basic slicing yields a view into a reusable arena buffer; detach it.
    return result.copy() if result.base is not None else result


# Pure view kernels: ``extras`` is rewritten at compile time to the
# recorded output shape where the original op argument is not enough.
@_register("reshape", "view")
def _k_reshape(srcs, out, scratch, extras):
    return srcs[0].reshape(extras)


_KERNELS["squeeze"] = (_k_reshape, "view")
_KERNELS["unsqueeze"] = (_k_reshape, "view")


@_register("transpose", "view")
def _k_transpose(srcs, out, scratch, extras):
    return srcs[0].transpose(extras)


@_register("swapaxes", "view")
def _k_swapaxes(srcs, out, scratch, extras):
    return srcs[0].swapaxes(extras[0], extras[1])


_RESHAPE_LIKE = ("reshape", "squeeze", "unsqueeze")


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class PlanStats:
    """Compile-time facts about a plan (for benches and tests)."""

    num_captured: int  # ops recorded during the trace
    num_ops: int  # dynamic steps that replay per call
    num_folded: int  # captured ops folded to constants
    num_merged: int  # dynamic ops merged into an equal earlier one
    num_buffers: int  # arena buffers allocated per thread
    arena_bytes: int  # bytes per per-thread arena


# A thread runs one replay at a time and arena buffers are only live
# during a replay, so every plan on a thread — of any model — draws
# equal-spec buffers from one pool.  Values are weak: a buffer lives as
# long as some arena holds it, and a model awaiting garbage collection
# keeps no buffer memory of its own.
_BUFFER_POOL = threading.local()


def _pooled(key, shape, dtype) -> np.ndarray:
    pool = getattr(_BUFFER_POOL, "buffers", None)
    if pool is None:
        pool = _BUFFER_POOL.buffers = weakref.WeakValueDictionary()
    buffer = pool.get(key)
    if buffer is None:
        buffer = pool[key] = np.empty(shape, dtype)
    return buffer


def _pooled_buffers(specs) -> list[np.ndarray]:
    taken: collections.Counter = collections.Counter()
    buffers = []
    for shape, dtype in specs:
        spec = (shape, dtype.str)
        # The n-th buffer of this spec in a plan.
        buffers.append(_pooled((*spec, taken[spec]), shape, dtype))
        taken[spec] += 1
    return buffers


def scratch_buffer(name: str, shape, dtype) -> np.ndarray:
    """A kernel temporary, shared through this thread's pool by every
    step of every plan that asks for the same ``name``, size and dtype.

    Only valid within the calling kernel's own step: steps run one at a
    time on a thread, but the next step asking for the key overwrites
    it.  Keep a reference (e.g. in the step's scratch dict) so the
    buffer stays pooled.
    """
    dtype = np.dtype(dtype)
    size = int(np.prod(shape, dtype=np.int64))
    flat = _pooled(("scratch", name, size, dtype.str), (size,), dtype)
    return flat.reshape(shape)


class ExecutionPlan:
    """A compiled forward: flat kernel steps over a per-thread arena.

    ``replay`` returns an array owned by the calling thread's arena
    buffers, which every plan on that thread shares; it is only valid
    until that thread's next ``replay`` of any plan.  Callers that keep
    the result (e.g. ``forecast_batch``) copy it out first.
    """

    def __init__(
        self,
        ops: list[tuple],
        template_values: list,
        buffer_specs: list[tuple[tuple[int, ...], np.dtype]],
        input_slots: list[int],
        input_specs: list[tuple[tuple[int, ...], np.dtype]],
        output_slot: int,
        stats: PlanStats,
    ):
        self._ops = ops
        self._template = template_values
        self._buffer_specs = buffer_specs
        self._input_slots = input_slots
        self._input_specs = input_specs
        self._output_slot = output_slot
        self.stats = stats
        self._tls = threading.local()

    # -- replay ---------------------------------------------------------
    def _new_arena(self):
        """Per-thread state: value slots plus fully-resolved step tuples.

        Buffers and scratch dicts are bound into the step tuples once,
        so the replay loop does no per-step buffer indexing.  A source
        is *stable* when it is the same ndarray object on every replay
        (an arena buffer, a baked constant or a live leaf; ``ew``/``out``
        kernels always return their ``out`` buffer).  View steps over a
        stable source are executed once here and dropped from the replay
        loop entirely: a view of a fixed array is itself a fixed array,
        only its contents change.  A reshape that silently copies is
        detected (``shares_memory``) and kept as a live step so stale
        contents are never frozen.  A step whose sources are all stable
        gets its argument list built once, here, instead of per replay.
        """
        values = list(self._template)
        buffers = _pooled_buffers(self._buffer_specs)
        input_slots = set(self._input_slots)
        stable = {
            slot: value
            for slot, value in enumerate(values)
            if value is not None and slot not in input_slots
        }
        steps = []
        for kernel, srcs, out_slot, buf, extras, kind in self._ops:
            if kind == "view" and len(srcs) == 1 and srcs[0] in stable:
                source = stable[srcs[0]]
                view = kernel((source,), None, {}, extras)
                if np.shares_memory(view, source):
                    values[out_slot] = view
                    stable[out_slot] = view
                    continue
            out_buf = None if buf is None else buffers[buf]
            args = [stable[j] for j in srcs] if all(j in stable for j in srcs) else None
            steps.append((kernel, args, srcs, out_slot, out_buf, _Scratch(), extras))
            if out_buf is not None:
                stable[out_slot] = out_buf
        # Slots a replay fills with arrays of its own (the inputs, fresh
        # results and views of them), cleared after each replay so they
        # do not hold memory until the next one.
        transient = self._input_slots + [step[3] for step in steps if step[4] is None]
        transient = tuple(slot for slot in transient if slot != self._output_slot)
        return (values, tuple(steps), transient)

    def check(self, arrays: Sequence[np.ndarray], expected: np.ndarray) -> None:
        """Replay ``arrays`` and require ``expected`` bit-for-bit (NaN-aware)."""
        if not np.array_equal(self.replay(*arrays), expected, equal_nan=True):
            raise PlanError(
                "compiled plan does not reproduce the traced forward "
                "bit-for-bit; a replay kernel diverged from its eager op"
            )

    def replay(self, *arrays: np.ndarray) -> np.ndarray:
        """Execute the plan on ``arrays`` (one per traced input)."""
        if len(arrays) != len(self._input_slots):
            raise PlanError(
                f"plan expects {len(self._input_slots)} inputs, got {len(arrays)}"
            )
        for array, (shape, dtype) in zip(arrays, self._input_specs):
            if array.shape != shape or array.dtype != dtype:
                raise PlanError(
                    f"plan was traced for input {shape}/{dtype}, "
                    f"got {array.shape}/{array.dtype}; retrace for new signatures"
                )
        arena = getattr(self._tls, "arena", None)
        if arena is None:
            arena = self._tls.arena = self._new_arena()
        values, steps, transient = arena
        for slot, array in zip(self._input_slots, arrays):
            values[slot] = array
        for kernel, args, srcs, out_slot, out_buf, scratch, extras in steps:
            values[out_slot] = kernel(
                args or [values[j] for j in srcs], out_buf, scratch, extras
            )
        result = values[self._output_slot]
        for slot in transient:
            values[slot] = None
        return result


def _node_kind(node: CapturedNode) -> tuple[Callable, str]:
    entry = _KERNELS.get(node.op_name)
    if entry is not None:
        return entry
    forward = FORWARDS.get(node.op_name)
    if forward is None:
        raise PlanUnsupportedError(
            f"op {node.op_name!r} has no replay kernel; the plan engine "
            f"cannot lower this forward"
        )
    return _declared(forward), "out"


def _frozen(value):
    """A hashable stand-in for op ``extras`` that is equal only for equal
    values of equal types (``-0.0`` is not ``0.0``), or None when the
    value has none (arrays, unknown objects): such ops are never merged."""
    if value is None or isinstance(value, (bool, int, float, str, np.generic)):
        return (type(value), repr(value))
    if isinstance(value, (np.dtype, type)):
        return (type(value), value)
    if isinstance(value, slice):
        parts = _frozen((value.start, value.stop, value.step))
    elif isinstance(value, dict):
        parts = _frozen((tuple(value), tuple(value.values())))
    elif isinstance(value, (tuple, list)):
        parts = tuple(_frozen(item) for item in value)
        parts = None if None in parts else parts
    else:
        return None
    return None if parts is None else (type(value), parts)


def _merge_common(
    dyn_nodes: list[CapturedNode], slot_of: dict[int, int]
) -> tuple[list[CapturedNode], dict[int, int]]:
    """Common-subexpression elimination over the dynamic steps.

    A node with the same op, the same (already merged) parents, equal
    extras and the same output spec as an earlier node computes the same
    array, so it is dropped and its consumers read the earlier node's
    slot.  Parents compare by identity: nodes reading different inputs,
    leaves or live leaves never merge.  Returns the kept nodes and the
    map from each merged tensor id to the id it merged into.
    """
    merged: dict[int, int] = {}
    seen: dict[tuple, int] = {}
    kept = []
    for node in dyn_nodes:
        tid = id(node.tensor)
        extras = _frozen(node.extras)
        if extras is not None:
            data = node.tensor.data
            key = (
                node.op_name,
                tuple(merged.get(id(p), id(p)) for p in node.parents),
                extras,
                data.shape,
                data.dtype.str,
            )
            first = seen.setdefault(key, tid)
            if first != tid:
                merged[tid] = first
                slot_of[tid] = slot_of[first]
                continue
        kept.append(node)
    return kept, merged


def compile_plan(
    capture: GraphCapture,
    inputs: Sequence[Tensor],
    output: Tensor,
    self_check: bool = True,
) -> ExecutionPlan:
    """Lower a capture to an :class:`ExecutionPlan` for ``output``.

    ``inputs`` are the traced input tensors (previously passed to
    :meth:`GraphCapture.mark_input`); replay substitutes fresh arrays of
    the same shape and dtype for them.  With ``self_check`` (default)
    the freshly compiled plan is replayed once on the traced input and
    must reproduce the captured output bit-for-bit.
    """
    for tensor in inputs:
        if id(tensor) not in capture.input_ids:
            raise PlanError("inputs must be marked via GraphCapture.mark_input")
    nodes = capture.nodes

    # Reachable subgraph of the output.
    needed: set[int] = set()
    stack: list[Tensor] = [output]
    while stack:
        tensor = stack.pop()
        if id(tensor) in needed:
            continue
        needed.add(id(tensor))
        node = nodes.get(id(tensor))
        if node is not None:
            stack.extend(node.parents)
    ordered = [n for n in capture.order if id(n.tensor) in needed]

    # Reject data-dependent leaves: a Tensor born mid-capture from raw
    # numpy data (not blessed, not live, not the input) may encode the
    # traced input's values, which a replay would silently freeze.
    for node in ordered:
        for parent in node.parents:
            pid = id(parent)
            if pid in nodes or pid in capture.input_ids or pid in capture.live_ids:
                continue
            if pid in capture.births and pid not in capture.blessed:
                raise PlanUnsupportedError(
                    f"op {node.op_name!r} consumes a leaf Tensor of shape "
                    f"{parent.shape} created during capture; its value may "
                    f"depend on the traced input and cannot be baked into a "
                    f"plan (compute it with traced ops, or bless it)"
                )

    # Dynamic = transitively reachable from an input or a live leaf.
    dynamic: set[int] = {tid for tid in capture.input_ids if tid in needed}
    if not dynamic:
        raise PlanError("traced output does not depend on any traced input")
    dynamic |= capture.live_ids & needed
    for node in ordered:
        if any(id(p) in dynamic for p in node.parents):
            dynamic.add(id(node.tensor))
    if id(output) not in dynamic:
        raise PlanError("traced output does not depend on any traced input")

    # Value slots: constants (leaves and folded static nodes) are baked
    # into the template; dynamic nodes and inputs get empty slots.
    template: list = []
    slot_of: dict[int, int] = {}

    def add_slot(value) -> int:
        template.append(value)
        return len(template) - 1

    num_folded = 0
    dyn_nodes: list[CapturedNode] = []
    for node in ordered:
        for parent in node.parents:
            pid = id(parent)
            if pid not in slot_of and pid not in nodes:
                # Leaf: parameter/buffer/scalar (by reference), or a
                # traced input (placeholder filled per replay).
                slot_of[pid] = add_slot(
                    None if pid in capture.input_ids else parent.data
                )
        tid = id(node.tensor)
        if tid in dynamic:
            slot_of[tid] = add_slot(None)
            dyn_nodes.append(node)
        else:
            slot_of[tid] = add_slot(node.tensor.data)
            num_folded += 1
    for tensor in inputs:
        if id(tensor) not in slot_of:
            slot_of[id(tensor)] = add_slot(None)

    dyn_nodes, merged = _merge_common(dyn_nodes, slot_of)

    def ref(tensor: Tensor) -> int:
        """The id of the tensor whose step computes ``tensor``."""
        return merged.get(id(tensor), id(tensor))

    # Storage roots: a view shares (and extends the life of) its source's
    # buffer; everything else roots itself.
    kinds = {id(n.tensor): _node_kind(n) for n in dyn_nodes}
    root: dict[int, int] = {id(t): id(t) for t in inputs}
    for node in dyn_nodes:
        tid = id(node.tensor)
        _, kind = kinds[tid]
        pid = ref(node.parents[0]) if node.parents else None
        if kind == "view" and pid in root:
            root[tid] = root[pid]
        else:
            root[tid] = tid

    # Last use per root, in dynamic-step order; the output's root is
    # pinned so its buffer survives past the loop.
    last_use: dict[int, int] = {}
    for step, node in enumerate(dyn_nodes):
        for parent in node.parents:
            pid = ref(parent)
            if pid in root:
                last_use[root[pid]] = step
    last_use[root[ref(output)]] = len(dyn_nodes)

    # Buffer assignment: linear scan with shape/dtype free lists;
    # elementwise steps may steal the buffer of a source dying at that
    # step (in-place chain fusion).  Non-aliasable steps allocate first
    # and release after, so a fresh buffer never aliases a source.
    buffer_specs: list[tuple[tuple[int, ...], np.dtype]] = []
    free: dict[tuple, list[int]] = {}
    buf_of_root: dict[int, int | None] = {id(t): None for t in inputs}
    ops: list[tuple] = []
    for step, node in enumerate(dyn_nodes):
        tid = id(node.tensor)
        kernel, kind = kinds[tid]
        out_data = node.tensor.data
        spec = (out_data.shape, out_data.dtype)
        dying: set[int] = set()
        for parent in node.parents:
            pid = ref(parent)
            if pid in root and last_use.get(root[pid]) == step:
                dying.add(root[pid])
        buf: int | None = None
        if kind == "ew":
            for parent in node.parents:
                pid = ref(parent)
                if (
                    pid in dying
                    and root.get(pid) == pid
                    and pid != tid
                    and buf_of_root.get(pid) is not None
                    and parent.data.shape == spec[0]
                    and parent.data.dtype == spec[1]
                ):
                    buf = buf_of_root[pid]
                    dying.discard(pid)  # storage transfers to this node
                    break
        if buf is None and kind in ("ew", "out"):
            stash = free.get(spec)
            if stash:
                buf = stash.pop()
            else:
                buffer_specs.append(spec)
                buf = len(buffer_specs) - 1
        if kind in ("ew", "out"):
            buf_of_root[tid] = buf
        elif kind == "view":
            buf_of_root.setdefault(root[tid], None)
        else:
            buf_of_root[tid] = None
        for rid in dying:
            released = buf_of_root.get(rid)
            if released is not None:
                free.setdefault(buffer_specs[released], []).append(released)
                buf_of_root[rid] = None

        extras = node.extras
        if node.op_name in _RESHAPE_LIKE:
            extras = out_data.shape
        srcs = tuple(slot_of[id(p)] for p in node.parents)
        ops.append((kernel, srcs, slot_of[tid], buf, extras, kind))

    input_slots = [slot_of[id(t)] for t in inputs]
    input_specs = [(t.data.shape, t.data.dtype) for t in inputs]
    arena_bytes = sum(
        int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        for shape, dtype in buffer_specs
    )
    stats = PlanStats(
        num_captured=len(ordered),
        num_ops=len(ops),
        num_folded=num_folded,
        num_merged=len(merged),
        num_buffers=len(buffer_specs),
        arena_bytes=arena_bytes,
    )
    plan = ExecutionPlan(
        ops,
        template,
        buffer_specs,
        input_slots,
        input_specs,
        slot_of[id(output)],
        stats,
    )

    if self_check:
        plan.check([t.data for t in inputs], output.data)
    return plan


def trace_function(fn: Callable, *arrays: np.ndarray, self_check: bool = True):
    """Capture ``fn(*tensors)`` once and compile it; returns the plan.

    Convenience entry point for the plan unit tests and for compiling
    arbitrary Tensor-level functions; model code uses
    :func:`repro.autograd.capture_graph` directly.
    """
    from repro.autograd import capture_graph, no_grad

    with no_grad(), capture_graph() as capture:
        tensors = [Tensor._wrap(np.asarray(a)) for a in arrays]
        for t in tensors:
            capture.mark_input(t)
        output = fn(*tensors)
    if not isinstance(output, Tensor):
        raise PlanError("traced function must return a single Tensor")
    return compile_plan(capture, tensors, output, self_check=self_check)
