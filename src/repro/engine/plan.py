"""Lower a captured forward graph to a replayable execution plan.

The eager engine pays Python dispatch per op per call: ``Tensor``
wrapping, operand coercion, observer checks, and grad-closure
construction, even under ``no_grad``.  An :class:`ExecutionPlan` strips
all of it away once: a captured forward (see
:mod:`repro.autograd.capture`) is lowered to a flat, topologically
ordered list of ``(forward, source slots, output slot)`` steps that
replay as plain numpy calls into a preallocated per-thread arena; each
arena runs its steps as one generated straight-line function.

The lowering makes three guarantees:

**Bitwise equivalence.**  Every op is declared once
(:func:`repro.autograd.select_ops.declare`), and a step runs the op's
one forward from :data:`~repro.autograd.select_ops.FORWARDS`, the
function eager runs, into an arena buffer laid out in memory like the
eager output.  ``out=`` destinations and in-place elementwise chaining
never change the floating-point arithmetic, so a float64 replay is
bit-identical to the eager forward (``tests/plan`` pins this, and every
compile self-checks against the traced output before the plan is
returned).

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
place — fusing elementwise chains into a single buffer.  Each op's
declared kind says which of these its output may do.  Arenas are
per-thread (``threading.local``), so one shared plan replays
concurrently from many serving threads without torn buffers; on one
thread, plans share equal-spec buffers through a per-thread pool.  A
thread that hands part of a batch to a helper thread
(:mod:`repro.engine.lanes`) gives it an arena of its own second *lane*,
built on the calling thread (:meth:`ExecutionPlan.arena`), so the
helper writes into memory the caller allocated instead of growing a
heap of its own.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
import weakref
from typing import Callable, Sequence

import numpy as np

from repro.autograd.capture import CapturedNode, GraphCapture
from repro.autograd.select_ops import FORWARDS
from repro.autograd.tensor import Tensor

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


class _Scratch(dict):
    """A step's scratch state (one per step per arena).

    ``scratch[name, shape, dtype]`` is the step's temporary of that spec,
    drawn once from the thread's pool for the arena's lane
    (:func:`scratch_buffer`) and kept here so it stays pooled.  Declared
    ops receive it as ``work``.
    """

    def __init__(self, lane: int):
        super().__init__()
        self.lane = lane

    def __missing__(self, key):
        buf = self[key] = scratch_buffer(*key, lane=self.lane)
        return buf


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
    num_in_place: int  # steps that write over a source dying at that step


# A thread runs one replay per lane at a time and arena buffers are only
# live during a replay, so every plan on a thread — of any model — draws
# equal-spec buffers of one lane from one pool.  Values are weak: a
# buffer lives as long as some arena holds it, and a model awaiting
# garbage collection keeps no buffer memory of its own.
_BUFFER_POOL = threading.local()


def _pooled(key, shape, dtype) -> np.ndarray:
    pool = getattr(_BUFFER_POOL, "buffers", None)
    if pool is None:
        pool = _BUFFER_POOL.buffers = weakref.WeakValueDictionary()
    buffer = pool.get(key)
    if buffer is None:
        buffer = pool[key] = np.empty(shape, dtype)
    return buffer


def _spec(array: np.ndarray) -> tuple:
    """``(shape, dtype, layout)`` of an op output.  ``layout`` is the
    order of its axes in memory, outermost first, or None when it is
    C-contiguous: the arena buffer takes the eager output's layout, so
    that a reduction or a matmul that reads it runs in the same order."""
    layout = None
    if not array.flags.c_contiguous:
        layout = tuple(sorted(range(array.ndim), key=lambda axis: -array.strides[axis]))
    return array.shape, array.dtype, layout


def _pooled_buffers(specs, lane: int) -> list[np.ndarray]:
    taken: collections.Counter = collections.Counter()
    buffers = []
    for shape, dtype, layout in specs:
        spec = (shape, dtype.str, layout)
        # The n-th buffer of this spec in a plan.
        if layout is None:
            buffers.append(_pooled((lane, *spec, taken[spec]), shape, dtype))
        else:
            memory = [shape[axis] for axis in layout]
            buffer = _pooled((lane, *spec, taken[spec]), memory, dtype)
            buffers.append(buffer.transpose(np.argsort(layout)))
        taken[spec] += 1
    return buffers


def scratch_buffer(name: str, shape, dtype, lane: int = 0) -> np.ndarray:
    """A forward's temporary, shared through this thread's pool by every
    step of every plan of ``lane`` that asks for the same ``name``, size
    and dtype.

    Only valid within the calling step: steps run one at a
    time on a lane, but the next step asking for the key overwrites
    it.  Keep a reference (e.g. in the step's scratch dict) so the
    buffer stays pooled.
    """
    dtype = np.dtype(dtype)
    size = int(np.prod(shape, dtype=np.int64))
    flat = _pooled(("scratch", lane, name, size, dtype.str), (size,), dtype)
    return flat.reshape(shape)


class ExecutionPlan:
    """A compiled forward: flat steps over a per-thread arena.

    ``replay`` returns an array owned by the arena's buffers, which
    every plan of that thread and lane shares; it is only valid until
    the next replay in that thread's lane, of any plan.  Callers that
    keep the result (e.g. ``forecast_batch``) copy it out first.
    """

    def __init__(
        self,
        ops: list[tuple],
        template_values: list,
        buffer_specs: list[tuple],
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
    def _new_arena(self, lane: int) -> Callable:
        """Per-thread, per-lane state: the plan's steps as one replay
        function over this lane's buffers (see :func:`_emit_replay`).

        A source is *stable* when it is the same ndarray object on every
        replay (an arena buffer, a baked constant or a live leaf; ``ew``/
        ``out`` forwards always return their ``out`` buffer).  View steps
        over a stable source are executed once here and dropped from the
        replay entirely: a view of a fixed array is itself a fixed array,
        only its contents change.  A view op whose result is a copy (a
        reshape that silently copies, a fancy index) is detected
        (``shares_memory``) and kept as a live step so stale contents are
        never frozen.
        """
        buffers = _pooled_buffers(self._buffer_specs, lane)
        input_slots = set(self._input_slots)
        stable = {
            slot: value
            for slot, value in enumerate(self._template)
            if value is not None and slot not in input_slots
        }
        steps = []
        for forward, srcs, out_slot, buf, extras, kind in self._ops:
            if kind == "view" and len(srcs) == 1 and srcs[0] in stable:
                source = stable[srcs[0]]
                view = forward(source, **extras)
                if np.shares_memory(view, source):
                    stable[out_slot] = view
                    continue
            out_buf = None if buf is None else buffers[buf]
            steps.append((forward, srcs, out_slot, out_buf, extras, _Scratch(lane)))
            if out_buf is not None:
                stable[out_slot] = out_buf
        return _emit_replay(steps, stable, self._input_slots, self._output_slot)

    def check(self, arrays: Sequence[np.ndarray], expected: np.ndarray) -> None:
        """Replay ``arrays`` and require ``expected`` bit-for-bit (NaN-aware)."""
        if not np.array_equal(self.replay(*arrays), expected, equal_nan=True):
            raise PlanError(
                "compiled plan does not reproduce the traced forward "
                "bit-for-bit; a replayed op diverged from its eager run"
            )

    def arena(self, lane: int = 0):
        """The calling thread's arena for ``lane``, built on first use.

        A thread replays in its lane-0 arena by default.  A caller that
        splits a batch across two threads fetches a lane-1 arena here,
        on its own thread, and passes it to the replay the other thread
        runs: its buffers come from the caller's pool and heap, and no
        other caller ever replays in it.  A new arena past lane 0 is
        replayed once here, on zeros, so that every forward's temporary is
        drawn now, on this thread, and not on the thread that replays it.
        """
        tls = self._tls
        if not lane:
            arena = getattr(tls, "arena", None)
            if arena is None:
                arena = tls.arena = self._new_arena(0)
            return arena
        lanes = getattr(tls, "lanes", None)
        if lanes is None:
            lanes = tls.lanes = {}
        arena = lanes.get(lane)
        if arena is None:
            arena = lanes[lane] = self._new_arena(lane)
            zeros = [np.zeros(shape, dtype) for shape, dtype in self._input_specs]
            with np.errstate(all="ignore"):
                self.replay(*zeros, arena=arena)
        return arena

    def replay(self, *arrays: np.ndarray, arena=None) -> np.ndarray:
        """Execute the plan on ``arrays`` (one per traced input), in
        ``arena`` (from :meth:`arena`; default: this thread's lane 0)."""
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
        if arena is None:
            arena = self.arena()
        return arena(*arrays)


def _emit_replay(
    steps: list[tuple], stable: dict, input_slots: list[int], output_slot: int
) -> Callable:
    """``steps`` as one straight-line Python function of the inputs.

    Each step becomes one call, so a replay runs no loop and unpacks no
    step tuples: a stable slot is read from the function's globals
    (``c<slot>``), every other slot is a local (``v<slot>``).  A ufunc
    step runs ``ufunc(*srcs, out)``, any other forward
    ``forward(*srcs, out=out, work=scratch, **extras)``.  Buffers,
    scratch dicts, extras and forwards are bound into the globals by
    name; no value is written into the source.
    """
    scope: dict = {}

    def operand(slot: int) -> str:
        if slot in stable:
            scope[f"c{slot}"] = stable[slot]
            return f"c{slot}"
        return f"v{slot}"

    lines = [f"def replay({', '.join(f'v{slot}' for slot in input_slots)}):"]
    for i, (forward, srcs, out_slot, out_buf, extras, scratch) in enumerate(steps):
        args = ", ".join(operand(slot) for slot in srcs)
        scope[f"k{i}"] = forward
        scope[f"o{i}"] = out_buf
        if isinstance(forward, np.ufunc):
            call = f"k{i}({args}, o{i})"
        else:
            scope[f"w{i}"] = scratch
            scope[f"e{i}"] = extras
            params = f", **e{i}" if extras else ""
            call = f"k{i}({args}, out=o{i}, work=w{i}{params})"
        lines.append(f"    v{out_slot} = {call}")
    lines.append(f"    return {operand(output_slot)}")
    exec(compile("\n".join(lines), "<execution plan>", "exec"), scope)
    return scope["replay"]


def _node_kind(node: CapturedNode) -> tuple[Callable, str]:
    entry = FORWARDS.get(node.op_name)
    if entry is None:
        raise PlanUnsupportedError(
            f"op {node.op_name!r} has no declared forward; the plan engine "
            f"cannot lower this forward"
        )
    return entry


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

    # Buffer assignment: linear scan with free lists per spec;
    # elementwise steps may steal the buffer of a source dying at that
    # step (in-place chain fusion).  Non-aliasable steps allocate first
    # and release after, so a fresh buffer never aliases a source.
    buffer_specs: list[tuple] = []
    free: dict[tuple, list[int]] = {}
    buf_of_root: dict[int, int | None] = {id(t): None for t in inputs}
    ops: list[tuple] = []
    num_in_place = 0
    for step, node in enumerate(dyn_nodes):
        tid = id(node.tensor)
        forward, kind = kinds[tid]
        out_data = node.tensor.data
        spec = _spec(out_data)
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
                    and _spec(parent.data) == spec
                ):
                    buf = buf_of_root[pid]
                    dying.discard(pid)  # storage transfers to this node
                    num_in_place += 1
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

        srcs = tuple(slot_of[id(p)] for p in node.parents)
        ops.append((forward, srcs, slot_of[tid], buf, node.extras, kind))

    input_slots = [slot_of[id(t)] for t in inputs]
    input_specs = [(t.data.shape, t.data.dtype) for t in inputs]
    arena_bytes = sum(
        int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        for shape, dtype, _ in buffer_specs
    )
    stats = PlanStats(
        num_captured=len(ordered),
        num_ops=len(ops),
        num_folded=num_folded,
        num_merged=len(merged),
        num_buffers=len(buffer_specs),
        arena_bytes=arena_bytes,
        num_in_place=num_in_place,
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
