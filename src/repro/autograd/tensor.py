"""Core :class:`Tensor` type and the backward machinery.

A ``Tensor`` wraps a ``numpy.ndarray`` and, when gradients are enabled,
records how it was produced: every differentiable operation (declared in
:mod:`repro.autograd.select_ops`) attaches a list
of ``(parent, grad_fn)`` pairs to its output, where ``grad_fn`` maps the
gradient flowing into the output to the gradient contribution for that
parent (or to a tuple of contributions, added in order).
:meth:`Tensor.backward` walks the graph in reverse topological
order and accumulates contributions into ``Tensor.grad``.  It consumes
the graph as it goes (PyTorch's ``retain_graph=False``): once a node's
gradient has been handed to its parents, the node drops its parent list,
and with it the closures and the arrays they hold, so the walk frees
the forward's memory while it runs.  A consumed graph cannot be walked
again; build a new forward for each backward.

Broadcasting follows numpy semantics; gradients of broadcast operands are
reduced back to the operand's shape via :func:`unbroadcast`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64

_GRAD_STATE = threading.local()
_DTYPE_STATE = threading.local()

# Optional op-level observer used by repro.profiling: when set, every op
# construction reports (op_name, output_shape, parent_shapes, dtype).
# Observers that additionally set ``wants_backward = True`` also receive
# one ``"<op>.bwd"`` event per interior node processed by ``backward()``.
_OP_OBSERVER = None

# Optional allocation observer: called with the byte size of every fresh
# gradient/optimizer buffer the engine allocates (see repro.profiling).
_ALLOC_OBSERVER = None

# Graph capture (repro.autograd.capture / repro.engine): while a capture is
# active on a thread, every op construction and every leaf-Tensor birth is
# reported to it so the forward can be lowered to a replayable plan.  The
# global counter is a fast guard so the uncaptured hot path pays one module
# lookup instead of a thread-local getattr per op.
_CAPTURE_COUNT = 0
_CAPTURE_STATE = threading.local()


def active_capture():
    """Return the GraphCapture recording on this thread, or None."""
    if _CAPTURE_COUNT == 0:
        return None
    return getattr(_CAPTURE_STATE, "capture", None)


def _set_capture(capture) -> None:
    """Install (or clear, with None) this thread's graph capture."""
    global _CAPTURE_COUNT
    previous = getattr(_CAPTURE_STATE, "capture", None)
    if capture is not None and previous is not None:
        raise RuntimeError("a graph capture is already active on this thread")
    _CAPTURE_STATE.capture = capture
    if capture is not None:
        _CAPTURE_COUNT += 1
    elif previous is not None:
        _CAPTURE_COUNT -= 1


def set_op_observer(observer) -> None:
    """Install (or clear, with None) the global op observer."""
    global _OP_OBSERVER
    _OP_OBSERVER = observer


def get_op_observer():
    """Return the currently installed op observer (or None)."""
    return _OP_OBSERVER


def set_alloc_observer(observer) -> None:
    """Install (or clear, with None) the engine allocation observer.

    The observer is called as ``observer(nbytes)`` once per buffer the
    backward pass or an in-place optimizer allocates.  Forward-op outputs
    are *not* reported here (they are op outputs, not engine temporaries).
    """
    global _ALLOC_OBSERVER
    _ALLOC_OBSERVER = observer


def get_alloc_observer():
    """Return the currently installed allocation observer (or None)."""
    return _ALLOC_OBSERVER


def note_alloc(array: np.ndarray) -> None:
    """Report one engine-owned buffer allocation to the observer, if any."""
    if _ALLOC_OBSERVER is not None:
        _ALLOC_OBSERVER(array.nbytes)


def is_grad_enabled() -> bool:
    """Return True when operations should record the autograd graph."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like torch.no_grad)."""
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def inplace_accumulation_enabled() -> bool:
    """True when ``backward()`` may reuse/donate gradient buffers."""
    return getattr(_GRAD_STATE, "inplace", True)


@contextlib.contextmanager
def legacy_accumulation():
    """Force the pre-optimization allocate-per-accumulation backward path.

    Kept for the allocation benchmark and for bit-stability regression
    tests: the legacy path reproduces the original engine's behavior
    (fresh ``a + b`` buffers on every gradient accumulation).
    """
    previous = inplace_accumulation_enabled()
    _GRAD_STATE.inplace = False
    try:
        yield
    finally:
        _GRAD_STATE.inplace = previous


# ----------------------------------------------------------------------
# Precision modes
# ----------------------------------------------------------------------
def get_default_dtype() -> np.dtype:
    """The floating dtype new tensors are created with (float64 unless set)."""
    return getattr(_DTYPE_STATE, "dtype", None) or np.dtype(DEFAULT_DTYPE)


def set_default_dtype(dtype) -> None:
    """Set the engine-wide default floating dtype (e.g. ``'float32'``)."""
    dtype = np.dtype(dtype)
    if dtype.kind != "f":
        raise ValueError(f"default dtype must be a float dtype, got {dtype}")
    _DTYPE_STATE.dtype = dtype


@contextlib.contextmanager
def default_dtype(dtype):
    """Context manager scoping :func:`set_default_dtype` to a block."""
    previous = getattr(_DTYPE_STATE, "dtype", None)
    set_default_dtype(dtype)
    try:
        yield
    finally:
        _DTYPE_STATE.dtype = previous


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shape produced by broadcasting) back to ``shape``.

    Sums over the leading axes numpy added and over any axis that was
    expanded from size 1.
    """
    return _unbroadcast(grad, shape)[0]


def _unbroadcast(
    grad: np.ndarray, shape: tuple[int, ...], out: np.ndarray | None = None
) -> tuple[np.ndarray, bool]:
    """:func:`unbroadcast` plus a flag marking freshly-allocated results.

    When ``out`` (an owned scratch of target ``shape``/dtype) is given and
    a single reduction stage suffices, the sum is written into it instead
    of a new array.  The reduction order matches the historical two-stage
    implementation exactly, so results are bit-identical.
    """
    if grad.shape == shape:
        return grad, False
    fresh = False
    # Sum away leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        lead = tuple(range(extra))
        trailing = grad.shape[extra:]
        needs_second = any(
            n == 1 and trailing[i] != 1 for i, n in enumerate(shape)
        )
        if not needs_second and out is not None:
            np.sum(grad, axis=lead, out=out)
            return out, True
        grad = grad.sum(axis=lead)
        note_alloc(grad)
        fresh = True
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        if out is not None and not fresh:
            np.sum(grad, axis=axes, keepdims=True, out=out)
            return out, True
        grad = grad.sum(axis=axes, keepdims=True)
        note_alloc(grad)
        fresh = True
    if grad.shape != shape:
        grad = grad.reshape(shape)
    return grad, fresh


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``numpy.ndarray`` of float dtype.
    requires_grad:
        When True, ``backward()`` will populate :attr:`grad` for this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_op_name")
    __array_priority__ = 100  # make numpy defer to Tensor.__r*__ operators

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is not None:
            self.data = np.asarray(data, dtype=dtype)
        elif isinstance(data, np.ndarray) and data.dtype.kind == "f":
            # Already a float ndarray: keep its storage and dtype as-is
            # (no silent upcast to the default dtype).
            self.data = data
        elif isinstance(data, np.floating):
            # Numpy float scalar (e.g. a full reduction): keep its dtype so
            # float32 losses stay float32.
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=get_default_dtype())
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        # list of (parent Tensor, grad_fn: ndarray -> ndarray) pairs; None
        # once backward() has consumed this interior node
        self._parents: list[tuple["Tensor", Callable[[np.ndarray], np.ndarray]]] | None = []
        self._op_name: str = "leaf"
        if _CAPTURE_COUNT:
            capture = getattr(_CAPTURE_STATE, "capture", None)
            if capture is not None:
                capture.record_birth(self)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence[tuple["Tensor", Callable[[np.ndarray], np.ndarray]]],
        op_name: str,
        extras=None,
    ) -> "Tensor":
        """Create an op output, wiring in parents when autograd is on.

        Called by the ops of :func:`repro.autograd.select_ops.declare`.
        ``extras`` carries the non-Tensor op arguments (reduction axes,
        transpose permutations, clip bounds, ...) that a graph capture
        needs to replay the op; it is ignored when no capture is active.
        """
        if _OP_OBSERVER is not None:
            _OP_OBSERVER(
                op_name,
                np.shape(data),
                [p.shape for p, _ in parents],
                getattr(data, "dtype", None),
            )
        tracked = [(p, fn) for p, fn in parents if p.requires_grad]
        out = Tensor(data, requires_grad=bool(tracked) and is_grad_enabled())
        if out.requires_grad:
            out._parents = tracked
            out._op_name = op_name
        if _CAPTURE_COUNT:
            capture = getattr(_CAPTURE_STATE, "capture", None)
            if capture is not None:
                capture.record_op(out, [p for p, _ in parents], op_name, extras)
        return out

    @classmethod
    def _wrap(cls, array: np.ndarray) -> "Tensor":
        """Wrap an ndarray verbatim (no cast, no copy) as a graph leaf."""
        out = cls.__new__(cls)
        out.data = array
        out.requires_grad = False
        out.grad = None
        out._parents = []
        out._op_name = "leaf"
        if _CAPTURE_COUNT:
            capture = getattr(_CAPTURE_STATE, "capture", None)
            if capture is not None:
                capture.record_birth(out)
        return out

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return shape_ops.transpose(self)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing this storage, cut off from the graph.

        The result shares memory with ``self`` and preserves the dtype
        exactly — it never re-casts through the default dtype.
        """
        return Tensor._wrap(self.data)

    def copy(self) -> "Tensor":
        """Return a detached deep copy (same dtype, new storage)."""
        return Tensor._wrap(self.data.copy())

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor, consuming its graph.

        ``grad`` defaults to 1 for scalar outputs; non-scalar roots require
        an explicit gradient of matching shape.  Each interior node is
        released as soon as its gradient has reached its parents, so the
        graph cannot be walked twice: a second ``backward()`` through any
        of its interior nodes raises.  Leaf gradients still accumulate
        across separately built graphs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        inplace = inplace_accumulation_enabled()
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be specified for non-scalar outputs")
            root = np.ones_like(self.data)
            note_alloc(root)
            root_owned = True
        else:
            supplied = grad
            root = np.asarray(grad, dtype=self.data.dtype)
            # A fresh cast/conversion is ours to consume; a pass-through of
            # the caller's array is not (they may reuse it).
            root_owned = root is not supplied and root.base is None
            if root_owned:
                note_alloc(root)
        if root.shape != self.data.shape:
            root = np.broadcast_to(root, self.data.shape).copy()
            note_alloc(root)
            root_owned = True

        observer = _OP_OBSERVER
        if observer is not None and not getattr(observer, "wants_backward", False):
            observer = None

        # Root last: popping walks it in reverse topological order and
        # drops the list's reference to each node as it is processed.
        pending = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): root}
        # ids of grads entries whose buffer this pass may mutate or donate
        owned: set[int] = {id(self)} if (inplace and root_owned) else set()
        # per-(shape, dtype) scratch reused by unbroadcast reductions that
        # are immediately folded into an existing accumulation buffer
        scratch: dict[tuple, np.ndarray] = {}
        while pending:
            node = pending.pop()
            node_key = id(node)
            node_grad = grads.pop(node_key, None)
            parents = node._parents
            if parents:
                # Consume the node: its closures, and the forward arrays
                # only they hold, die with ``parents`` below.
                node._parents = None
            if node_grad is None:
                continue
            node_owned = node_key in owned
            owned.discard(node_key)
            if not parents:
                # Leaf: accumulate into .grad
                if node.grad is None:
                    if node_owned:
                        node.grad = node_grad  # donate the owned buffer
                    else:
                        node.grad = node_grad.copy()
                        note_alloc(node.grad)
                elif (
                    inplace
                    and node.grad.base is None
                    and node.grad.flags.owndata
                    and node.grad.flags.writeable
                ):
                    np.add(node.grad, node_grad, out=node.grad)
                else:
                    node.grad = node.grad + node_grad
                    note_alloc(node.grad)
                continue
            if observer is not None:
                observer(
                    node._op_name + ".bwd",
                    node.data.shape,
                    [p.shape for p, _ in parents],
                    node.data.dtype,
                )
            # Interior node: the root (and retained grads) keep their own .grad
            if node is self or node.grad is not None:
                if node.grad is None:
                    node.grad = node_grad
                else:
                    node.grad = node.grad + node_grad
                    note_alloc(node.grad)
            for parent, grad_fn in parents:
                raw = grad_fn(node_grad)
                shape = parent.data.shape
                key = id(parent)
                # A declared op may hand one input several contributions (a
                # tuple): each is added in turn, as separate parents would be.
                for piece in raw if type(raw) is tuple else (raw,):
                    arr = np.asarray(piece, dtype=parent.data.dtype)
                    existing = grads.get(key)
                    if not inplace:
                        reduced = unbroadcast(arr, shape)
                        if existing is None:
                            grads[key] = reduced
                        else:
                            grads[key] = existing + reduced
                            note_alloc(grads[key])
                        continue
                    if existing is None:
                        if arr.shape != shape:
                            arr, _ = _unbroadcast(arr, shape)
                        grads[key] = arr
                        if (
                            arr is not node_grad
                            and arr.base is None
                            and arr.flags.owndata
                            and arr.flags.writeable
                        ):
                            owned.add(key)
                        continue
                    if key in owned:
                        if arr.shape != shape:
                            buf = scratch.get((shape, arr.dtype.str))
                            if buf is None:
                                buf = np.empty(shape, dtype=arr.dtype)
                                note_alloc(buf)
                                scratch[(shape, arr.dtype.str)] = buf
                            arr, _ = _unbroadcast(arr, shape, out=buf)
                        np.add(existing, arr, out=existing)
                        continue
                    if arr.shape != shape:
                        arr, _ = _unbroadcast(arr, shape)
                    if (
                        arr is not node_grad
                        and arr.base is None
                        and arr.flags.owndata
                        and arr.flags.writeable
                    ):
                        # existing + arr, written into the fresh contribution
                        np.add(existing, arr, out=arr)
                        grads[key] = arr
                    else:
                        grads[key] = existing + arr
                        note_alloc(grads[key])
                    owned.add(key)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic operators
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        return math_ops.add(self, _operand(other, self.data.dtype))

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        return math_ops.sub(self, _operand(other, self.data.dtype))

    def __rsub__(self, other) -> "Tensor":
        return _operand(other, self.data.dtype).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        return math_ops.mul(self, _operand(other, self.data.dtype))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return math_ops.div(self, _operand(other, self.data.dtype))

    def __rtruediv__(self, other) -> "Tensor":
        return _operand(other, self.data.dtype).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return math_ops.neg(self)

    def __pow__(self, exponent) -> "Tensor":
        if isinstance(exponent, Tensor):
            return math_ops.pow(self, exponent)
        return math_ops.pow_const(self, exponent=float(exponent))

    def __matmul__(self, other) -> "Tensor":
        return linalg_ops.matmul(self, other)

    def __rmatmul__(self, other) -> "Tensor":
        return linalg_ops.matmul(as_tensor(other), self)

    # ------------------------------------------------------------------
    # Comparison operators (non-differentiable, return plain ndarrays)
    # ------------------------------------------------------------------
    def __lt__(self, other):
        return self.data < _raw(other)

    def __le__(self, other):
        return self.data <= _raw(other)

    def __gt__(self, other):
        return self.data > _raw(other)

    def __ge__(self, other):
        return self.data >= _raw(other)

    def __eq__(self, other):  # type: ignore[override]
        return self.data == _raw(other)

    def __ne__(self, other):  # type: ignore[override]
        return self.data != _raw(other)

    def __hash__(self):
        return id(self)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def __getitem__(self, index) -> "Tensor":
        return shape_ops.getitem(self, index=index)

    # ------------------------------------------------------------------
    # Method-style access to functional ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return shape_ops.reshape(self, shape)

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        return shape_ops.transpose(self, axes)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        return shape_ops.swapaxes(self, axis1, axis2)

    def flatten(self) -> "Tensor":
        return shape_ops.flatten(self)

    def squeeze(self, axis: int | None = None) -> "Tensor":
        return shape_ops.squeeze(self, axis)

    def unsqueeze(self, axis: int) -> "Tensor":
        return shape_ops.unsqueeze(self, axis)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_ops.mean(self, axis=axis, keepdims=keepdims)

    def var(self, axis=None, keepdims: bool = False, ddof: int = 0) -> "Tensor":
        return reduce_ops.var(self, axis=axis, keepdims=keepdims, ddof=ddof)

    def std(self, axis=None, keepdims: bool = False, ddof: int = 0) -> "Tensor":
        return reduce_ops.std(self, axis=axis, keepdims=keepdims, ddof=ddof)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_ops.max(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_ops.min(self, axis=axis, keepdims=keepdims)

    def exp(self) -> "Tensor":
        return math_ops.exp(self)

    def log(self) -> "Tensor":
        return math_ops.log(self)

    def sqrt(self) -> "Tensor":
        return math_ops.sqrt(self)

    def abs(self) -> "Tensor":
        return math_ops.abs(self)

    def tanh(self) -> "Tensor":
        return math_ops.tanh(self)

    def sigmoid(self) -> "Tensor":
        return math_ops.sigmoid(self)

    def relu(self) -> "Tensor":
        return math_ops.relu(self)

    def clip(self, low: float | None = None, high: float | None = None) -> "Tensor":
        return math_ops.clip(self, low, high)

    def softmax(self, axis: int = -1) -> "Tensor":
        return reduce_ops.softmax(self, axis=axis)

    def matmul(self, other) -> "Tensor":
        return self.__matmul__(other)


def _raw(value) -> np.ndarray:
    return value.data if isinstance(value, Tensor) else np.asarray(value)


def _topological_order(root: Tensor) -> list[Tensor]:
    """Return tensors reachable from ``root`` in topological order (every
    node after its parents, ``root`` last).

    Raises if the walk reaches a node an earlier ``backward()`` consumed.
    """
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is None:
            raise RuntimeError(
                "backward() reached a graph an earlier backward() already "
                "consumed; build a new forward for each backward"
            )
        visited.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


# ----------------------------------------------------------------------
# Creation helpers
# ----------------------------------------------------------------------
def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    """Create a new Tensor (copies data; float ndarrays keep their dtype)."""
    if dtype is None and isinstance(data, np.ndarray) and data.dtype.kind == "f":
        return Tensor(data.copy(), requires_grad=requires_grad)
    return Tensor(
        np.array(data, dtype=dtype or get_default_dtype()), requires_grad=requires_grad
    )


def as_tensor(data) -> Tensor:
    """Coerce to Tensor without copying when already one."""
    if isinstance(data, Tensor):
        return data
    out = Tensor(data)
    if _CAPTURE_COUNT and (
        np.isscalar(data) or (isinstance(data, np.ndarray) and data.ndim == 0)
    ):
        capture = getattr(_CAPTURE_STATE, "capture", None)
        if capture is not None:
            # Scalar arguments to functional ops (ag.maximum(x, 0.0),
            # eps constants) come from the source text, never from the
            # traced input — safe to bake, same as ``_operand``.
            capture.bless(out)
    return out


def _operand(value, dtype) -> Tensor:
    """Coerce a binary-op operand; scalars adopt the tensor's ``dtype``.

    Python/numpy scalars are "weak": wrapping them at the ambient default
    dtype would silently promote a float32 graph back to float64 whenever
    an op mixes in a constant (eps, scale factors), so they take the dtype
    of the Tensor they combine with instead.
    """
    if isinstance(value, Tensor):
        return value
    if np.isscalar(value) or (isinstance(value, np.ndarray) and value.ndim == 0):
        out = Tensor._wrap(np.asarray(value, dtype=dtype))
        if _CAPTURE_COUNT:
            capture = getattr(_CAPTURE_STATE, "capture", None)
            if capture is not None:
                # A scalar operand's value comes from the source text (eps,
                # scale factors), never from the traced input — safe to bake.
                capture.bless(out)
        return out
    return Tensor(value)


def zeros(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    """All-zeros tensor of the given shape."""
    return Tensor(
        np.zeros(shape, dtype=dtype or get_default_dtype()), requires_grad=requires_grad
    )


def zeros_like(t: Tensor, requires_grad: bool = False) -> Tensor:
    """All-zeros tensor shaped (and typed) like ``t``."""
    return Tensor(np.zeros_like(_raw(t)), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    """All-ones tensor of the given shape."""
    return Tensor(
        np.ones(shape, dtype=dtype or get_default_dtype()), requires_grad=requires_grad
    )


def ones_like(t: Tensor, requires_grad: bool = False) -> Tensor:
    """All-ones tensor shaped (and typed) like ``t``."""
    return Tensor(np.ones_like(_raw(t)), requires_grad=requires_grad)


def randn(
    *shape,
    rng: np.random.Generator | None = None,
    requires_grad: bool = False,
    dtype=None,
) -> Tensor:
    """Standard-normal tensor (pass ``rng`` for determinism)."""
    generator = rng or np.random.default_rng()
    sample = generator.standard_normal(shape).astype(
        dtype or get_default_dtype(), copy=False
    )
    return Tensor(sample, requires_grad=requires_grad)


def arange(*args, requires_grad: bool = False, dtype=None) -> Tensor:
    """Float range tensor (numpy.arange semantics)."""
    return Tensor(
        np.arange(*args, dtype=dtype or get_default_dtype()), requires_grad=requires_grad
    )


# The op modules behind the operators and methods need ``Tensor`` themselves.
from repro.autograd import linalg_ops, math_ops, reduce_ops, shape_ops  # noqa: E402
