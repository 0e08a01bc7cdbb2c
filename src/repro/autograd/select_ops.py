"""Ops declared once, in ``out=`` form, for eager, training and replay.

Each op here has a single forward
``forward(*arrays, out=None, work=None, **params)``: eager calls it with
``out=None`` and gets fresh arrays; a compiled plan
(:mod:`repro.engine`) calls it with an arena buffer as ``out`` and a
``work`` mapping that holds its temporaries (see :func:`temporary`).
Eager and replay therefore run one function body and agree bit for bit
by construction.

Hard prototype assignment (Alg. 2) picks rows by the *values* of its
input: the nearest prototype (``argmin``), the routing matrix
(``one_hot``, or the tempered ``softmin`` of the soft extension) and the
row gather that routes each segment to its prototype's context
(``take_rows``).  These carry no gradient and do not report to the op
observer: FLOP accounting charges the search to its caller (ProtoAttn's
``proto_assignment``).  The offline clustering's ``composite_distance``
is declared the same way (:data:`repro.core.clustering.distance_op`).

An op declared with a ``backward`` is differentiable (``nn.Linear`` and
``nn.LayerNorm`` are such ops).  Its graph node keeps only the inputs,
the output and what the forward chose to save; it reports to the op
observer like any other op.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.autograd.tensor import Tensor, active_capture, is_grad_enabled

#: Forward of every declared op, by op name (the plan engine's kernels).
FORWARDS: dict[str, Callable] = {}


def declare(
    name: str, forward: Callable, backward: Callable | None = None
) -> Callable[..., Tensor]:
    """Register ``forward`` as the op ``name``.

    Returns the op: ``op(*tensors, **params)`` runs ``forward`` on the
    tensors' arrays and, under a graph capture, records the call with
    ``params`` as its replay arguments.

    ``forward`` returns its output.  Without ``backward`` the op is
    non-differentiable.  With one, ``forward`` called without ``work``
    (eager) returns ``(out, saved)`` instead, where ``saved`` is whatever
    the backward needs besides the inputs (per-row statistics, say); a
    plan, which passes ``work``, gets ``out`` alone.  The op records a
    graph node whose inputs receive gradients from one call of
    ``backward(grad, saved, *arrays, needs=..., **params)``.  ``needs``
    holds one flag per input, true where that input requires a gradient;
    the call returns one entry per input: ``None`` where no gradient is
    needed, else the gradient, or a tuple of contributions that
    ``Tensor.backward`` adds into that input's gradient one after
    another, in order (as the separate paths of a composite into one
    input would arrive).
    """
    FORWARDS[name] = forward
    if backward is None:

        def op(*tensors: Tensor, **params) -> Tensor:
            out = Tensor._wrap(forward(*[t.data for t in tensors], **params))
            capture = active_capture()
            if capture is not None:
                capture.record_op(out, tensors, name, params)
            return out

    else:

        def op(*tensors: Tensor, **params) -> Tensor:
            arrays = [t.data for t in tensors]
            out, saved = forward(*arrays, **params)
            if not is_grad_enabled():
                return Tensor._make(out, [(t, None) for t in tensors], name, params)
            needs = tuple(t.requires_grad for t in tensors)
            # The first input's grad_fn the walk calls runs the backward
            # for all of them; each then hands over its own entry.
            grads: list = []

            def grad_of(index: int):
                def grad_fn(g: np.ndarray):
                    if not grads:
                        grads.extend(backward(g, saved, *arrays, needs=needs, **params))
                    grad, grads[index] = grads[index], None
                    return grad

                return grad_fn

            parents = [(t, grad_of(i)) for i, t in enumerate(tensors)]
            return Tensor._make(out, parents, name, params)

    op.__name__ = name
    op.__doc__ = forward.__doc__
    return op


def temporary(work, name: str, shape, dtype) -> np.ndarray | None:
    """``out=`` target for a forward's temporary ``name``.

    ``None`` in eager, so numpy allocates it; in a plan, the step's
    buffer of that spec (``work[name, shape, dtype]``).
    """
    return None if work is None else work[name, shape, dtype]


def _argmin(x: np.ndarray, out=None, work=None) -> np.ndarray:
    """Index of the smallest entry along the last axis (a NaN wins,
    as in ``np.argmin``)."""
    return x.argmin(axis=-1, out=out)


def _one_hot(labels: np.ndarray, num_classes: int, dtype, out=None, work=None):
    """``(..., num_classes)`` rows of ``dtype`` zeros with a one at ``labels``."""
    if out is None:
        out = np.empty((*labels.shape, num_classes), dtype)
    rows = out.reshape(-1, num_classes)
    rows.fill(0.0)
    rows[np.arange(len(rows)), labels.reshape(-1)] = 1.0
    return out


def _softmin(x: np.ndarray, temperature: float, out=None, work=None):
    """Softmax of ``-x / temperature`` along the last axis."""
    out = np.negative(x, out=out)
    np.true_divide(out, temperature, out=out)
    out -= np.maximum.reduce(out, axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def _take_rows(rows: np.ndarray, index: np.ndarray, out=None, work=None):
    """``rows[b, index[b, i]]`` for every ``b, i``: ``(B, k, d)`` rows and
    a ``(B, l)`` index give ``(B, l, d)``."""
    batch, k, d = rows.shape
    flat = index + np.arange(0, batch * k, k)[:, None]
    # ndarray.take skips np.take's dispatch; mode="clip" skips the bounds
    # check and its buffered copy (every index is a valid row).
    return rows.reshape(batch * k, d).take(flat, 0, out, "clip")


argmin = declare("argmin", _argmin)
one_hot = declare("one_hot", _one_hot)
softmin = declare("softmin", _softmin)
take_rows = declare("take_rows", _take_rows)
