"""Every op, declared once in ``out=`` form for eager, training and replay.

Each op has a single forward ``forward(*arrays, out=None, work=None,
**params)``: eager calls it with ``out=None`` and gets fresh arrays; a
compiled plan (:mod:`repro.engine`) calls it with an arena buffer as
``out`` and a ``work`` mapping that holds its temporaries (see
:func:`temporary`).  :data:`FORWARDS` holds every declared forward by op
name and is the plan engine's only kernel table, so eager and replay run
one function body and agree bit for bit by construction.

Most ops carry a ``backward`` and are differentiable: the ``Tensor``
operators, :mod:`~repro.autograd.math_ops`,
:mod:`~repro.autograd.reduce_ops`, :mod:`~repro.autograd.shape_ops`,
:mod:`~repro.autograd.linalg_ops`, ``nn.linear``, ``nn.layer_norm`` and
``nn.conv1d``.  Their graph node keeps only the inputs, the output and
what the forward chose to save; it reports to the op observer.

Hard prototype assignment (Alg. 2) picks rows by the *values* of its
input: the nearest prototype (``argmin``), the routing matrix
(``one_hot``, or the tempered ``softmin`` of the soft extension) and the
row gather that routes each segment to its prototype's context
(``take_rows``).  These are declared here without a backward: they carry
no gradient and do not report to the op observer, since FLOP accounting
charges the search to its caller (ProtoAttn's ``proto_assignment``).
The offline clustering's ``composite_distance`` is declared the same way
(:data:`repro.core.clustering.distance_op`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.autograd.tensor import Tensor, active_capture, as_tensor, is_grad_enabled

#: Every declared op by name: ``(forward, kind)`` (see :func:`declare`).
FORWARDS: dict[str, tuple[Callable, str]] = {}


def declare(
    name: str, forward: Callable, backward: Callable | None = None, kind: str = "out"
) -> Callable[..., Tensor]:
    """Register ``forward`` as the op ``name``.

    Returns the op: ``op(*tensors, **params)`` runs ``forward`` on the
    tensors' arrays (other values are wrapped with ``as_tensor``) and,
    under a graph capture, records the call with ``params`` as its replay
    arguments.  A numpy ufunc is a forward of its own: a plan calls it as
    ``ufunc(*arrays, out)``.

    ``forward`` returns its output.  A forward whose backward needs more
    than the inputs and the output returns ``(out, saved)`` when called
    without ``work`` (eager); a plan, which passes ``work``, gets ``out``
    alone.

    ``kind`` is where a compiled plan may put the output:

    - ``"ew"``: into ``out``, which may be an input of the output's shape
      and dtype that dies at this op (elementwise chains run in place);
    - ``"out"``: into ``out``, which never aliases an input;
    - ``"view"``: nowhere; the forward may return a view of its first
      input, whose storage then stays live as long as the output;
    - ``"fresh"``: nowhere; the forward returns a new array of its own.

    Without ``backward`` the op is non-differentiable.  With one, the op
    records a graph node whose inputs receive gradients from one call of
    ``backward(grad, out, saved, *arrays, needs=..., **params)``.
    ``needs`` holds one flag per input, true where that input requires a
    gradient; the call returns one entry per input: ``None`` where no
    gradient is needed, else the gradient, or a tuple of contributions
    that ``Tensor.backward`` adds into that input's gradient one after
    another, in order (as the separate paths of a composite into one
    input would arrive; ``()`` for an input that takes no gradient).
    The walk may add into a returned array in place, so every entry is
    ``grad`` itself or an array of its own: ``grad`` may go to several
    inputs (the walk never writes into it), any other array to one.
    """
    FORWARDS[name] = (forward, kind)
    if backward is None:

        def op(*tensors: Tensor, **params) -> Tensor:
            out = Tensor._wrap(forward(*[t.data for t in tensors], **params))
            capture = active_capture()
            if capture is not None:
                capture.record_op(out, tensors, name, params)
            return out

    else:

        def op(*tensors: Tensor, **params) -> Tensor:
            tensors = [t if isinstance(t, Tensor) else as_tensor(t) for t in tensors]
            arrays = [t.data for t in tensors]
            out = forward(*arrays, **params)
            saved = None
            if type(out) is tuple:
                out, saved = out
            needs = [t.requires_grad for t in tensors] if is_grad_enabled() else ()
            if not any(needs):
                return Tensor._make(out, [(t, None) for t in tensors], name, params)
            # The first input's grad_fn the walk calls runs the backward
            # for all of them; each then hands over its own entry.
            grads: list = []

            def grad_of(index: int):
                def grad_fn(g: np.ndarray):
                    if not grads:
                        grads.extend(
                            backward(g, out, saved, *arrays, needs=needs, **params)
                        )
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
