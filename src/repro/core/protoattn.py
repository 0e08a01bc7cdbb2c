"""ProtoAttn: prototype-attentive dependency modeling (Sec. VI, Alg. 2).

Instead of all-pairs self-attention over the ``l`` input segments
(O(l^2)), ProtoAttn attends from the fixed ``k`` offline prototypes to
the segments and routes the result back through the hard assignment
matrix ``A``:

    ProtoAttn(C_Q, K, V) = A . softmax(C_Q K^T / sqrt(d)) . V   (Eq. 18)

with ``C_Q = C W_E``, ``K = P W_K``, ``V = P W_V`` (Eq. 14).  Since
queries sharing a prototype reuse the same attention row (Eq. 19), the
cost is O(k*l*d) — linear in the number of segments.
"""

from __future__ import annotations

import numpy as np

from repro import autograd as ag
from repro.autograd import Tensor
from repro.autograd.select_ops import argmin, one_hot, softmin, take_rows
from repro.autograd.tensor import get_default_dtype
from repro.core.clustering import composite_distance, distance_op
from repro.nn import Linear, Module
from repro.profiling.counter import active_counter


class ProtoAttn(Module):
    """Prototype-attentive layer over segment tokens.

    Parameters
    ----------
    prototypes:
        ``(k, p)`` array from the offline :class:`SegmentClusterer`.
    d_model:
        Embedding width ``d`` for queries/keys/values.
    alpha:
        Composite-distance correlation weight used for the *online*
        hard assignment (should match the offline clustering setting).
    assignment:
        ``"hard"`` (paper): one-hot routing to the nearest prototype;
        ``"soft"``: a softmax over negative composite distances scaled by
        ``temperature`` — an extension ablated in the benchmarks.
    temperature:
        Softness of the ``"soft"`` assignment (lower = closer to hard).

    Input ``(B, l, p)`` raw segments; output ``(B, l, d_model)``.  After an
    eager forward pass :attr:`last_assignment_` holds the ``(B, l)``
    nearest-prototype indices and :attr:`last_attention_` the ``(B, k, l)``
    attention map (both plain ndarrays), which the paper's Fig. 13
    analysis multiplies together to visualize learned long-range
    dependencies.  Plan replays leave both untouched: they may run on
    several threads at once.

    The whole forward is traced like any other layer: the prototype
    bank enters as a live leaf (:func:`repro.autograd.live`) and the
    assignment is a chain of non-differentiable ops
    (:mod:`repro.autograd.select_ops`), so a compiled plan recomputes
    ``C_Q = W_E(C)`` and the assignment from the bank's current values
    on every replay.
    """

    def __init__(
        self,
        prototypes: np.ndarray,
        d_model: int,
        alpha: float = 0.2,
        assignment: str = "hard",
        temperature: float = 1.0,
    ):
        super().__init__()
        if assignment not in ("hard", "soft"):
            raise ValueError(f"unknown assignment mode {assignment!r}")
        if temperature <= 0.0:
            raise ValueError("temperature must be positive")
        self.assignment_mode = assignment
        self.temperature = temperature
        prototypes = np.asarray(prototypes, dtype=get_default_dtype())
        if prototypes.ndim != 2:
            raise ValueError("prototypes must be (k, p)")
        self.num_prototypes, self.segment_length = prototypes.shape
        self.d_model = d_model
        self.alpha = alpha
        self.register_buffer("prototypes", prototypes.copy())
        p = self.segment_length
        self.w_e = Linear(p, d_model, bias=False)  # prototype embedding W_E
        self.w_k = Linear(p, d_model, bias=False)
        self.w_v = Linear(p, d_model, bias=False)
        self.last_assignment_: np.ndarray | None = None
        self.last_attention_: np.ndarray | None = None

    def assign(self, segments: np.ndarray) -> np.ndarray:
        """Hard-assign ``(..., p)`` segments to nearest prototypes."""
        return composite_distance(segments, self.prototypes, self.alpha).argmin(axis=-1)

    def assignment_weights(self, segments: np.ndarray) -> np.ndarray:
        """Assignment matrix ``A``: one-hot (hard) or softmax (soft)."""
        distances = composite_distance(segments, self.prototypes, self.alpha)
        return self._weights(Tensor(distances)).data

    def routing(self, segments: Tensor, distances: Tensor | None = None) -> Tensor:
        """Assignment matrix ``A`` of ``(B, l, p)`` segments, ``(B, l, k)``.

        Traced ops on the live prototype bank (``distances`` are the
        segments' composite distances when the caller has them).  An
        instance-level :meth:`assignment_weights` override — the
        knockout attribution patches one in — routes instead.
        """
        if "assignment_weights" in self.__dict__:
            return Tensor(self.assignment_weights(segments.data))
        if distances is None:
            distances = self.distances(segments)
        return self._weights(distances)

    def distances(self, segments: Tensor) -> Tensor:
        """Eq. (13) distances ``(..., k)`` of segments to the live bank,
        as a traced op."""
        return distance_op(segments, ag.live(self.prototypes), alpha=self.alpha)

    def _weights(self, distances: Tensor) -> Tensor:
        if self.assignment_mode == "hard":
            return one_hot(
                argmin(distances), num_classes=self.num_prototypes, dtype=distances.dtype
            )
        return softmin(distances, temperature=self.temperature)

    def forward(self, segments: Tensor, distances: Tensor | None = None) -> Tensor:
        """Mix ``(B, l, p)`` segments; ``distances`` are their ``(B, l, k)``
        composite distances to this bank when the caller has them."""
        if segments.ndim != 3 or segments.shape[-1] != self.segment_length:
            raise ValueError(
                f"expected (B, l, p={self.segment_length}) segments, got {segments.shape}"
            )
        batch, n_segments, _ = segments.shape

        # Nearest prototype under Eq. (13) (Algorithm 2 l.1-4).
        prototypes = ag.live(self.prototypes)
        if distances is None:
            distances = distance_op(segments, prototypes, alpha=self.alpha)  # (B, l, k)
        labels = argmin(distances)  # (B, l)
        # Gather with the local labels, never by reading the attribute
        # back: another thread's forward may rewrite it in between.
        self.last_assignment_ = labels.data
        counter = active_counter()
        if counter is not None:
            # Nearest-prototype search (Sec. VI-B complexity analysis): the
            # squared-Euclidean term is one (B·l, k) GEMM over p-vectors.
            # The Pearson term costs a second GEMM of the same shape, but
            # only when it is actually computed (alpha != 0); charging it
            # unconditionally would inflate Fig. 6-style numbers for the
            # Euclidean-only (Rec Only) configuration.
            unit = batch * n_segments * self.num_prototypes * self.segment_length
            cost = 2 * unit
            if self.alpha != 0.0:
                cost += 2 * unit
            counter.add_flops(cost, label="proto_assignment")

        # Eq. (14): projections.
        proto_queries = self.w_e(prototypes)  # (k, d)
        keys = self.w_k(segments)  # (B, l, d)
        values = self.w_v(segments)  # (B, l, d)

        # Eq. (16)+(18): prototype-to-segment attention, then route via A.
        scores = ag.matmul(proto_queries, ag.swapaxes(keys, -1, -2))  # (B, k, l)
        scores = scores * float(1.0 / np.sqrt(self.d_model))
        attention = ag.softmax(scores, axis=-1)
        self.last_attention_ = attention.data
        proto_context = ag.matmul(attention, values)  # (B, k, d)
        if (
            not ag.is_grad_enabled()
            and counter is None
            and self.assignment_mode == "hard"
            and "assignment_weights" not in self.__dict__
        ):
            # Inference fast path (serving/batched forecasts): hard
            # routing is a row gather, O(B·l·d) instead of the one-hot
            # matmul's O(B·l·k·d).  Bit-identical for finite contexts —
            # each output row is exactly its prototype's context row, as
            # summing k-1 exact zeros changes nothing.  Training keeps
            # the matmul (the graph must flow into proto_context),
            # profiled runs keep it so FLOP accounting stays put, and an
            # instance-level assignment_weights override (the knockout
            # attribution monkeypatches it) keeps it so the patched
            # matrix actually routes.
            return take_rows(proto_context, labels)
        return ag.matmul(self.routing(segments, distances), proto_context)  # (B, l, d)

    def dependency_matrix(self) -> np.ndarray:
        """``A @ attention`` from the last forward: ``(B, l, l)``.

        Entry ``[b, i, j]`` is how much segment ``i``'s representation
        depends on segment ``j`` — the quantity visualized in Fig. 13.
        """
        if self.last_assignment_ is None or self.last_attention_ is None:
            raise RuntimeError("run a forward pass first")
        # Row i of the result is the attention row of segment i's prototype.
        return np.take_along_axis(
            self.last_attention_, self.last_assignment_[:, :, None], axis=1
        )

    def _extra_repr(self) -> str:
        return f"(k={self.num_prototypes}, p={self.segment_length}, d={self.d_model})"
