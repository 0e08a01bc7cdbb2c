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
from repro.autograd.tensor import get_default_dtype
from repro.core.clustering import composite_distance
from repro.engine.plan import scratch_buffer
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
    prototype indices and :attr:`last_attention_` the ``(B, k, l)``
    attention map (both plain ndarrays), which the paper's Fig. 13
    analysis multiplies together to visualize learned long-range
    dependencies.  Plan replays leave both untouched: they may run on
    several threads at once.
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
        # Inference cache for C_Q = W_E(C): prototypes are fixed online, so
        # the projection is recomputed only when W_E or C actually change.
        # Tuple of (W_E snapshot, prototype snapshot, projected queries).
        self._query_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # Bumped by invalidate_cache(); compiled plans key their cached
        # prototype statistics on it (see _replay_distances).
        self._generation = 0

    def invalidate_cache(self) -> None:
        """Drop every cache derived from the prototype buffer.

        Called after the prototypes are written in place
        (``set_prototypes`` / ``update_prototype``): clears the eager
        query-projection cache and bumps the generation that compiled
        plans check before reusing their prototype statistics.
        """
        self._query_cache = None
        self._generation += 1

    def _proto_queries(self) -> Tensor:
        """C_Q = W_E(C), cached between inference forwards.

        Staleness is detected by value comparison against small snapshots
        of W_E and the prototypes (both are mutated in place by the
        optimizer / ``load_state_dict`` / streaming adaptation, so object
        identity cannot be trusted).  Only used with gradients disabled —
        training forwards must build the graph so W_E receives gradients.
        """
        weight = self.w_e.weight.data
        cache = self._query_cache
        if (
            cache is None
            or not np.array_equal(cache[0], weight)
            or not np.array_equal(cache[1], self.prototypes)
        ):
            projected = self.w_e(Tensor(self.prototypes)).data
            cache = (weight.copy(), self.prototypes.copy(), projected)
            self._query_cache = cache
        return Tensor(cache[2])

    def assign(self, segments: np.ndarray) -> np.ndarray:
        """Hard-assign ``(..., p)`` segments to nearest prototypes."""
        flat = segments.reshape(-1, self.segment_length)
        labels = composite_distance(flat, self.prototypes, self.alpha).argmin(axis=1)
        return labels.reshape(segments.shape[:-1])

    def assignment_weights(self, segments: np.ndarray) -> np.ndarray:
        """Assignment matrix ``A``: one-hot (hard) or softmax (soft)."""
        flat = segments.reshape(-1, self.segment_length)
        distances = composite_distance(flat, self.prototypes, self.alpha)
        if self.assignment_mode == "hard":
            weights = np.zeros_like(distances)
            weights[np.arange(len(flat)), distances.argmin(axis=1)] = 1.0
        else:
            logits = -distances / self.temperature
            logits -= logits.max(axis=1, keepdims=True)
            weights = np.exp(logits)
            weights /= weights.sum(axis=1, keepdims=True)
        return weights.reshape(*segments.shape[:-1], self.num_prototypes)

    def forward(self, segments: Tensor) -> Tensor:
        if segments.ndim != 3 or segments.shape[-1] != self.segment_length:
            raise ValueError(
                f"expected (B, l, p={self.segment_length}) segments, got {segments.shape}"
            )
        batch, n_segments, _ = segments.shape

        capture = ag.active_capture()
        if capture is not None:
            return self._forward_captured(segments, capture)

        # Assignment matrix A (non-differentiable; Algorithm 2 l.1-4).
        # Hard mode (the paper) routes one-hot; soft mode is an extension.
        assignment = self.assignment_weights(segments.data)  # (B, l, k)
        # Gather with the local labels, never by reading the attribute
        # back: another thread's forward may rewrite it in between.
        labels = self.last_assignment_ = assignment.argmax(axis=-1)
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

        # Eq. (14): projections.  Prototypes are fixed during inference, so
        # C_Q is served from the cache when gradients are off; profiled
        # runs recompute so FLOP accounting stays deterministic.
        if ag.is_grad_enabled() or counter is not None:
            proto_queries = self.w_e(Tensor(self.prototypes))  # (k, d)
        else:
            proto_queries = self._proto_queries()  # (k, d), cached
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
            gathered = np.take_along_axis(proto_context.data, labels[:, :, None], axis=1)
            return Tensor(gathered)
        return ag.matmul(Tensor(assignment), proto_context)  # (B, l, d)

    # ------------------------------------------------------------------
    # Plan-engine capture (repro.engine)
    # ------------------------------------------------------------------
    def _forward_captured(self, segments: Tensor, capture) -> Tensor:
        """Forward under graph capture, with replayable data dependence.

        The assignment matrix and the hard-routing gather are computed
        from the *traced input's* values, so they must not be baked into
        the plan: both are recorded as custom nodes whose replay
        closures recompute the nearest-prototype search from the live
        ``prototypes`` buffer and the replayed segments.  The prototype
        query projection is a custom node too, recomputed from the live
        buffers whenever the prototypes were rewritten in place, so a
        plan stays valid across a swap (a swap never retraces).
        """
        assignment = self.assignment_weights(segments.data)  # (B, l, k)
        labels = self.last_assignment_ = assignment.argmax(axis=-1)
        proto_queries = capture.custom(
            "protoattn_queries",
            self._replay_queries((), None, {}, None),
            (),
            self._replay_queries,
        )  # (k, d)
        keys = self.w_k(segments)  # (B, l, d)
        values = self.w_v(segments)  # (B, l, d)
        scores = ag.matmul(proto_queries, ag.swapaxes(keys, -1, -2))  # (B, k, l)
        scores = scores * float(1.0 / np.sqrt(self.d_model))
        attention = ag.softmax(scores, axis=-1)
        self.last_attention_ = attention.data
        proto_context = ag.matmul(attention, values)  # (B, k, d)
        if (
            not ag.is_grad_enabled()
            and self.assignment_mode == "hard"
            and "assignment_weights" not in self.__dict__
        ):
            # Same gather fast path as the eager inference branch.
            gathered = np.take_along_axis(proto_context.data, labels[:, :, None], axis=1)
            return capture.custom(
                "protoattn_gather",
                gathered,
                (segments, proto_context),
                self._replay_gather,
            )
        routed = capture.custom(
            "protoattn_assign", assignment, (segments,), self._replay_assignment
        )
        return ag.matmul(routed, proto_context)  # (B, l, d)

    def _replay_queries(self, srcs, out, scratch, extras):
        """C_Q = W_E(C) from the live weight and prototype buffers.

        The same ``prototypes @ weight.T`` the eager ``Linear`` runs,
        recomputed whenever :attr:`_generation` has moved since this
        arena last computed it (like the statistics in
        :meth:`_replay_distances`), so it is never stale after an
        in-place prototype write.  Weights, as everywhere in a plan, are
        assumed not to change in place.
        """
        generation = self._generation
        cached = scratch.get("queries")
        if cached is None or cached[0] != generation:
            queries = np.matmul(self.prototypes, self.w_e.weight.data.T)
            cached = scratch["queries"] = (generation, queries)
        return cached[1]

    def _replay_gather(self, srcs, out, scratch, extras):
        """Replay the hard-assignment gather from live prototypes.

        Labels come straight from the distance argmin — identical to
        eager's argmax over the one-hot assignment matrix (the one-hot
        is set exactly at the argmin index, NaN rows included), without
        materializing the matrix eager never uses on this path.  The
        distances themselves come from :meth:`_replay_distances`, a
        scratch-buffered replica of :func:`composite_distance`.
        """
        segments, proto_context = srcs
        flat = segments.reshape(-1, self.segment_length)
        distances = self._replay_distances(flat, scratch)
        labels = distances.argmin(axis=1).reshape(segments.shape[:-1])
        # Row gather: same values as eager's take_along_axis with the
        # labels broadcast along the feature axis, via the cheaper
        # integer-index path (a pure copy either way).
        rows = scratch.get("rows")
        if rows is None or rows.shape[0] != labels.shape[0]:
            rows = scratch["rows"] = np.arange(labels.shape[0])[:, None]
        return proto_context[rows, labels]

    def _replay_distances(self, flat: np.ndarray, scratch: dict) -> np.ndarray:
        """``composite_distance(flat, self.prototypes, self.alpha)``
        through preallocated scratch buffers.

        Every ufunc matches :func:`composite_distance` /
        :func:`pearson_rows` step for step — same operations, same
        operand order — so the distances (and therefore the argmin
        labels) are bitwise identical to the eager path; the scratch
        only removes temporary allocations and numpy dispatch overhead.
        Prototype-derived statistics are cached per arena and keyed on
        :attr:`_generation`, which :meth:`invalidate_cache` bumps after
        every in-place prototype write.  The generation is read *before*
        the prototype values: a write landing in between leaves the
        statistics stamped with the old generation, so the next replay
        recomputes them.  The compile-time self-check in
        :func:`repro.engine.compile_plan` verifies the equivalence on
        every trace.
        """
        generation = self._generation
        prototypes = self.prototypes
        alpha = self.alpha
        stats = scratch.get("stats")
        if stats is None or stats[0] != generation:
            pro_centered = prototypes - prototypes.mean(axis=1, keepdims=True)
            # (pro**2).sum(axis=1)[None, :] and the transposed views used
            # by the eager matmuls (``x @ w.T`` keeps w.T as an F-order
            # view, so the cached views match its layout).
            stats = scratch["stats"] = (
                generation,
                (prototypes**2).sum(axis=1)[None, :],
                prototypes.T,
                pro_centered.T,
                np.linalg.norm(pro_centered, axis=1, keepdims=True).T,
            )
        _, pro_sq, prototypes_t, pro_centered_t, pro_norm_t = stats
        n = flat.shape[0]
        state = scratch.get("assign")
        if state is None or state["n"] != n or state["dtype"] != flat.dtype:
            k, p = prototypes.shape
            dt = flat.dtype
            shapes = {
                "sq": (n, p), "red": (n, 1), "centered": (n, p), "cross": (n, k),
                "dist": (n, k), "numer": (n, k), "denom": (n, k), "mask": (n, k),
            }
            # Pure temporaries of this call, so both mixers (and every
            # plan on the thread) share them through the engine's pool.
            state = {
                name: scratch_buffer(
                    f"protoattn.{name}", shape, bool if name == "mask" else dt
                )
                for name, shape in shapes.items()
            }
            state.update(n=n, dtype=dt)
            scratch["assign"] = state

        # Squared-Euclidean term: seg_sq + pro_sq[None, :] - 2.0 * x @ P.T,
        # clamped at zero (composite_distance, first half).
        sq = np.multiply(flat, flat, out=state["sq"])  # flat**2
        seg_sq = np.add.reduce(sq, axis=1, keepdims=True, out=state["red"])
        cross = np.matmul(flat, prototypes_t, out=state["cross"])
        dist = np.add(seg_sq, pro_sq, out=state["dist"])
        np.multiply(cross, 2.0, out=cross)
        np.subtract(dist, cross, out=dist)
        np.maximum(dist, 0.0, out=dist)
        if alpha == 0.0:
            return dist

        # Pearson term (pearson_rows): center rows, normalize, correlate.
        mean = np.add.reduce(flat, axis=1, keepdims=True, out=state["red"])
        np.true_divide(mean, flat.shape[1], out=mean)  # flat.mean(axis=1, ...)
        centered = np.subtract(flat, mean, out=state["centered"])
        sq = np.multiply(centered, centered, out=state["sq"])
        seg_norm = np.add.reduce(sq, axis=1, keepdims=True, out=state["red"])
        np.sqrt(seg_norm, out=seg_norm)  # np.linalg.norm(seg, axis=1, ...)
        numer = np.matmul(centered, pro_centered_t, out=state["numer"])
        denom = np.matmul(seg_norm, pro_norm_t, out=state["denom"])
        with np.errstate(invalid="ignore", divide="ignore"):
            mask = np.greater(denom, 1e-12, out=state["mask"])
            np.maximum(denom, 1e-12, out=denom)
            np.true_divide(numer, denom, out=numer)
        # np.where(denom > 1e-12, ..., 0.0): zero the rejected entries.
        np.logical_not(mask, out=mask)
        np.copyto(numer, 0.0, where=mask)
        np.clip(numer, -1.0, 1.0, out=numer)
        # euclidean_sq + alpha * (1.0 - corr)
        np.subtract(1.0, numer, out=numer)
        np.multiply(alpha, numer, out=numer)
        return np.add(dist, numer, out=dist)

    def _replay_assignment(self, srcs, out, scratch, extras):
        """Replay the (soft or overridden) assignment matrix."""
        return self.assignment_weights(srcs[0])

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
