"""Dual-branch feature extraction (paper Sec. VII-A, Algorithm 3).

Two ProtoAttn branches share the offline prototypes:

- the **temporal branch** models dependencies between the ``l = L/p``
  segments of each entity (one sequence per entity);
- the **entity branch** models dependencies between the ``N`` entities at
  each segment index (one sequence per segment slot).

Each branch is residual (``ProtoAttn(P) + Embed(P)``) followed by
LayerNorm, mirroring Algorithm 3's
``H = LayerNorm(OnlineModeling(P) + P)`` — the raw segments are first
embedded to width ``d`` so the residual dimensions agree.
"""

from __future__ import annotations

import numpy as np

from repro import autograd as ag
from repro.autograd import Tensor
from repro.core.protoattn import ProtoAttn
from repro.nn import GELU, LayerNorm, Linear, Module, MultiHeadAttention


class _AttnBranchAdapter(Module):
    """Wraps full self-attention so it is interchangeable with ProtoAttn.

    Used by the ``FOCUS-Attn`` ablation variant: the token mixer becomes
    O(l^2) multi-head self-attention over embedded segments.
    """

    def __init__(self, segment_length: int, d_model: int, n_heads: int = 4):
        super().__init__()
        self.segment_length = segment_length
        self.embed = Linear(segment_length, d_model, bias=False)
        self.attn = MultiHeadAttention(d_model, n_heads)

    def forward(self, segments: Tensor) -> Tensor:
        return self.attn(self.embed(segments))


class _LinearBranchAdapter(Module):
    """Per-token linear mixer for the ``FOCUS-AllLnr`` ablation variant."""

    def __init__(self, segment_length: int, d_model: int):
        super().__init__()
        self.segment_length = segment_length
        self.proj = Linear(segment_length, d_model)

    def forward(self, segments: Tensor) -> Tensor:
        return self.proj(segments)


class DualBranchExtractor(Module):
    """Compute temporal features ``H_t`` and entity features ``H_e``.

    Input: segments ``(B, N, l, p)`` (output of
    :func:`repro.data.segments.segment_window` batched).
    Output: ``(H_t, H_e)``, both ``(B, N, l, d)`` and aligned so that
    ``H_e[b, i, j]`` is entity ``i``'s entity-branch feature at segment
    slot ``j``.

    ``mixer`` selects the token mixer: ``"proto"`` (FOCUS), ``"attn"``
    (FOCUS-Attn ablation) or ``"linear"`` (FOCUS-AllLnr ablation).
    """

    def __init__(
        self,
        prototypes: np.ndarray,
        segment_length: int,
        d_model: int,
        alpha: float = 0.2,
        mixer: str = "proto",
        n_segments: int | None = None,
        num_entities: int | None = None,
        assignment: str = "hard",
        temperature: float = 1.0,
        n_layers: int = 1,
    ):
        super().__init__()
        if n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if n_layers > 1 and mixer != "proto":
            raise ValueError("multi-layer extraction requires the proto mixer")
        self.segment_length = segment_length
        self.d_model = d_model
        self.mixer_kind = mixer
        self.n_layers = n_layers
        if mixer == "proto":
            self.temporal_mixer = ProtoAttn(
                prototypes, d_model, alpha=alpha,
                assignment=assignment, temperature=temperature,
            )
            self.entity_mixer = ProtoAttn(
                prototypes, d_model, alpha=alpha,
                assignment=assignment, temperature=temperature,
            )
            # One bank for both branches: the entity mixer's buffer is
            # the temporal mixer's array (state dicts keep both keys,
            # and loading them different values raises), so the forward
            # can share one set of Eq. 13 distances between them.
            self.entity_mixer.register_buffer("prototypes", self.temporal_mixer.prototypes)
        elif mixer == "attn":
            self.temporal_mixer = _AttnBranchAdapter(segment_length, d_model)
            self.entity_mixer = _AttnBranchAdapter(segment_length, d_model)
        elif mixer == "linear":
            self.temporal_mixer = _LinearBranchAdapter(segment_length, d_model)
            self.entity_mixer = _LinearBranchAdapter(segment_length, d_model)
        else:
            raise ValueError(f"unknown mixer {mixer!r}")
        self.embed_t = Linear(segment_length, d_model, bias=False)
        self.embed_e = Linear(segment_length, d_model, bias=False)
        self.norm_t = LayerNorm(d_model)
        self.norm_e = LayerNorm(d_model)
        # Learned positional (segment-slot) and entity-identity embeddings.
        # ProtoAttn itself is content-based and permutation-invariant; these
        # give the downstream fusion head access to segment order and entity
        # identity, as the paper's position-specific dependency maps
        # (Fig. 13) imply the original implementation has.
        from repro.nn import Parameter
        from repro.nn import init as nn_init

        if n_segments is not None:
            self.pos_t = Parameter(nn_init.normal((n_segments, d_model), std=0.02))
        else:
            self.pos_t = None
        if num_entities is not None:
            self.pos_e = Parameter(nn_init.normal((num_entities, d_model), std=0.02))
        else:
            self.pos_e = None
        # Position-wise feed-forward sublayer per branch (the standard
        # companion of any attention mixer; kept single-layer as Sec. VIII-A
        # specifies "a single-layer structure" for each extractor).
        self.ffn_t1 = Linear(d_model, 2 * d_model)
        self.ffn_t2 = Linear(2 * d_model, d_model)
        self.ffn_e1 = Linear(d_model, 2 * d_model)
        self.ffn_e2 = Linear(2 * d_model, d_model)
        self.ffn_act = GELU()
        self.norm_t2 = LayerNorm(d_model)
        self.norm_e2 = LayerNorm(d_model)
        # Optional deeper prototype-attentive layers (extension; see
        # repro.core.deep).  Layer-1's hard assignment is reused.
        from repro.core.deep import DeepProtoBlock
        from repro.nn import ModuleList

        k = prototypes.shape[0]
        self.deep_t = ModuleList(
            [DeepProtoBlock(k, d_model) for _ in range(n_layers - 1)]
        )
        self.deep_e = ModuleList(
            [DeepProtoBlock(k, d_model) for _ in range(n_layers - 1)]
        )

    def forward(self, segments: Tensor) -> tuple[Tensor, Tensor]:
        if segments.ndim != 4 or segments.shape[-1] != self.segment_length:
            raise ValueError(
                f"expected (B, N, l, p={self.segment_length}), got {segments.shape}"
            )
        batch, num_entities, n_segments, p = segments.shape

        # Temporal branch: one length-l sequence per (sample, entity).
        temporal_tokens = segments.reshape(batch * num_entities, n_segments, p)
        shared_t, shared_e = (), ()
        if self.mixer_kind == "proto":
            # Entity tokens are a row permutation of the temporal tokens
            # and both mixers hold one bank, so one distance op serves
            # both (distances carry no gradient).
            k = self.temporal_mixer.num_prototypes
            distances_t = self.temporal_mixer.distances(temporal_tokens)
            distances_e = ag.swapaxes(
                distances_t.reshape(batch, num_entities, n_segments, k), 1, 2
            ).reshape(batch * n_segments, num_entities, k)
            shared_t, shared_e = (distances_t,), (distances_e,)
        mixed_t = self.temporal_mixer(temporal_tokens, *shared_t)
        residual_t = self.embed_t(temporal_tokens)
        if self.pos_t is not None:
            residual_t = residual_t + self.pos_t
        h_t = self.norm_t(mixed_t + residual_t)
        h_t = self.norm_t2(h_t + self.ffn_t2(self.ffn_act(self.ffn_t1(h_t))))
        if len(self.deep_t):
            routing_t = self.temporal_mixer.routing(temporal_tokens, *shared_t)
            for block in self.deep_t:
                h_t = block(h_t, routing_t)
        h_t = h_t.reshape(batch, num_entities, n_segments, self.d_model)

        # Entity branch: one length-N sequence per (sample, segment slot).
        entity_tokens = ag.swapaxes(segments, 1, 2)  # (B, l, N, p)
        entity_tokens = entity_tokens.reshape(batch * n_segments, num_entities, p)
        mixed_e = self.entity_mixer(entity_tokens, *shared_e)
        residual_e = self.embed_e(entity_tokens)
        if self.pos_e is not None:
            residual_e = residual_e + self.pos_e
        h_e = self.norm_e(mixed_e + residual_e)
        h_e = self.norm_e2(h_e + self.ffn_e2(self.ffn_act(self.ffn_e1(h_e))))
        if len(self.deep_e):
            routing_e = self.entity_mixer.routing(entity_tokens, *shared_e)
            for block in self.deep_e:
                h_e = block(h_e, routing_e)
        h_e = h_e.reshape(batch, n_segments, num_entities, self.d_model)
        h_e = ag.swapaxes(h_e, 1, 2)  # (B, N, l, d), aligned with h_t
        return h_t, h_e

    def _extra_repr(self) -> str:
        return f"(mixer={self.mixer_kind}, p={self.segment_length}, d={self.d_model})"
