"""The assembled FOCUS forecaster and its ablation variants.

``FOCUSForecaster`` chains the pieces of Secs. V-VII:

1. (offline, before construction) a :class:`SegmentClusterer` produces
   the ``(k, p)`` prototype set from the *training split*;
2. RevIN window normalization (standard practice for long-horizon
   forecasters under distribution shift);
3. segmentation of the lookback window into ``(B, N, l, p)`` tokens;
4. the dual-branch ProtoAttn extractor (Algorithm 3);
5. the Parallel Fusion readout head (Algorithm 4) emitting ``(B, L_f, N)``.

:func:`make_focus_variant` builds the Table IV ablations:
``"attn"`` (FOCUS-Attn), ``"lnr_fusion"`` (FOCUS-LnrFusion) and
``"all_lnr"`` (FOCUS-AllLnr).
"""

from __future__ import annotations

import collections
import dataclasses
import threading

import numpy as np

from repro import autograd as ag
from repro.autograd import Tensor
from repro.autograd.tensor import get_default_dtype
from repro.core.clustering import ClusteringConfig, SegmentClusterer
from repro.core.extractor import DualBranchExtractor
from repro.core.fusion import GatedLinearFusion, ParallelFusion
from repro.engine.lanes import lanes_available, run_two_lanes
from repro.nn import Module, RevIN


@dataclasses.dataclass
class FOCUSConfig:
    """Model hyperparameters (paper Sec. VIII-A defaults where stated).

    ``num_readout`` is m (6 for horizon 96, 21 for horizon 336 in the
    paper); ``alpha=0.2`` is the correlation-loss weight; ``d_model`` was
    128 for PEMS and 64 elsewhere.
    """

    lookback: int
    horizon: int
    num_entities: int
    segment_length: int = 12
    num_prototypes: int = 8
    d_model: int = 64
    num_readout: int = 6
    alpha: float = 0.2
    use_revin: bool = True
    # Branch ablation: "dual" (paper), "temporal" or "entity" feed the
    # fusion head with only one branch's features.
    branch: str = "dual"
    # Assignment ablation: "hard" one-hot routing (paper) or "soft"
    # distance-softmax routing with the given temperature.
    assignment: str = "hard"
    assignment_temperature: float = 1.0
    # Extractor depth (extension): the paper uses 1; deeper stacks add
    # DeepProtoBlock layers that reuse the layer-1 assignment (proto
    # mixer only).
    n_layers: int = 1

    def __post_init__(self):
        if self.branch not in ("dual", "temporal", "entity"):
            raise ValueError(f"unknown branch mode {self.branch!r}")
        if self.lookback % self.segment_length != 0:
            raise ValueError(
                f"lookback {self.lookback} must be divisible by "
                f"segment_length {self.segment_length}"
            )

    @property
    def n_segments(self) -> int:
        return self.lookback // self.segment_length


def plan_chunks(batch: int, cap: int) -> list[int]:
    """Split ``batch`` rows into power-of-two chunks of at most ``cap``.

    Largest first; ``cap`` must itself be a power of two.  With cap 16,
    19 rows run as ``[16, 2, 1]`` and 70 as ``[16, 16, 16, 16, 4, 2]``.
    """
    chunks = [cap] * (batch // cap)
    rest = batch % cap
    while rest:
        top = 1 << (rest.bit_length() - 1)
        chunks.append(top)
        rest -= top
    return chunks


def _prototype_bank(prototypes: np.ndarray, config: FOCUSConfig) -> np.ndarray:
    """``prototypes`` as a ``(k, p)`` array of the default dtype."""
    prototypes = np.asarray(prototypes, dtype=get_default_dtype())
    expected = (config.num_prototypes, config.segment_length)
    if prototypes.shape != expected:
        raise ValueError(f"prototypes shape {prototypes.shape} != expected {expected}")
    return prototypes


def _replay_chunks(chunks: list, prediction: np.ndarray) -> None:
    """Replay ``FOCUSForecaster._chunk_plans`` chunks into ``prediction``.

    Writing each chunk's arena result into the float64 ``prediction`` is
    the copy-out: an arena is reused by the next replay in its lane.
    """
    for chunk, start, plan, arena in chunks:
        prediction[start : start + len(chunk)] = plan.replay(chunk, arena=arena)


class FOCUSForecaster(Module):
    """FOCUS: forecasting with offline clustering using segments.

    Parameters
    ----------
    config:
        Model hyperparameters.
    prototypes:
        ``(k, p)`` prototypes from the offline phase.  If ``None``, call
        :meth:`fit_prototypes` (or classmethod :meth:`from_training_data`)
        before the first forward pass.
    mixer / fusion:
        Internal switches used by :func:`make_focus_variant`.
    """

    def __init__(
        self,
        config: FOCUSConfig,
        prototypes: np.ndarray | None = None,
        mixer: str = "proto",
        fusion: str = "readout",
    ):
        super().__init__()
        self.config = config
        self.mixer_kind = mixer
        self.fusion_kind = fusion
        # Bumped on every prototype mutation (set_prototypes /
        # update_prototype).  The serving ForecastCache keys entries on
        # this so EMA adaptation invalidates stale cached forecasts.
        self._prototype_version = 0
        # Compiled execution plans (repro.engine), keyed by
        # (input shape, input dtype).  Plans read the prototype buffers
        # live, so prototype swaps keep them; only to_dtype evicts.
        # Guarded by a lock: serving threads share the cache.
        self._plans: "collections.OrderedDict" = collections.OrderedDict()
        self._plan_lock = threading.Lock()
        # (key, plan) of the most recent hit, read without the lock.
        self._last_plan: tuple | None = None
        if prototypes is None:
            # Placeholder prototypes; fit_prototypes() replaces them.
            prototypes = np.zeros(
                (config.num_prototypes, config.segment_length),
                dtype=get_default_dtype(),
            )
            self._has_prototypes = mixer != "proto"
        else:
            prototypes = _prototype_bank(prototypes, config)
            self._has_prototypes = True
        if config.use_revin:
            self.revin = RevIN(config.num_entities, affine=True)
        else:
            self.revin = None
        self.extractor = DualBranchExtractor(
            prototypes,
            segment_length=config.segment_length,
            d_model=config.d_model,
            alpha=config.alpha,
            mixer=mixer,
            n_segments=config.n_segments,
            num_entities=config.num_entities,
            assignment=config.assignment,
            temperature=config.assignment_temperature,
            n_layers=config.n_layers if mixer == "proto" else 1,
        )
        if fusion == "readout":
            self.fusion = ParallelFusion(
                config.d_model, config.num_readout, config.horizon, config.n_segments
            )
        elif fusion == "linear":
            self.fusion = GatedLinearFusion(config.d_model, config.n_segments, config.horizon)
        else:
            raise ValueError(f"unknown fusion {fusion!r}")

    # ------------------------------------------------------------------
    # Offline phase
    # ------------------------------------------------------------------
    def fit_prototypes(
        self, train_data: np.ndarray, clustering: ClusteringConfig | None = None
    ) -> SegmentClusterer:
        """Run the offline clustering phase on ``(T, N)`` training data."""
        cfg = self.config
        clustering = clustering or ClusteringConfig(
            num_prototypes=cfg.num_prototypes,
            segment_length=cfg.segment_length,
            alpha=cfg.alpha,
        )
        if (
            clustering.num_prototypes != cfg.num_prototypes
            or clustering.segment_length != cfg.segment_length
        ):
            raise ValueError("clustering config disagrees with model config")
        clusterer = SegmentClusterer(clustering).fit(train_data)
        self.set_prototypes(clusterer.prototypes_)
        return clusterer

    def set_prototypes(self, prototypes: np.ndarray) -> None:
        """Overwrite the ``(k, p)`` prototype bank of both mixers in place."""
        prototypes = _prototype_bank(prototypes, self.config)
        for mixer in (self.extractor.temporal_mixer, self.extractor.entity_mixer):
            if hasattr(mixer, "prototypes"):
                mixer.prototypes[...] = prototypes
        self._has_prototypes = True
        self._prototype_version += 1

    @property
    def prototype_version(self) -> int:
        """Monotonic counter of prototype mutations (cache invalidation)."""
        return self._prototype_version

    def prototype_values(self) -> np.ndarray | None:
        """A copy of the ``(k, p)`` prototype dictionary, or ``None`` when
        the active mixer is prototype-free (``"attn"`` / ``"linear"``).

        Used by streaming guardrails for prototype-mean imputation.
        Always a defensive copy — mutating the result must not corrupt
        the live dictionary shared by both mixers.
        """
        prototypes = getattr(self.extractor.temporal_mixer, "prototypes", None)
        if prototypes is None:
            return None
        return np.array(prototypes, copy=True)

    def assignment_profile(self, window: np.ndarray) -> dict:
        """Nearest-prototype routing profile of a ``(L, N)`` window.

        The drift-monitoring primitive (see
        :mod:`repro.telemetry.drift`): segments the window exactly like
        the online phase, assigns each segment to its nearest prototype
        under the composite distance, and returns

        - ``assignments`` — ``(N * l,)`` prototype indices,
        - ``counts`` — ``(k,)`` utilization histogram,
        - ``entropy`` — normalized assignment entropy in ``[0, 1]``,
        - ``mean_distance`` — mean nearest-prototype distance.
        """
        from repro.telemetry.drift import assignment_entropy

        distances = self._window_distances(np.asarray(window)[None])[0]
        assignments = distances.argmin(axis=1)
        counts = np.bincount(assignments, minlength=self.config.num_prototypes)
        nearest = distances[np.arange(len(distances)), assignments]
        return {
            "assignments": assignments,
            "counts": counts,
            "entropy": assignment_entropy(counts),
            "mean_distance": float(nearest.mean()),
        }

    def assignments(self, windows: np.ndarray) -> np.ndarray:
        """``(B, N * l)`` nearest-prototype indices of ``(B, L, N)``
        windows: row ``b`` is ``assignment_profile(windows[b])``'s
        ``assignments``, from one composite-distance pass over every
        window's segments."""
        return self._window_distances(windows).argmin(axis=-1)

    def _window_distances(self, windows: np.ndarray) -> np.ndarray:
        """Eq. (13) distances ``(B, N * l, k)`` of each window's segments,
        in :func:`~repro.data.segments.segment_series` order (entity 0's
        segments first)."""
        from repro.core.clustering import composite_distance

        prototypes = self.prototype_values()
        if prototypes is None:
            raise RuntimeError(
                "assignment profiles require a prototype mixer "
                "(the attn/linear variants have no dictionary)"
            )
        windows = np.asarray(windows, dtype=np.float64)
        batch, length, num_entities = windows.shape
        p = self.config.segment_length
        n_segments = length // p
        if n_segments == 0:
            raise ValueError(
                f"series of length {length} shorter than segment length {p}"
            )
        segments = (
            windows[:, : n_segments * p]
            .transpose(0, 2, 1)
            .reshape(batch, num_entities * n_segments, p)
        )
        return composite_distance(segments, prototypes, self.config.alpha)

    def update_prototype(self, index: int, value: np.ndarray) -> None:
        """Overwrite one prototype row in place (both mixers stay in sync).

        Used by streaming adaptation: updating a single row avoids
        rebuilding the full ``(k, p)`` dictionary per novel segment.
        """
        # Snapshot the value first: ``value`` may be a view into one
        # mixer's live dictionary, and writing the first mixer's row
        # must not change what the second mixer receives.
        value = np.array(value, copy=True)
        cfg = self.config
        if value.shape != (cfg.segment_length,):
            raise ValueError(
                f"prototype row shape {value.shape} != expected ({cfg.segment_length},)"
            )
        if not 0 <= index < cfg.num_prototypes:
            raise IndexError(
                f"prototype index {index} outside [0, {cfg.num_prototypes})"
            )
        for mixer in (self.extractor.temporal_mixer, self.extractor.entity_mixer):
            # Row assignment below casts to each mixer's prototype dtype.
            if hasattr(mixer, "prototypes"):
                mixer.prototypes[index] = value
        self._prototype_version += 1

    @classmethod
    def from_training_data(
        cls,
        config: FOCUSConfig,
        train_data: np.ndarray,
        clustering: ClusteringConfig | None = None,
    ) -> "FOCUSForecaster":
        """Offline phase + model construction in one call."""
        model = cls(config)
        model.fit_prototypes(train_data, clustering)
        return model

    # ------------------------------------------------------------------
    # Replication (prototype-bank / weight export for serving fleets)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A picklable snapshot that fully reconstructs this model.

        The export half of the serving-fleet replication protocol
        (:mod:`repro.serving.fleet`): the paper's offline clustering
        makes the model a small read-only artifact at serving time, so
        shipping ``(config, weights, prototypes)`` to a worker process
        yields a bit-identical replica.  Prototypes ride along inside
        the state dict (they are registered buffers).
        """
        dtype = next(iter(self.parameters())).data.dtype
        return {
            "config": dataclasses.asdict(self.config),
            "mixer": self.mixer_kind,
            "fusion": self.fusion_kind,
            "dtype": np.dtype(dtype).name,
            "state": self.state_dict(),
            "prototype_version": self._prototype_version,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "FOCUSForecaster":
        """Rebuild a bit-identical replica from :meth:`snapshot`.

        The import half of fleet replication: reconstructs the module
        tree under the snapshot's dtype, restores every parameter and
        buffer (including the prototype dictionary), and resumes the
        prototype version counter so replica caches fence consistently.
        """
        from repro.autograd.tensor import default_dtype

        config = FOCUSConfig(**snapshot["config"])
        with default_dtype(np.dtype(snapshot["dtype"])):
            model = cls(config, mixer=snapshot["mixer"], fusion=snapshot["fusion"])
        model.load_state_dict(snapshot["state"])
        model._has_prototypes = True
        model._prototype_version = snapshot["prototype_version"]
        model.eval()
        return model

    # ------------------------------------------------------------------
    # Online phase
    # ------------------------------------------------------------------
    def forward(self, window: Tensor) -> Tensor:
        """Forecast ``(B, L_f, N)`` from a lookback window ``(B, L, N)``."""
        if not self._has_prototypes:
            raise RuntimeError(
                "prototypes not fitted; call fit_prototypes() or pass them in"
            )
        cfg = self.config
        if window.ndim != 3 or window.shape[1] != cfg.lookback or window.shape[2] != cfg.num_entities:
            raise ValueError(
                f"expected (B, {cfg.lookback}, {cfg.num_entities}) window, got {window.shape}"
            )
        if self.revin is not None:
            window = self.revin.normalize(window)
        batch = window.shape[0]
        # (B, L, N) -> (B, N, l, p)
        segments = ag.swapaxes(window, 1, 2).reshape(
            batch, cfg.num_entities, cfg.n_segments, cfg.segment_length
        )
        h_t, h_e = self.extractor(segments)
        if cfg.branch == "temporal":
            h_e = h_t
        elif cfg.branch == "entity":
            h_t = h_e
        forecast = self.fusion(h_t, h_e)  # (B, N, L_f)
        forecast = ag.swapaxes(forecast, 1, 2)  # (B, L_f, N)
        if self.revin is not None:
            forecast = self.revin.denormalize(forecast)
        return forecast

    def forecast_batch(self, windows: np.ndarray, engine: str = "eager") -> np.ndarray:
        """Batched inference: ``(B, L, N)`` windows → ``(B, L_f, N)``.

        The serving hot path (:class:`repro.serving.MicroBatcher`): one
        gradient-free forward amortizes segment embedding and ProtoAttn
        across ``B`` concurrent requests.  Every per-sample computation
        in the network (RevIN statistics, prototype assignment, the
        attention rows, the fusion readout) is independent across the
        batch axis, so in float64 each row of the result is bit-identical
        to a single-window forward of the same window — the invariant the
        serving equivalence suite (``tests/serving``) pins down.

        ``engine`` selects the executor: ``"eager"`` (default here) runs
        the autograd forward and is the reference implementation;
        ``"plan"`` (the serving default) replays compiled
        :class:`repro.engine.ExecutionPlan` objects — bit-identical to
        eager in float64 (``tests/plan`` pins it) but free of per-op
        Python dispatch.  The plan engine runs any batch as power-of-two
        row chunks of at most :attr:`PLAN_MAX_ROWS` (B=19 as 16+2+1), so
        at most five plans serve every batch size; the independence of
        rows keeps the result bit-identical.  Plans are traced on first
        use per (chunk shape, dtype), survive prototype swaps (they read
        the prototype buffers live), are evicted only by ``to_dtype``,
        and replay concurrently from per-thread arenas.  A batch of at
        least :attr:`TWO_LANE_MIN_ROWS` rows replays as two row halves,
        at once on the caller and the engine's helper thread when this
        process may use two CPUs and that measures cheaper than one
        after the other (:mod:`repro.engine.lanes`).

        Returns a fresh float64 array that aliases no internal buffer.
        """
        windows = np.asarray(windows)
        cfg = self.config
        if windows.ndim != 3 or windows.shape[1:] != (cfg.lookback, cfg.num_entities):
            raise ValueError(
                f"expected (B, {cfg.lookback}, {cfg.num_entities}) windows, "
                f"got {windows.shape}"
            )
        if engine == "plan":
            if windows.dtype.kind != "f":
                # Mirror Tensor.__init__'s coercion of non-float inputs so
                # the plan's input signature matches what eager would run.
                windows = windows.astype(get_default_dtype())
            rows = len(windows)
            if rows >= self.TWO_LANE_MIN_ROWS and lanes_available():
                # Rows are independent: the caller replays the first
                # half while the engine's helper thread replays the
                # second (or the caller both, when that is cheaper),
                # each lane writing its rows into ``prediction``.
                prediction = np.empty((rows, cfg.horizon, cfg.num_entities))
                split = (rows + 1) // 2
                # Fetch (and trace) both halves' plans and arenas before
                # the lanes start: the lanes then only replay, a trace
                # never skews the cost they measure of one way or the
                # other, and the second lane's arena is allocated here,
                # on this thread, whichever thread replays it.
                head = self._chunk_plans(windows[:split])
                tail = self._chunk_plans(windows[split:], lane=1)
                run_two_lanes(
                    lambda: _replay_chunks(head, prediction[:split]),
                    lambda: _replay_chunks(tail, prediction[split:]),
                    units=rows,
                )
                return prediction
            chunks = self._chunk_plans(windows)
            if len(chunks) == 1:
                # .astype copies the arena result out: callers may
                # mutate the forecasts.
                return chunks[0][2].replay(windows).astype(np.float64)
            prediction = np.empty((rows, cfg.horizon, cfg.num_entities))
            _replay_chunks(chunks, prediction)
            return prediction
        if engine != "eager":
            raise ValueError(
                f"unknown engine {engine!r}; choose 'eager' or 'plan'"
            )
        with ag.no_grad():
            prediction = self(Tensor(windows)).data
        # .astype always copies — serving hands forecasts to callers that
        # may mutate them.
        return prediction.astype(np.float64)

    # ------------------------------------------------------------------
    # Plan engine (repro.engine)
    # ------------------------------------------------------------------
    #: Largest chunk the plan engine replays; bigger batches split into
    #: several chunks.  Power-of-two chunk sizes up to this cap need at
    #: most log2(PLAN_MAX_ROWS) + 1 = 5 plans per dtype.  On one thread
    #: a 32-row chunk replays no faster than two 16-row chunks (perfbench
    #: config) while its per-thread arena is twice the size, and the
    #: two-lane split already halves every batch of 32 rows or more.
    PLAN_MAX_ROWS = 16
    #: Plans kept per model: the five chunk shapes of one dtype fit.
    PLAN_CACHE_CAPACITY = 8
    #: Smallest batch the plan engine replays as two row halves on two
    #: threads (:func:`repro.engine.lanes.run_two_lanes`).  Measured on
    #: the perfbench config (L=96, N=12, p=12, k=8, d=32), 2 vCPUs with
    #: no steal, medians of 80 alternating rounds in each of three runs,
    #: one lane -> two lanes: B=64 1.63-1.83x, B=32 1.54-1.82x,
    #: B=16 1.40-1.71x, B=8 1.04-1.13x.  Under heavy hypervisor steal
    #: every size read 0.95-1.17x, which is why ``run_two_lanes`` keeps
    #: measuring both ways.  32 splits every full ``max_batch`` chunk
    #: and keeps the 16-row and smaller forwards of maintenance and
    #: shadow scoring on one lane.
    TWO_LANE_MIN_ROWS = 32

    def _chunk_plans(self, windows: np.ndarray, lane: int = 0) -> list:
        """``(chunk, start, plan, arena)`` for each :func:`plan_chunks`
        row chunk of ``windows``, tracing missing plans and building
        missing ``lane`` arenas on this thread."""
        chunks = []
        start = 0
        for rows in plan_chunks(len(windows), self.PLAN_MAX_ROWS):
            chunk = windows[start : start + rows]
            plan = self._plan_for(chunk)
            chunks.append((chunk, start, plan, plan.arena(lane)))
            start += rows
        return chunks

    def _plan_for(self, windows: np.ndarray):
        """Fetch (or trace and compile) the plan for this input signature."""
        key = (windows.shape, windows.dtype.str)
        # Lock-free fast path for the steady state (same shape).
        cached = self._last_plan
        if cached is not None and cached[0] == key:
            return cached[1]
        with self._plan_lock:
            plan = self._plans.get(key)
            if plan is None:
                plan = self._plans[key] = self._trace_plan(windows)
                while len(self._plans) > self.PLAN_CACHE_CAPACITY:
                    self._plans.popitem(last=False)
            else:
                self._plans.move_to_end(key)
            self._last_plan = (key, plan)
            return plan

    def _trace_plan(self, windows: np.ndarray):
        """Capture one eager forward on ``windows`` and lower it."""
        from repro.autograd import capture_graph
        from repro.engine import compile_plan

        with ag.no_grad(), capture_graph() as capture:
            traced = Tensor(windows)
            capture.mark_input(traced)
            output = self(traced)
        plan = compile_plan(capture, [traced], output, self_check=False)
        # The fresh plan must reproduce the traced forward bit-for-bit
        # before it is ever served.  Checking after the capture (every
        # traced intermediate) is released lets the check's arena reuse
        # that memory instead of adding to the trace's peak.
        expected = output.data
        del capture, output
        plan.check([traced.data], expected)
        return plan

    def plan_stats(self):
        """Compile stats of the most recently used plan (or ``None``).

        A :class:`repro.engine.PlanStats`; benches and tests read it to
        report op counts, folded constants, and arena footprint.
        """
        cached = self._last_plan
        return None if cached is None else cached[1].stats

    def _invalidate_plans(self) -> None:
        with self._plan_lock:
            self._plans.clear()
            self._last_plan = None

    def to_dtype(self, dtype) -> "FOCUSForecaster":
        # Casting replaces parameter/buffer arrays, severing the live
        # references a compiled plan holds — retrace from scratch.
        result = super().to_dtype(dtype)
        self._invalidate_plans()
        return result

    def dependency_matrix(self) -> np.ndarray:
        """Temporal-branch dependency map from the last forward (Fig. 13)."""
        mixer = self.extractor.temporal_mixer
        if not hasattr(mixer, "dependency_matrix"):
            raise RuntimeError("dependency matrices require the ProtoAttn mixer")
        return mixer.dependency_matrix()

    def _extra_repr(self) -> str:
        cfg = self.config
        return (
            f"(L={cfg.lookback}, L_f={cfg.horizon}, N={cfg.num_entities}, "
            f"p={cfg.segment_length}, k={cfg.num_prototypes}, d={cfg.d_model}, "
            f"mixer={self.mixer_kind}, fusion={self.fusion_kind})"
        )


def make_focus_variant(
    variant: str,
    config: FOCUSConfig,
    prototypes: np.ndarray | None = None,
) -> FOCUSForecaster:
    """Build FOCUS or one of the Table IV ablation variants.

    - ``"focus"``       — full model (ProtoAttn + readout fusion);
    - ``"attn"``        — FOCUS-Attn: extractors use full self-attention;
    - ``"lnr_fusion"``  — FOCUS-LnrFusion: gated-linear fusion head;
    - ``"all_lnr"``     — FOCUS-AllLnr: linear extractors AND linear fusion.
    """
    variants = {
        "focus": ("proto", "readout"),
        "attn": ("attn", "readout"),
        "lnr_fusion": ("proto", "linear"),
        "all_lnr": ("linear", "linear"),
    }
    if variant not in variants:
        raise ValueError(f"unknown variant {variant!r}; choose from {sorted(variants)}")
    mixer, fusion = variants[variant]
    return FOCUSForecaster(config, prototypes=prototypes, mixer=mixer, fusion=fusion)
