"""Streaming (deployment-style) wrapper around a trained FOCUS model.

The paper's online phase assumes a fixed prototype set discovered
offline, arguing prototypes are "relatively universal" (Sec. I).  In a
real deployment the model consumes observations incrementally, and the
prototype set may eventually go stale as the system drifts (the
Sec. VIII-D phenomenon).  :class:`StreamingFOCUS` provides both pieces:

- a ring buffer that turns a stream of ``(N,)`` observations into
  forecasts as soon as a full lookback window is available;
- optional *novelty-triggered prototype adaptation* (an extension beyond
  the paper): when an incoming segment's nearest-prototype distance
  exceeds a drift threshold, the nearest prototype is nudged toward the
  segment with an exponential moving average, keeping the offline
  dictionary fresh without re-clustering.

Long-lived operation additionally requires surviving bad inputs and
bad model outputs, so the wrapper is hardened end to end:

- **Ingestion guardrails** — every observation passes through a
  configurable NaN policy (``reject`` / ``impute_last`` /
  ``impute_prototype``, see
  :func:`repro.robustness.health.apply_nan_policy`) before touching
  the ring, so the buffer only ever holds finite values.
- **Degraded-mode forecasting** — if the model forward raises or
  returns non-finite values, :meth:`forecast` answers from a
  model-free fallback (persistence or seasonal-naive) instead of
  propagating the failure; the result is always finite and its
  provenance is recorded in ``stats.last_forecast_source``.
- **Health state machine** — per-forecast outcomes drive a
  ``HEALTHY → DEGRADED → FAILED`` monitor
  (:class:`repro.robustness.health.HealthMonitor`), exposed through
  :attr:`health` and mirrored into :class:`StreamingStats` for
  monitoring.
- **Telemetry and drift alarms** (``docs/observability.md``) — an
  attached :class:`~repro.telemetry.MetricsRegistry` receives
  forecast-latency histograms, per-prototype utilization counters,
  assignment-entropy gauges, NaN-policy counters, and health-transition
  counters; a :class:`~repro.telemetry.DriftConfig` activates the
  assignment-drift alarm, which records a *failure* on the health
  monitor when the prototype bank stops describing the stream — so a
  silently-stale dictionary degrades serving health before accuracy
  craters.  With neither attached, none of this touches the hot path.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro import autograd as ag
from repro.autograd import Tensor
from repro.core.clustering import composite_distance
from repro.core.model import FOCUSForecaster
from repro.robustness.fallback import persistence_forecast, seasonal_naive_forecast
from repro.robustness.health import (
    NAN_POLICIES,
    HealthMonitor,
    HealthState,
    apply_nan_policy,
)
from repro.telemetry.drift import DriftConfig, DriftMonitor


@dataclasses.dataclass(frozen=True)
class IngestResult:
    """Outcome of one guarded ring write."""

    accepted: int = 0
    imputed: int = 0
    rejected: int = 0


class ObservationRing:
    """Versioned lookback ring buffer with NaN-policy ingestion guards.

    The single-entity heart of both :class:`StreamingFOCUS` and the
    multi-entity serving layer (:mod:`repro.serving`): fixed ``(L, N)``
    storage, an O(N) per-row write, and a monotonically increasing
    :attr:`version` that advances once per *accepted* row — the key the
    serving :class:`~repro.serving.ForecastCache` uses to guarantee a
    cached forecast can never be served against newer data.

    Parameters
    ----------
    lookback / num_entities:
        Window geometry ``(L, N)``.
    dtype:
        Storage dtype (the model's parameter dtype).
    nan_policy:
        One of :data:`repro.robustness.health.NAN_POLICIES`; applied to
        every incoming row/block before it touches the storage.
    fill_value:
        Zero-arg callable providing the scalar fill for the
        ``impute_prototype`` policy (typically the prototype-dictionary
        mean); ignored by the other policies.
    """

    def __init__(
        self,
        lookback: int,
        num_entities: int,
        dtype=np.float64,
        nan_policy: str = "reject",
        fill_value=None,
    ):
        if lookback < 1 or num_entities < 1:
            raise ValueError("lookback and num_entities must be positive")
        if nan_policy not in NAN_POLICIES:
            raise ValueError(
                f"unknown nan_policy {nan_policy!r}; choose from {NAN_POLICIES}"
            )
        self.lookback = lookback
        self.num_entities = num_entities
        self.nan_policy = nan_policy
        self._fill_value = fill_value
        self.storage = np.zeros((lookback, num_entities), dtype=dtype)
        self.head = 0
        self.filled = 0
        self.count = 0  # total accepted rows, ever

    @property
    def ready(self) -> bool:
        """True once a full lookback window has been observed."""
        return self.filled >= self.lookback

    @property
    def version(self) -> int:
        """Monotonic content version: bumps once per accepted row."""
        return self.count

    def last_written_row(self) -> np.ndarray | None:
        if self.filled == 0:
            return None
        # Copy: callers hold this across subsequent writes (and mutating
        # a returned row must never corrupt the ring).
        return self.storage[(self.head - 1) % self.lookback].copy()

    def _guard(self, block: np.ndarray) -> tuple[np.ndarray, int, int]:
        # All-finite fast path: the policy never runs, so neither the
        # fill value nor the (copied) last row is needed.
        if np.isfinite(block).all():
            return block, 0, 0
        fill = 0.0
        if self.nan_policy == "impute_prototype" and self._fill_value is not None:
            fill = float(self._fill_value())
        last_row = self.last_written_row() if self.nan_policy == "impute_last" else None
        return apply_nan_policy(block, self.nan_policy, last_row=last_row, fill_value=fill)

    def observe(self, observation: np.ndarray) -> IngestResult:
        """Guard and write one ``(N,)`` row; returns what happened."""
        observation = np.asarray(observation, dtype=self.storage.dtype)
        if observation.shape != (self.num_entities,):
            raise ValueError(
                f"expected ({self.num_entities},) observation, "
                f"got {observation.shape}"
            )
        guarded, imputed, rejected = self._guard(observation[None])
        if len(guarded) == 0:
            return IngestResult(accepted=0, imputed=imputed, rejected=rejected)
        self.push(guarded[0])
        return IngestResult(accepted=1, imputed=imputed, rejected=rejected)

    def push(self, row: np.ndarray) -> None:
        """Write one ``(N,)`` row that is finite in the storage dtype,
        skipping the guard (the caller checked it, e.g. a whole ingest
        step at once)."""
        self.storage[self.head] = row
        self.head = (self.head + 1) % self.lookback
        self.filled = min(self.filled + 1, self.lookback)
        self.count += 1

    def observe_many(self, observations: np.ndarray) -> IngestResult:
        """Guard and write a ``(T, N)`` block of rows."""
        observations = np.asarray(observations, dtype=self.storage.dtype)
        if observations.ndim != 2 or observations.shape[1] != self.num_entities:
            raise ValueError(
                f"expected (T, {self.num_entities}) block, "
                f"got {observations.shape}"
            )
        observations, imputed, rejected = self._guard(observations)
        total = len(observations)
        if total == 0:
            return IngestResult(accepted=0, imputed=imputed, rejected=rejected)
        lookback = self.lookback
        # Only the trailing ``lookback`` rows can survive in the ring.
        keep = observations[-lookback:]
        offset = self.head + (total - len(keep))
        indices = (offset + np.arange(len(keep))) % lookback
        self.storage[indices] = keep
        self.head = (self.head + total) % lookback
        self.filled = min(self.filled + total, lookback)
        self.count += total
        return IngestResult(accepted=total, imputed=imputed, rejected=rejected)

    def window(self) -> np.ndarray:
        """The lookback window in chronological order (oldest first).

        Materialized on demand; slots not yet overwritten hold zeros.
        Always a fresh copy — never the live ring storage — so callers
        holding the result do not see it mutate on the next
        :meth:`observe`.
        """
        if self.head == 0:
            return self.storage.copy()
        return np.concatenate([self.storage[self.head :], self.storage[: self.head]])

    def recent(self, steps: int) -> np.ndarray:
        """The last ``steps`` observations in chronological order."""
        indices = (self.head - steps + np.arange(steps)) % self.lookback
        return self.storage[indices]


@dataclasses.dataclass
class StreamingStats:
    """Counters exposed for monitoring a deployment."""

    observations: int = 0
    forecasts: int = 0
    novel_segments: int = 0
    prototype_updates: int = 0
    # Guardrail and degraded-mode counters.
    rejected_observations: int = 0
    imputed_values: int = 0
    model_failures: int = 0
    fallback_forecasts: int = 0
    health: str = HealthState.HEALTHY.value
    last_forecast_source: str = ""
    # Drift-monitor readouts (0 until a DriftConfig is attached).
    drift_alarms: int = 0
    assignment_entropy: float = 0.0
    assignment_drift: float = 0.0


class StreamingFOCUS:
    """Incremental forecasting facade over a trained FOCUS model.

    Parameters
    ----------
    model:
        A trained :class:`FOCUSForecaster`.
    adapt_prototypes:
        Enable novelty-triggered EMA adaptation of the prototype set.
    novelty_threshold:
        A segment is *novel* when its nearest-prototype composite distance
        exceeds ``novelty_threshold`` times the running median distance.
    ema:
        Step size of the prototype nudge (0 disables movement).
    nan_policy:
        What to do with non-finite observations before they enter the
        ring buffer: ``"reject"`` drops the offending rows (counted in
        ``stats.rejected_observations``), ``"impute_last"``
        forward-fills per entity, ``"impute_prototype"`` substitutes
        the prototype-dictionary mean.
    fallback:
        Degraded-mode forecaster used when the model fails:
        ``"persistence"`` or ``"seasonal"`` (requires
        ``seasonal_period``).
    seasonal_period:
        Season length (in steps) for the seasonal-naive fallback.
    fail_threshold / recover_after:
        Consecutive-failure count that marks the stream ``FAILED``, and
        consecutive-success count that restores ``HEALTHY``.
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRegistry` receiving
        forecast latency, utilization, entropy, NaN, and health metrics.
    drift:
        Optional :class:`~repro.telemetry.DriftConfig` enabling the
        assignment-drift alarm (requires a prototype mixer); drifted
        forecasts are recorded as health *failures*.
    run_logger:
        Optional :class:`~repro.telemetry.RunLogger` receiving
        ``health_transition`` and ``drift_alarm`` JSONL events.
    """

    def __init__(
        self,
        model: FOCUSForecaster,
        adapt_prototypes: bool = False,
        novelty_threshold: float = 4.0,
        ema: float = 0.05,
        nan_policy: str = "reject",
        fallback: str = "persistence",
        seasonal_period: int | None = None,
        fail_threshold: int = 5,
        recover_after: int = 3,
        telemetry=None,
        drift: DriftConfig | None = None,
        run_logger=None,
    ):
        if novelty_threshold <= 1.0:
            raise ValueError("novelty_threshold must exceed 1")
        if not 0.0 <= ema < 1.0:
            raise ValueError("ema must lie in [0, 1)")
        if nan_policy not in NAN_POLICIES:
            raise ValueError(
                f"unknown nan_policy {nan_policy!r}; choose from {NAN_POLICIES}"
            )
        if fallback not in ("persistence", "seasonal"):
            raise ValueError(
                f"unknown fallback {fallback!r}; choose 'persistence' or 'seasonal'"
            )
        if fallback == "seasonal" and (seasonal_period is None or seasonal_period < 1):
            raise ValueError("the seasonal fallback requires a positive seasonal_period")
        self.model = model
        self.model.eval()
        self.adapt_prototypes = adapt_prototypes
        self.novelty_threshold = novelty_threshold
        self.ema = ema
        self.nan_policy = nan_policy
        self.fallback = fallback
        self.seasonal_period = seasonal_period
        config = model.config
        # True ring buffer (see ObservationRing): fixed storage, O(N) row
        # writes, ingestion guards, and a content version.  StreamingFOCUS
        # is now a thin single-entity wrapper over the same primitive the
        # multi-entity serving layer (repro.serving) builds on.
        model_dtype = next(iter(model.parameters())).data.dtype
        self.ring = ObservationRing(
            config.lookback,
            config.num_entities,
            dtype=model_dtype,
            nan_policy=nan_policy,
            fill_value=self._imputation_fill,
        )
        self._distance_history: list[float] = []
        self._telemetry = telemetry
        self._run_logger = run_logger
        self._health = HealthMonitor(
            fail_threshold=fail_threshold,
            recover_after=recover_after,
            on_transition=self._on_health_transition
            if (telemetry is not None or run_logger is not None)
            else None,
        )
        self.stats = StreamingStats()
        self.drift_monitor: DriftMonitor | None = None
        if drift is not None:
            if model.prototype_values() is None:
                raise ValueError(
                    "drift monitoring requires a prototype mixer "
                    "(the attn/linear variants have no dictionary)"
                )
            self.drift_monitor = DriftMonitor(
                config.num_prototypes,
                config=drift,
                registry=telemetry,
                run_logger=run_logger,
            )
        # Pre-resolved instrument handles (None when telemetry is off) so
        # the forecast path never takes the registry lock.
        self._instruments = None
        if telemetry is not None:
            self._instruments = {
                "latency": telemetry.histogram(
                    "focus_forecast_latency_seconds",
                    help="end-to-end forecast latency",
                ),
                "model": telemetry.counter(
                    "focus_forecasts_total", labels={"source": "model"},
                    help="forecasts answered by the model",
                ),
                "fallback": telemetry.counter(
                    "focus_forecasts_total", labels={"source": "fallback"},
                    help="forecasts answered by the degraded-mode fallback",
                ),
                "failures": telemetry.counter(
                    "focus_model_failures_total", help="model forward failures"
                ),
                "imputed": telemetry.counter(
                    "focus_nan_imputed_total",
                    help="non-finite values imputed at ingestion",
                ),
                "rejected": telemetry.counter(
                    "focus_nan_rejected_total",
                    help="observation rows rejected at ingestion",
                ),
                "novel": telemetry.counter(
                    "focus_novel_segments_total",
                    help="segments beyond the novelty threshold",
                ),
                "proto_updates": telemetry.counter(
                    "focus_prototype_updates_total",
                    help="EMA prototype adaptations",
                ),
                "novelty_rate": telemetry.gauge(
                    "focus_novelty_rate",
                    help="novel segments per observed segment",
                ),
                "health": telemetry.gauge(
                    "focus_health_state",
                    help="0=HEALTHY 1=DEGRADED 2=FAILED",
                ),
            }

    _HEALTH_LEVELS = {
        HealthState.HEALTHY.value: 0,
        HealthState.DEGRADED.value: 1,
        HealthState.FAILED.value: 2,
    }

    def _on_health_transition(self, src: str, dst: str, reason: str, tick: int) -> None:
        if self._telemetry is not None:
            self._telemetry.counter(
                "focus_health_transitions_total", labels={"to": dst},
                help="serving-health state changes",
            ).inc()
            self._instruments["health"].set(self._HEALTH_LEVELS[dst])
        if self._run_logger is not None:
            self._run_logger.event(
                "health_transition",
                **{"from": src, "to": dst, "reason": reason, "tick": tick},
            )

    @property
    def ready(self) -> bool:
        """True once a full lookback window has been observed."""
        return self.ring.ready

    @property
    def health(self) -> HealthState:
        """Current serving-health state of the stream."""
        return self._health.state

    # Backwards-compatible views of the ring internals (tests and
    # analysis code reach for these).
    @property
    def _ring(self) -> np.ndarray:
        return self.ring.storage

    @property
    def _head(self) -> int:
        return self.ring.head

    @property
    def _filled(self) -> int:
        return self.ring.filled

    @property
    def _buffer(self) -> np.ndarray:
        """The lookback window in chronological order (always a copy)."""
        return self.ring.window()

    def _recent(self, steps: int) -> np.ndarray:
        """The last ``steps`` observations in chronological order."""
        return self.ring.recent(steps)

    # ------------------------------------------------------------------
    # Ingestion guardrails
    # ------------------------------------------------------------------
    def _imputation_fill(self) -> float:
        """Scalar fill for prototype-mean imputation (0 without prototypes)."""
        values = getattr(self.model, "prototype_values", None)
        prototypes = values() if callable(values) else None
        if prototypes is None or prototypes.size == 0:
            return 0.0
        return float(np.mean(prototypes))

    def _note_ingest(self, result: IngestResult) -> None:
        self.stats.observations += result.accepted
        self.stats.imputed_values += result.imputed
        self.stats.rejected_observations += result.rejected
        if self._instruments is not None and (result.imputed or result.rejected):
            if result.imputed:
                self._instruments["imputed"].inc(result.imputed)
            if result.rejected:
                self._instruments["rejected"].inc(result.rejected)

    def observe(self, observation: np.ndarray) -> None:
        """Push one time step of ``(N,)`` values into the buffer.

        Non-finite values are handled per ``nan_policy``; under
        ``"reject"`` a bad observation is dropped entirely (the ring and
        the ``observations`` counter are untouched).
        """
        result = self.ring.observe(observation)
        self._note_ingest(result)
        p = self.model.config.segment_length
        if (
            result.accepted
            and self.adapt_prototypes
            and self.ring.filled >= p
            and self.stats.observations % p == 0
        ):
            self._maybe_adapt(self._recent(p))

    def observe_many(self, observations: np.ndarray) -> None:
        """Push a ``(T, N)`` block of observations."""
        observations = np.asarray(observations, dtype=self.ring.storage.dtype)
        if self.adapt_prototypes:
            # Adaptation checks fire on per-segment boundaries; route
            # through observe() (cheap) to keep them exact.
            for row in observations:
                self.observe(row)
            return
        self._note_ingest(self.ring.observe_many(observations))

    # ------------------------------------------------------------------
    # Forecasting (with degraded-mode fallback)
    # ------------------------------------------------------------------
    def _fallback_forecast(self, window: np.ndarray) -> np.ndarray:
        horizon = self.model.config.horizon
        if self.fallback == "seasonal":
            return seasonal_naive_forecast(window, horizon, self.seasonal_period)
        return persistence_forecast(window, horizon)

    def forecast(self) -> np.ndarray:
        """Forecast the next ``horizon`` steps from the current buffer.

        Guaranteed to return a finite ``(horizon, N)`` array: when the
        model forward raises or emits non-finite values the configured
        fallback answers instead, the health monitor records the
        failure, and ``stats.last_forecast_source`` flags the forecast
        as ``"fallback:<kind>"`` rather than ``"model"``.
        """
        if not self.ready:
            raise RuntimeError(
                f"need {self.model.config.lookback} observations, have {self._filled}"
            )
        instruments = self._instruments
        started = time.perf_counter() if instruments is not None else 0.0
        window = self._buffer
        failure = None
        prediction = None
        try:
            with ag.no_grad():
                # .astype always copies: the returned array must never
                # alias engine-owned buffers (the PR 2 _buffer aliasing
                # bug's sibling — callers are free to mutate forecasts).
                prediction = self.model(Tensor(window[None])).data[0].astype(
                    np.float64
                )
            if not np.isfinite(prediction).all():
                failure = "non-finite model output"
        except Exception as error:  # noqa: BLE001 — serving must not crash
            failure = f"model forward raised {type(error).__name__}: {error}"
        self.stats.forecasts += 1
        if failure is None:
            # Drift is judged only on model answers: a fallback window
            # says nothing about the prototype bank.
            drift_reason = self._check_drift(window)
            if drift_reason is None:
                self._health.record_success()
            else:
                self._health.record_failure(drift_reason)
            self.stats.health = self._health.state.value
            self.stats.last_forecast_source = "model"
            if instruments is not None:
                instruments["model"].inc()
                instruments["latency"].observe(time.perf_counter() - started)
            return prediction
        self.stats.model_failures += 1
        self.stats.fallback_forecasts += 1
        self._health.record_failure(failure)
        self.stats.health = self._health.state.value
        self.stats.last_forecast_source = f"fallback:{self.fallback}"
        result = self._fallback_forecast(window)
        if instruments is not None:
            instruments["failures"].inc()
            instruments["fallback"].inc()
            instruments["latency"].observe(time.perf_counter() - started)
        return result

    def set_prototypes(self, prototypes: np.ndarray) -> None:
        """Hot-swap the prototype dictionary and re-arm drift detection.

        The drift baseline describes the *retired* bank's assignment
        distribution; keeping it across a swap would alarm forever on
        healthy traffic.  See :meth:`DriftMonitor.reset
        <repro.telemetry.drift.DriftMonitor.reset>`.
        """
        self.model.set_prototypes(prototypes)
        if self.drift_monitor is not None:
            self.drift_monitor.reset()

    def _check_drift(self, window: np.ndarray) -> str | None:
        """Feed the drift monitor; returns the alarm reason when it fires."""
        monitor = self.drift_monitor
        if monitor is None:
            return None
        profile = self.model.assignment_profile(window)
        summary = monitor.observe(profile["assignments"])
        self.stats.assignment_entropy = summary["entropy"]
        self.stats.assignment_drift = summary["drift"]
        if summary["alarmed"]:
            self.stats.drift_alarms += 1
            return summary["reason"]
        return None

    def emit_stats(self) -> None:
        """Write a ``stream_stats`` snapshot event to the run logger."""
        if self._run_logger is None:
            return
        self._run_logger.event(
            "stream_stats",
            observations=self.stats.observations,
            forecasts=self.stats.forecasts,
            novel_segments=self.stats.novel_segments,
            prototype_updates=self.stats.prototype_updates,
            rejected_observations=self.stats.rejected_observations,
            imputed_values=self.stats.imputed_values,
            model_failures=self.stats.model_failures,
            fallback_forecasts=self.stats.fallback_forecasts,
            drift_alarms=self.stats.drift_alarms,
            health=self.stats.health,
        )

    # ------------------------------------------------------------------
    # Prototype adaptation
    # ------------------------------------------------------------------
    def _prototypes(self) -> np.ndarray:
        return self.model.extractor.temporal_mixer.prototypes

    def _maybe_adapt(self, latest_block: np.ndarray) -> None:
        """EMA-update prototypes for novel segments in the latest block."""
        prototypes = self._prototypes()
        alpha = self.model.config.alpha
        segments = latest_block.T  # (N, p): one fresh segment per entity
        distances = composite_distance(segments, prototypes, alpha)
        nearest = distances.argmin(axis=1)
        nearest_dist = distances[np.arange(len(segments)), nearest]
        # Novelty is judged against the history *before* this block: a
        # burst of novel segments must not inflate the median it is
        # compared against (which would suppress its own detection).
        history = self._distance_history
        median = float(np.median(history)) if history else 0.0
        history.extend(nearest_dist.tolist())
        if len(history) > 1024:
            del history[: len(history) - 1024]
        if median <= 0.0:
            return
        novel = nearest_dist > self.novelty_threshold * median
        novel_count = int(novel.sum())
        self.stats.novel_segments += novel_count
        if self._instruments is not None:
            if novel_count:
                self._instruments["novel"].inc(novel_count)
            segments_seen = max(self.stats.observations // self.model.config.segment_length, 1)
            self._instruments["novelty_rate"].set(
                self.stats.novel_segments / (segments_seen * len(segments))
            )
        if self.ema <= 0.0:
            return
        for segment, proto_idx in zip(segments[novel], nearest[novel]):
            # In-place row update (both mixers share the dictionary);
            # ``prototypes`` aliases the live buffer, so consecutive novel
            # segments hitting the same prototype compound, as before.
            updated = (1.0 - self.ema) * prototypes[proto_idx] + self.ema * segment
            self.model.update_prototype(int(proto_idx), updated)
            self.stats.prototype_updates += 1
            if self._instruments is not None:
                self._instruments["proto_updates"].inc()
