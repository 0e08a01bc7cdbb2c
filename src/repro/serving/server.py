"""ForecastServer: the concurrent serving facade.

Ties the serving subsystem together in front of one trained
:class:`~repro.core.model.FOCUSForecaster`:

- an :class:`~repro.serving.EntitySessionStore` holding per-entity ring
  buffers and NaN-policy state;
- a bounded request queue drained by a background worker that coalesces
  requests within a time/size budget and hands them to the
  :class:`~repro.serving.MicroBatcher` (one batched forward per batch);
- **admission control**: when the queue is full, new requests are not
  queued — they are answered *immediately* from the model-free fallback
  (``source="rejected:<kind>"``), so a burst degrades answer quality
  instead of latency or memory;
- a versioned :class:`~repro.serving.ForecastCache` (invalidated by
  prototype EMA updates via the model's ``prototype_version``);
- a serving-level :class:`~repro.robustness.health.HealthMonitor`, a
  :class:`~repro.telemetry.MetricsRegistry` (queue-depth gauge,
  batch-size/latency histograms, per-source forecast counters, cache
  hit/miss counters), and :class:`~repro.telemetry.RunLogger` events
  (``serve_batch`` / ``serve_reject``).

Two execution modes share every code path below the queue:

- **threaded** (``with server: ...`` or ``server.start()``): clients
  block in :meth:`forecast` while the worker batches across them;
- **synchronous** (no worker): :meth:`forecast` / :meth:`forecast_many`
  drain the queue inline — deterministic, which is what the equivalence
  and golden test suites run.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque

import numpy as np

from repro.core.model import FOCUSForecaster
from repro.core.streaming import IngestResult
from repro.robustness.health import NAN_POLICIES, HealthMonitor, HealthState
from repro.serving.batcher import ForecastResponse, MicroBatcher
from repro.serving.cache import ForecastCache
from repro.serving.session import EntitySessionStore
from repro.telemetry.context import (
    RequestTrace,
    TraceBuffer,
    mint_context,
    mint_contexts,
    record_stage,
)
from repro.telemetry.slo import SloConfig, SloMonitor, response_ok


@dataclasses.dataclass
class ServingConfig:
    """Knobs of the serving layer (see ``docs/api.md``).

    ``trace=True`` mints a :class:`~repro.telemetry.RequestContext` per
    request and records per-stage spans (queue wait, cache lookup,
    batch assembly, forward) into a bounded :class:`TraceBuffer` plus
    ``serve_trace`` run events; ``slo`` attaches a rolling-window
    :class:`~repro.telemetry.SloMonitor` whose violations degrade the
    server's :class:`~repro.robustness.health.HealthMonitor`.
    """

    max_batch: int = 32
    max_delay_ms: float = 2.0
    # Forward engine for the batched model call: "plan" (compiled
    # execution plans, bit-identical in float64) or "eager" (reference).
    engine: str = "plan"
    queue_capacity: int = 256
    cache_capacity: int = 512
    use_cache: bool = True
    nan_policy: str = "reject"
    fallback: str = "persistence"
    seasonal_period: int | None = None
    fail_threshold: int = 5
    recover_after: int = 3
    record_events: bool = False
    trace: bool = False
    trace_keep: int = 256
    slo: SloConfig | None = None

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be non-negative")
        if self.nan_policy not in NAN_POLICIES:
            raise ValueError(
                f"unknown nan_policy {self.nan_policy!r}; choose from {NAN_POLICIES}"
            )
        if self.engine not in ("eager", "plan"):
            raise ValueError(
                f"unknown engine {self.engine!r}; choose 'eager' or 'plan'"
            )


class _QueuedRequest:
    """One in-flight forecast request (a minimal future)."""

    __slots__ = ("session", "done", "response", "context", "submitted")

    def __init__(self, session):
        self.session = session
        self.done = threading.Event()
        self.response: ForecastResponse | None = None
        self.context = None  # RequestContext when tracing is enabled
        self.submitted = time.perf_counter()

    def resolve(self, response: ForecastResponse) -> None:
        self.response = response
        self.done.set()


class ForecastServer:
    """Thread-safe multi-entity serving front-end over one FOCUS model."""

    _HEALTH_LEVELS = {
        HealthState.HEALTHY.value: 0,
        HealthState.DEGRADED.value: 1,
        HealthState.FAILED.value: 2,
    }

    def __init__(
        self,
        model: FOCUSForecaster,
        config: ServingConfig | None = None,
        telemetry=None,
        run_logger=None,
    ):
        self.model = model
        self.model.eval()
        self.config = config or ServingConfig()
        self._telemetry = telemetry
        self._run_logger = run_logger
        self.store = EntitySessionStore.for_model(
            model,
            nan_policy=self.config.nan_policy,
            record_events=self.config.record_events,
        )
        self.cache = (
            ForecastCache(self.config.cache_capacity) if self.config.use_cache else None
        )
        self.health = HealthMonitor(
            fail_threshold=self.config.fail_threshold,
            recover_after=self.config.recover_after,
            on_transition=self._on_health_transition
            if (telemetry is not None or run_logger is not None)
            else None,
        )
        self.batcher = MicroBatcher(
            model,
            cache=self.cache,
            fallback=self.config.fallback,
            seasonal_period=self.config.seasonal_period,
            telemetry=telemetry,
            run_logger=run_logger,
            health=self.health,
            engine=self.config.engine,
        )
        # Observability plane: per-request traces + SLO tracking.  The
        # process name stamps trace spans ("server" locally, "shard-N"
        # inside a fleet worker, which overrides it after construction).
        self.process_name = "server"
        self.trace_buffer = (
            TraceBuffer(self.config.trace_keep) if self.config.trace else None
        )
        self.slo = (
            SloMonitor(
                self.config.slo,
                telemetry=telemetry,
                run_logger=run_logger,
                health=self.health,
            )
            if self.config.slo is not None
            else None
        )
        self._cond = threading.Condition()
        self._queue: deque[_QueuedRequest] = deque()
        self._running = False
        self._thread: threading.Thread | None = None
        self._maintenance = None
        self.rejected_requests = 0
        self._instruments = None
        if telemetry is not None:
            self._instruments = {
                "queue_depth": telemetry.gauge(
                    "serve_queue_depth", help="pending forecast requests"
                ),
                "rejected": telemetry.counter(
                    "serve_forecasts_total", labels={"source": "rejected"},
                    help="requests shed by admission control",
                ),
                "health": telemetry.gauge(
                    "serve_health_state", help="0=HEALTHY 1=DEGRADED 2=FAILED"
                ),
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ForecastServer":
        """Start the background batching worker (idempotent)."""
        with self._cond:
            if self._running:
                return self
            self._running = True
        self._thread = threading.Thread(
            target=self._worker, name="focus-serving-worker", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop the worker, draining every queued request first."""
        with self._cond:
            was_running = self._running
            self._running = False
            self._cond.notify_all()
        if was_running and self._thread is not None:
            self._thread.join()
            self._thread = None
        self.drain()

    def __enter__(self) -> "ForecastServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def running(self) -> bool:
        return self._running

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def observe(self, entity_id: str, observation: np.ndarray):
        """Push one ``(N,)`` observation into ``entity_id``'s session
        (the one-row :meth:`observe_rows`)."""
        return self.observe_rows([entity_id], np.asarray(observation)[None])[0]

    def observe_rows(self, entity_ids: list[str], rows: np.ndarray) -> list[IngestResult]:
        """Push ``rows[i]`` into ``entity_ids[i]``'s session, in order.

        The ingest of one stream step across tenants (ids may repeat):
        finiteness is checked once over the ``(E, N)`` block, each ring
        is written under its own session lock, and an attached
        maintenance worker is tapped once
        (:meth:`~repro.maintenance.MaintenanceWorker.record_many`).
        Returns one :class:`~repro.core.streaming.IngestResult` per row.
        Equivalent to one :meth:`observe` per row in the given order.
        """
        entity_ids = list(entity_ids)
        block = np.asarray(rows, dtype=np.float64)
        expected = (len(entity_ids), self.model.config.num_entities)
        if block.shape != expected:
            raise ValueError(f"expected {expected} observations, got {block.shape}")
        sessions = self.store.sessions(entity_ids)
        maintenance = self._maintenance
        # A value past the storage dtype's range casts to inf and so
        # takes the guarded per-row path below; the cast need not warn.
        with np.errstate(over="ignore"):
            stored = block.astype(self.store.dtype, copy=False)
        if np.isfinite(stored).all():
            results = [session.push(row) for session, row in zip(sessions, block)]
            if maintenance is not None:
                maintenance.record_many(entity_ids, block)
            return results
        # A guarded row may impute from the live bank, which the tap of
        # an earlier row can swap (an inline rollback): keep row order.
        results = []
        for index, (entity_id, session) in enumerate(zip(entity_ids, sessions)):
            results.append(session.observe(block[index]))
            if maintenance is not None:
                maintenance.record_many([entity_id], block[index : index + 1])
        return results

    def observe_many(self, entity_id: str, block: np.ndarray):
        """Push a ``(T, N)`` block into ``entity_id``'s session."""
        result = self.store.observe_many(entity_id, block)
        if self._maintenance is not None:
            block = np.asarray(block, dtype=np.float64)
            self._maintenance.record_many([entity_id] * len(block), block)
        return result

    # ------------------------------------------------------------------
    # Prototype lifecycle
    # ------------------------------------------------------------------
    def set_prototypes(self, prototypes: np.ndarray) -> None:
        """Hot-swap the prototype dictionary with zero downtime.

        Delegates to :meth:`FOCUSForecaster.set_prototypes
        <repro.core.model.FOCUSForecaster.set_prototypes>`, which bumps
        ``prototype_version`` — the micro-batcher re-reads the version
        after every forward and the cache is keyed on it, so in-flight
        batches stay consistent and stale cache entries simply stop
        matching.  No queue pause, no request is ever rejected for a
        swap.
        """
        self.model.set_prototypes(prototypes)

    def attach_maintenance(self, worker) -> None:
        """Wire a :class:`~repro.maintenance.MaintenanceWorker` in.

        Every accepted observation is tapped into the worker's history
        (driving its drift monitor), and the worker's hot-swap callable
        is bound to the model's ``set_prototypes`` (all that
        :meth:`set_prototypes` delegates to).  Binding the server's own
        method would close a server ↔ worker reference cycle that keeps
        the model, and its compiled plans' arenas, alive until the
        cyclic garbage collector runs.  The caller owns the worker's
        lifecycle (``start``/``close``).
        """
        worker.bind(self.model.set_prototypes)
        self._maintenance = worker

    # ------------------------------------------------------------------
    # Forecasting
    # ------------------------------------------------------------------
    def submit(self, entity_id: str) -> _QueuedRequest:
        """Enqueue a forecast request; never blocks on the model.

        Applies admission control: when the queue is at capacity the
        request is answered immediately (already resolved on return)
        from the fallback with ``source="rejected:<kind>"``.
        """
        session = self.store.session(entity_id)
        if not session.ready:
            raise RuntimeError(
                f"entity {entity_id!r} needs {self.model.config.lookback} "
                f"observations, have {session.ring.filled}"
            )
        request = _QueuedRequest(session)
        if self.config.trace:
            request.context = mint_context(entity_id)
        with self._cond:
            depth = len(self._queue)
            if depth < self.config.queue_capacity:
                self._queue.append(request)
                if self._instruments is not None:
                    self._instruments["queue_depth"].set(len(self._queue))
                self._cond.notify_all()
                return request
        # Shed outside the condition lock: _reject acquires the session
        # lock and runs the fallback forecast, neither of which may
        # happen while holding _cond (lock-order inversion against the
        # batcher, and submitters would serialize behind the fallback).
        self._reject(request, queue_depth=depth)
        return request

    def forecast(self, entity_id: str, timeout: float | None = 30.0) -> ForecastResponse:
        """Request one forecast and wait for the answer.

        With the worker running this blocks while the micro-batcher
        coalesces concurrent requests; without it the queue is drained
        inline (synchronous mode).
        """
        request = self.submit(entity_id)
        if not self._running and not request.done.is_set():
            self.drain()
        if not request.done.wait(timeout):
            raise TimeoutError(
                f"forecast for {entity_id!r} not answered within {timeout}s"
            )
        return request.response

    def forecast_many(
        self,
        entity_ids: list[str],
        contexts: dict | None = None,
        trace: list | None = None,
    ) -> list[ForecastResponse]:
        """Answer one forecast per entity as a single synchronous batch.

        Bypasses the queue: used by the replay CLI, benchmarks, the
        deterministic test suites, and the fleet workers.  Batches of
        more than ``max_batch`` windows are split.

        Tracing modes: with ``contexts``/``trace`` provided (the fleet
        worker path), request ids are stamped and stage spans appended
        to ``trace`` — the *caller* owns trace assembly.  Otherwise,
        when ``config.trace`` is set, contexts are minted here and the
        completed traces recorded locally (buffer + ``serve_trace``
        events + SLO feed).
        """
        sessions = [self.store.session(entity_id) for entity_id in entity_ids]
        step = self.config.max_batch
        chunks = [sessions[start : start + step] for start in range(0, len(sessions), step)]
        responses: list[ForecastResponse] = []
        if contexts is not None or trace is not None:
            for chunk in chunks:
                responses.extend(
                    self.batcher.forecast_sessions(chunk, contexts=contexts, trace=trace)
                )
            return responses
        if not self.config.trace and self.slo is None:
            for chunk in chunks:
                responses.extend(self.batcher.forecast_sessions(chunk))
            return responses
        # Mint every chunk's contexts before the first forward and close
        # out every chunk after the last: the bookkeeping then runs in
        # two tight passes instead of once after each cache-flushing
        # forward.
        minted = [
            mint_contexts([session.entity_id for session in chunk])
            if self.config.trace else None
            for chunk in chunks
        ]
        served = []
        for chunk, chunk_contexts in zip(chunks, minted):
            spans = [] if chunk_contexts is not None else None
            started = time.perf_counter()
            chunk_responses = self.batcher.forecast_sessions(
                chunk, contexts=chunk_contexts, trace=spans
            )
            served.append((chunk_responses, spans, time.perf_counter() - started))
            responses.extend(chunk_responses)
        for (chunk_responses, spans, total), chunk_contexts in zip(served, minted):
            self._finish_requests(
                [chunk_contexts.get(r.entity) for r in chunk_responses]
                if chunk_contexts is not None else None,
                spans, total, [r.source for r in chunk_responses],
            )
        return responses

    def drain(self) -> int:
        """Synchronously serve everything queued; returns requests served."""
        served = 0
        while True:
            batch = self._take_batch(wait=False)
            if not batch:
                return served
            self._serve_batch(batch)
            served += len(batch)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _finish_requests(
        self,
        contexts: list | None,
        spans: list | None,
        total_seconds: float,
        sources: list[str],
    ) -> None:
        """Close out answered requests' observability obligations:
        record each one's merged trace and feed the SLO monitor.

        The requests share ``spans`` and ``total_seconds`` (one served
        batch, or a single request); ``contexts`` runs parallel to
        ``sources`` and may hold None for untraced requests.
        """
        if contexts is not None:
            traced = [context for context in contexts if context is not None]
            spans = spans or []
            if self.trace_buffer is not None:
                self.trace_buffer.record_batch(traced, spans, total_seconds)
            if self._run_logger is not None:
                for context in traced:
                    trace = RequestTrace(context, list(spans), total_seconds)
                    self._run_logger.event("serve_trace", **trace.event_payload())
        if self.slo is not None:
            self.slo.record_many(
                total_seconds * 1e3, [response_ok(source) for source in sources]
            )

    def _reject(self, request: _QueuedRequest, queue_depth: int) -> None:
        """Admission control: answer from the fallback, never queue.

        ``queue_depth`` is a snapshot taken under ``self._cond`` by the
        caller — this method must never touch ``self._queue`` itself, as
        it runs without the condition lock (deliberately: it acquires
        the session lock and computes a fallback forecast, both of which
        are forbidden while holding ``_cond``).
        """
        session = request.session
        with session.lock:
            window = session.ring.window()
            version = session.ring.version
            session.stats.forecasts += 1
            session.stats.rejected_requests += 1
        forecast = self.batcher._fallback_forecast(window)
        self.rejected_requests += 1
        if self._instruments is not None:
            self._instruments["rejected"].inc()
        context = request.context
        if self._run_logger is not None:
            extra = {}
            if context is not None:
                extra = {"request_id": context.request_id, "trace_id": context.trace_id}
            self._run_logger.event(
                "serve_reject",
                entity=session.entity_id,
                queue_depth=queue_depth,
                **extra,
            )
        source = f"rejected:{self.config.fallback}"
        request.resolve(
            ForecastResponse(
                session.entity_id,
                forecast,
                source,
                version,
                request_id=context.request_id if context is not None else "",
            )
        )
        # A shed request still burns error budget: its latency is the
        # fallback's, its outcome degraded.
        self._finish_requests(
            None, None, time.perf_counter() - request.submitted, [source]
        )

    def _take_batch(self, wait: bool = True) -> list[_QueuedRequest]:
        """Pop up to ``max_batch`` requests, coalescing within the delay
        budget; empty list when the queue is idle (or shut down)."""
        max_batch = self.config.max_batch
        delay = self.config.max_delay_ms / 1e3
        with self._cond:
            if wait:
                while not self._queue and self._running:
                    self._cond.wait(0.1)
            if not self._queue:
                return []
            batch = [self._queue.popleft()]
            deadline = time.perf_counter() + delay
            while len(batch) < max_batch:
                if self._queue:
                    batch.append(self._queue.popleft())
                    continue
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not wait or not self._running:
                    break
                self._cond.wait(remaining)
            if self._instruments is not None:
                self._instruments["queue_depth"].set(len(self._queue))
            return batch

    def _serve_batch(self, batch: list[_QueuedRequest]) -> None:
        contexts = None
        spans = None
        taken = time.perf_counter()
        if self.config.trace:
            contexts = {
                request.session.entity_id: request.context
                for request in batch
                if request.context is not None
            }
            spans = []
        sessions = [request.session for request in batch]
        try:
            # Positional-only when untraced: test doubles and wrappers
            # that shadow forecast_sessions(sessions) keep working.
            responses = (
                self.batcher.forecast_sessions(sessions, contexts, spans)
                if self.config.trace
                else self.batcher.forecast_sessions(sessions)
            )
        except Exception:  # pragma: no cover — defensive: never strand waiters
            depth = self.queue_depth  # snapshot under _cond, once per batch
            for request in batch:
                if not request.done.is_set():
                    self._reject(request, queue_depth=depth)
            return
        done = time.perf_counter()
        for request, response in zip(batch, responses):
            request.resolve(response)
            if self.config.trace or self.slo is not None:
                # Each request's trace: its own queue wait followed by
                # the batch-shared stages it rode.
                own = None
                if request.context is not None:
                    own = []
                    record_stage(
                        own, "queue_wait", taken - request.submitted,
                        started=request.context.origin_ts,
                        process=self.process_name,
                    )
                    own.extend(spans or ())
                self._finish_requests(
                    [request.context], own, done - request.submitted,
                    [response.source],
                )

    def _worker(self) -> None:
        while True:
            batch = self._take_batch(wait=True)
            if not batch:
                with self._cond:
                    if not self._running and not self._queue:
                        return
                continue
            self._serve_batch(batch)

    def _on_health_transition(self, src: str, dst: str, reason: str, tick: int) -> None:
        if self._telemetry is not None:
            self._telemetry.counter(
                "serve_health_transitions_total", labels={"to": dst},
                help="serving-health state changes",
            ).inc()
            self._instruments["health"].set(self._HEALTH_LEVELS[dst])
        if self._run_logger is not None:
            self._run_logger.event(
                "health_transition",
                **{"from": src, "to": dst, "reason": reason, "tick": tick},
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Aggregate serving counters across every session."""
        totals = {
            "entities": 0,
            "observations": 0,
            "forecasts": 0,
            "model_forecasts": 0,
            "cache_hits": 0,
            "fallback_forecasts": 0,
            "rejected_requests": self.rejected_requests,
            "imputed_values": 0,
            "rejected_observations": 0,
        }
        for entity_id in self.store.entities():
            session = self.store.session(entity_id)
            with session.lock:
                stats = session.stats
                totals["entities"] += 1
                totals["observations"] += stats.observations
                totals["forecasts"] += stats.forecasts
                totals["model_forecasts"] += stats.model_forecasts
                totals["cache_hits"] += stats.cache_hits
                totals["fallback_forecasts"] += stats.fallback_forecasts
                totals["imputed_values"] += stats.imputed_values
                totals["rejected_observations"] += stats.rejected_observations
        totals["health"] = self.health.state.value
        if self.cache is not None:
            totals["cache_hit_rate"] = round(self.cache.hit_rate, 4)
        if self.slo is not None:
            totals["slo"] = self.slo.snapshot()
        return totals


def replay_streams(
    server: ForecastServer,
    streams: dict[str, np.ndarray],
    forecast_every: int = 8,
    warmup: int | None = None,
    timeout: float = 30.0,
) -> list[ForecastResponse]:
    """Replay per-entity ``(T, N)`` streams through a server.

    Rows are interleaved across entities in time order (the multi-tenant
    traffic shape), one :meth:`ForecastServer.observe_rows` call per
    step; once an entity's ring is full, a forecast request is issued
    every ``forecast_every`` of its steps.  ``warmup`` overrides
    the number of rows ingested before the first forecast (defaults to
    the model lookback); an entity whose ring is not yet full at a due
    step (short warmup, or NaN-rejected rows) is skipped rather than
    crashing the replay.  Uses the threaded path when the server is
    running, the synchronous path otherwise.  Returns every response in
    issue order.  An empty ``streams`` dict replays nothing.

    Raises :class:`TimeoutError` if a threaded request is not answered
    within ``timeout`` seconds (a stalled or wedged worker must surface
    as an error, never as a silent ``None`` response).
    """
    if forecast_every < 1:
        raise ValueError("forecast_every must be at least 1")
    if not streams:
        return []
    lookback = server.model.config.lookback
    warmup = lookback if warmup is None else warmup
    entity_ids = list(streams)
    responses: list[ForecastResponse] = []
    for step, rows in enumerate(step_blocks(streams)):
        server.observe_rows(entity_ids, rows)
        due: list[str] = []
        if step + 1 >= warmup and (step + 1) % forecast_every == 0:
            due = [
                entity_id
                for entity_id in entity_ids
                if server.store.session(entity_id).ready
            ]
        if not due:
            continue
        if server.running:
            requests = [server.submit(entity_id) for entity_id in due]
            for entity_id, request in zip(due, requests):
                if not request.done.wait(timeout):
                    raise TimeoutError(
                        f"replay forecast for {entity_id!r} not answered "
                        f"within {timeout}s"
                    )
                responses.append(request.response)
        else:
            responses.extend(server.forecast_many(due))
    return responses


def step_blocks(streams: dict[str, np.ndarray]) -> np.ndarray:
    """Per-entity ``(T, N)`` streams as ``(T_min, E, N)`` step blocks:
    ``[t]`` holds every entity's row ``t``, in ``streams`` order."""
    length = min(len(stream) for stream in streams.values())
    return np.stack([np.asarray(stream)[:length] for stream in streams.values()], axis=1)
