"""Sharded multi-process serving fleet: horizontal scale-out of serving.

The paper's offline clustering makes the serving artifact tiny — a
``(k, p)`` prototype dictionary plus a small weight set — so scaling
reads is replication, not resharding of model state.  This module turns
one single-process :class:`~repro.serving.ForecastServer` into a fleet:

- :class:`ShardRouter` consistent-hashes entity ids across ``N`` worker
  *processes* (spawn-safe), each of which owns a full local serving
  stack — an :class:`~repro.serving.EntitySessionStore`, a
  :class:`~repro.serving.MicroBatcher`, and a versioned
  :class:`~repro.serving.ForecastCache` — over a bit-identical model
  replica rebuilt from :meth:`FOCUSForecaster.snapshot
  <repro.core.model.FOCUSForecaster.snapshot>`;
- the read-only prototype bank is published to workers through
  :class:`PrototypeBank`, a ``multiprocessing.shared_memory`` segment
  with a seqlock header carrying the **prototype epoch**.  Workers fence
  every serve on the epoch the router advertises: a worker whose local
  bank (and the shared segment itself) is older than the advertised
  epoch refuses to serve (:class:`StaleEpochError`) rather than answer
  from a stale dictionary.  :meth:`ShardRouter.set_prototypes`
  republishes the bank and bumps the epoch atomically (writers flip the
  seqlock odd before touching data, even after), so readers never see a
  torn bank;
- :func:`replay_fleet` scatter-gathers multi-entity replay traffic:
  streams are partitioned by the hash ring, each shard runs
  :func:`~repro.serving.replay_streams` on its partition, and the
  responses are merged back in global issue order.  Every per-row
  computation is batch-independent, so the merged responses are
  bit-identical (float64) to a single-process replay of the same
  streams — the invariant ``tests/serving/test_fleet.py`` pins;
- **fleet-level admission control**: the router bounds in-flight
  requests per shard; excess traffic is answered immediately from the
  router's last-row cache (persistence fallback,
  ``source="rejected:fleet"``) without touching the worker;
- **worker health**: a per-worker receiver thread detects crashed
  workers (pipe EOF / kill) and the hash ring rehashes their entities
  onto the surviving shards; :meth:`ShardRouter.ping` and
  :meth:`ShardRouter.stats` surface liveness and per-shard serving
  counters (published to telemetry with ``shard`` labels).

Everything crossing the process boundary is plain picklable data
(numpy arrays, dataclasses); the model replica is shipped once at spawn
and only the tiny prototype bank is shared afterwards.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import os
import threading
import time
from contextlib import contextmanager
from multiprocessing import get_context, shared_memory

import numpy as np

from repro.core.model import FOCUSForecaster
from repro.engine.lanes import use_single_lane
from repro.robustness.health import NAN_POLICIES, HealthMonitor, health_reporter
from repro.serving.batcher import ForecastResponse
from repro.serving.server import ForecastServer, ServingConfig, replay_streams
from repro.telemetry.aggregate import FleetAggregator, registry_snapshot
from repro.telemetry.context import (
    RequestTrace,
    StageSpan,
    TraceBuffer,
    mint_context,
    record_stage,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.slo import SloConfig, SloMonitor, response_ok

__all__ = [
    "FleetConfig",
    "FleetError",
    "HashRing",
    "PrototypeBank",
    "ShardRouter",
    "StaleEpochError",
    "WorkerCrashedError",
    "replay_fleet",
]

_HEADER_SLOTS = 2  # int64 seqlock counter, int64 epoch
_HEADER_BYTES = _HEADER_SLOTS * 8

# BLAS pools size themselves at library load; workers serve small
# per-shard batches where intra-op threading only causes cross-shard
# oversubscription, so spawn them pinned to one thread each.  For the
# same reason a shard replays every plan batch on one lane
# (``use_single_lane`` in ``_worker_main``).
_WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class FleetError(RuntimeError):
    """Base class for fleet-level serving failures."""


class StaleEpochError(FleetError):
    """A worker refused to serve from a prototype bank older than the
    epoch the router advertised (the fencing invariant)."""


class WorkerCrashedError(FleetError):
    """The target worker process died before answering."""


@dataclasses.dataclass
class FleetConfig:
    """Knobs of the sharded fleet (see ``docs/api.md``)."""

    shards: int = 2
    vnodes: int = 64
    max_batch: int = 32
    # Forward engine inside every shard worker: "plan" or "eager".
    engine: str = "plan"
    cache_capacity: int = 512
    use_cache: bool = True
    nan_policy: str = "reject"
    fallback: str = "persistence"
    seasonal_period: int | None = None
    max_inflight: int = 64
    record_events: bool = False
    call_timeout: float = 60.0
    limit_worker_blas: bool = True
    trace: bool = False
    trace_keep: int = 256
    slo: SloConfig | None = None
    metrics_every_s: float = 0.0

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.vnodes < 1:
            raise ValueError("vnodes must be at least 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.nan_policy not in NAN_POLICIES:
            raise ValueError(
                f"unknown nan_policy {self.nan_policy!r}; choose from {NAN_POLICIES}"
            )
        if self.metrics_every_s < 0:
            raise ValueError("metrics_every_s must be non-negative")
        if self.engine not in ("eager", "plan"):
            raise ValueError(
                f"unknown engine {self.engine!r}; choose 'eager' or 'plan'"
            )


@contextmanager
def _untracked_shared_memory():
    """Attach to shared memory without resource-tracker registration.

    On POSIX Pythons < 3.13 (no ``track=False``), merely *attaching* to
    a segment registers it with the resource tracker; spawn children
    share the parent's tracker, so a worker's registration (or a later
    unregister) corrupts the owner's entry and the tracker either
    double-unlinks the segment or warns at exit.  Workers only borrow
    the router's segment — suppress registration for the attach.
    """
    try:  # pragma: no cover — depends on interpreter internals
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover
        yield
        return
    original = resource_tracker.register

    def _register(name, rtype):
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = _register
    try:
        yield
    finally:
        resource_tracker.register = original


def _stable_hash(key: str) -> int:
    """64-bit stable hash (independent of PYTHONHASHSEED and process)."""
    return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "big")


class HashRing:
    """Consistent-hash ring over shard ids with virtual nodes.

    Routing is deterministic across processes and runs (the hash is
    keyed on blake2b, not the seeded builtin ``hash``), and removing a
    shard only remaps the entities that lived on it — the property the
    crashed-worker rehash relies on.
    """

    def __init__(self, shards: int, vnodes: int = 64):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        points = []
        for shard in range(shards):
            for replica in range(vnodes):
                points.append((_stable_hash(f"shard-{shard}-vnode-{replica}"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._shards = [shard for _, shard in points]
        self.num_shards = shards

    def shard_for(self, entity_id: str, alive: frozenset | set | None = None) -> int:
        """The owning shard for ``entity_id`` among ``alive`` shards."""
        if alive is not None and not alive:
            raise FleetError("no live shards to route to")
        index = bisect.bisect(self._points, _stable_hash(entity_id))
        for offset in range(len(self._shards)):
            shard = self._shards[(index + offset) % len(self._shards)]
            if alive is None or shard in alive:
                return shard
        raise FleetError("no live shards to route to")  # pragma: no cover

    def partition(
        self, entity_ids, alive: frozenset | set | None = None
    ) -> dict[int, list[str]]:
        """Group entity ids by owning shard (insertion order preserved)."""
        groups: dict[int, list[str]] = {}
        for entity_id in entity_ids:
            groups.setdefault(self.shard_for(entity_id, alive), []).append(entity_id)
        return groups


class PrototypeBank:
    """The shared-memory prototype publication channel.

    Layout: ``int64[2]`` header (seqlock counter, epoch) followed by the
    ``(k, p)`` float64 prototype dictionary.  Writers bump the seqlock
    odd before touching data and even after; readers retry until they
    observe a stable even counter, so a concurrently republished bank is
    never read torn — the "atomic hot-swap" half of epoch fencing.
    """

    def __init__(self, num_prototypes: int, segment_length: int,
                 name: str | None = None, create: bool = True):
        self.shape = (num_prototypes, segment_length)
        size = _HEADER_BYTES + num_prototypes * segment_length * 8
        self._owner = create
        if create:
            self._shm = shared_memory.SharedMemory(create=True, size=size, name=name)
        else:
            with _untracked_shared_memory():
                self._shm = shared_memory.SharedMemory(name=name)
        self._header = np.frombuffer(self._shm.buf, dtype=np.int64, count=_HEADER_SLOTS)
        self._data = np.frombuffer(
            self._shm.buf, dtype=np.float64,
            count=num_prototypes * segment_length, offset=_HEADER_BYTES,
        ).reshape(self.shape)
        if create:
            self._header[:] = 0

    @property
    def name(self) -> str:
        return self._shm.name

    def publish(self, prototypes: np.ndarray, epoch: int) -> int:
        """Atomically install a new bank under ``epoch`` (writer side).

        ``epoch`` must strictly exceed the currently published epoch:
        the epoch is the fencing token workers compare against the
        router's advertisement, so publishing an equal or older epoch
        would let a lagging writer silently retire a newer bank.
        """
        prototypes = np.asarray(prototypes, dtype=np.float64)
        if prototypes.shape != self.shape:
            raise ValueError(
                f"prototype bank shape {prototypes.shape} != expected {self.shape}"
            )
        current = int(self._header[1])
        if epoch <= current:
            raise ValueError(
                f"epoch must be strictly increasing: {epoch} <= published {current}"
            )
        self._header[0] += 1  # odd: update in progress
        self._data[...] = prototypes
        self._header[1] = epoch
        self._header[0] += 1  # even: stable
        return epoch

    def read(self, max_retries: int = 10_000) -> tuple[int, np.ndarray]:
        """A consistent ``(epoch, bank copy)`` snapshot (reader side).

        Retries are bounded: a writer that crashed mid-publish leaves
        the seqlock odd forever, and an unbounded spin would hang every
        reader with it.  After ``max_retries`` failed attempts (~1 s at
        the default) the reader raises :class:`FleetError` instead, so
        a torn bank surfaces as a servable error, never a wedged worker.
        """
        for _ in range(max_retries):
            before = int(self._header[0])
            if before % 2 == 0:
                epoch = int(self._header[1])
                bank = self._data.copy()
                if int(self._header[0]) == before:
                    return epoch, bank
            time.sleep(1e-4)  # writer mid-swap; yield the (possibly one) CPU
        raise FleetError(
            f"prototype bank seqlock unstable after {max_retries} retries "
            "(writer crashed mid-publish?)"
        )

    @property
    def epoch(self) -> int:
        return self.read()[0]

    def close(self) -> None:
        # Release numpy views before closing: the memoryview cannot be
        # released while exported buffers are alive.
        self._header = None
        self._data = None
        self._shm.close()

    def unlink(self) -> None:
        if self._owner:
            self._shm.unlink()


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
class _ShardWorker:
    """Worker-side state: model replica + full local serving stack."""

    def __init__(self, spec: dict):
        self.shard = spec["shard"]
        self.model = FOCUSForecaster.from_snapshot(spec["snapshot"])
        serving = spec["serving"]
        # A process-local registry when the router runs instrumented:
        # its cumulative snapshots ship to the router-side
        # FleetAggregator over the control channel.
        self.registry = MetricsRegistry() if spec.get("telemetry") else None
        self.server = ForecastServer(
            self.model, ServingConfig(**serving), telemetry=self.registry
        )
        # Cross-process trace spans name the process that ran the stage.
        self.process_name = f"shard-{self.shard}"
        self.server.process_name = self.process_name
        self.server.batcher.process_name = self.process_name
        self.bank = PrototypeBank(
            spec["num_prototypes"], spec["segment_length"],
            name=spec["bank"], create=False,
        )
        # The epoch of the bank currently loaded into the local model.
        self.bank_epoch = spec["epoch"]
        # Router commands; traffic goes straight to the server's methods.
        self.commands = {
            "observe_rows": self.server.observe_rows,
            "observe_many": self.server.observe_many,
            "ready": self.server.ready,
            "forecast_many": self.forecast_many,
            "replay": self.replay,
            "metrics": self.metrics,
            "stats": self.stats,
            "ring_state": self.ring_state,
            "journal": self.journal,
            "ping": lambda: "pong",
        }

    def sync_bank(self, advertised: int) -> None:
        """Fence: load the shared bank if ours is older than advertised.

        Raises :class:`StaleEpochError` when even the shared segment is
        behind the advertised epoch — serving from it would hand out
        forecasts computed against a dictionary the router already
        retired.
        """
        if self.bank_epoch >= advertised:
            return
        epoch, prototypes = self.bank.read()
        if epoch < advertised:
            raise StaleEpochError(
                f"shard {self.shard}: shared bank at epoch {epoch} but router "
                f"advertises {advertised}; refusing to serve stale prototypes"
            )
        # set_prototypes bumps the model's prototype_version, so every
        # cached forecast from the old bank is invalidated on sight.
        self.model.set_prototypes(prototypes)
        self.bank_epoch = epoch

    # -- command handlers ------------------------------------------------
    def handle(self, command: str, payload):
        """Run one router command; ``payload`` is its argument tuple
        (``None`` for none)."""
        if command not in self.commands:
            raise FleetError(f"unknown fleet command {command!r}")
        return self.commands[command](*(payload or ()))

    def forecast_many(self, entity_ids, advertised: int, contexts_wire):
        """Fenced :meth:`ForecastServer.forecast_many`; with contexts,
        also returns the shard's stage spans for the router's trace."""
        arrived = time.time()
        self.sync_bank(advertised)
        if contexts_wire is None:
            return self.server.forecast_many(entity_ids)
        from repro.telemetry.context import RequestContext

        contexts = {
            entity: RequestContext.from_wire(data)
            for entity, data in contexts_wire.items()
        }
        spans: list = []
        # Queue wait: router dispatch stamp -> this handler (pipe
        # transfer + unpickling + time queued behind other commands).
        dispatch = min(
            (context.dispatch_ts for context in contexts.values()), default=0.0
        )
        if dispatch:
            record_stage(
                spans, "queue_wait", arrived - dispatch,
                started=dispatch, process=self.process_name,
            )
        responses = self.server.forecast_many(
            entity_ids, contexts=contexts, trace=spans
        )
        return responses, [span.to_wire() for span in spans]

    def replay(self, streams, order, forecast_every, warmup, advertised):
        """This shard's half of :func:`replay_fleet`: the shared step
        loop over its partition.  Returns its responses and, per
        response, ``(step, global stream index, ms)`` for the router's
        merge: ``ms`` is the answering batch's wall clock per request."""
        self.sync_bank(advertised)
        tags: list[tuple[int, int, float]] = []

        def answer(step, due):
            started = time.perf_counter()
            responses = self.server.forecast_many(due)
            per_request = (time.perf_counter() - started) * 1e3 / len(due)
            tags.extend((step, order[entity_id], per_request) for entity_id in due)
            return responses

        responses = replay_streams(
            self.server, streams, forecast_every, warmup, answer=answer
        )
        return responses, tags

    def metrics(self):
        return None if self.registry is None else registry_snapshot(self.registry)

    def stats(self) -> dict:
        return {**self.server.stats(), "bank_epoch": self.bank_epoch, "shard": self.shard}

    def ring_state(self) -> dict:
        return self._read_sessions(lambda ring, journal: {
            "storage": ring.storage.copy(), "head": ring.head,
            "filled": ring.filled, "version": ring.version,
        })

    def journal(self) -> dict:
        if not self.server.config.record_events:
            raise FleetError("journals require record_events=True")
        return self._read_sessions(lambda ring, journal: list(journal))

    def _read_sessions(self, read) -> dict:
        """``read(ring, journal)`` of every session, under its lock."""
        store, result = self.server.store, {}
        for entity_id in store.entities():
            session = store.session(entity_id)
            with session.lock:
                result[entity_id] = read(session.ring, session.journal)
        return result


def _worker_main(conn, spec: dict) -> None:
    """Entry point of one shard process (spawn-safe, module-level)."""
    use_single_lane()
    worker = _ShardWorker(spec)
    try:
        while True:
            try:
                seq, command, payload = conn.recv()
            except (EOFError, OSError):
                break  # router died; exit quietly
            if command == "shutdown":
                conn.send((seq, True, None))
                break
            try:
                result = worker.handle(command, payload)
                conn.send((seq, True, result))
            except Exception as error:  # noqa: BLE001 — marshal to router
                conn.send(
                    (seq, False, (type(error).__name__, str(error)))
                )
    finally:
        worker.bank.close()
        conn.close()


# ----------------------------------------------------------------------
# Router side
# ----------------------------------------------------------------------
class _PendingCall:
    __slots__ = ("event", "ok", "payload")

    def __init__(self):
        self.event = threading.Event()
        self.ok = False
        self.payload = None

    def resolve(self, ok: bool, payload) -> None:
        self.ok = ok
        self.payload = payload
        self.event.set()


class _WorkerHandle:
    """Router-side endpoint of one worker: RPC plumbing + liveness."""

    def __init__(self, shard: int, process, conn, on_death):
        self.shard = shard
        self.process = process
        self.conn = conn
        self._on_death = on_death
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, _PendingCall] = {}
        self._seq = itertools.count()
        self.alive = True
        self.closing = False
        self.inflight = 0
        self._receiver = threading.Thread(
            target=self._receive_loop, name=f"fleet-recv-{shard}", daemon=True
        )
        self._receiver.start()

    def _receive_loop(self) -> None:
        while True:
            try:
                seq, ok, payload = self.conn.recv()
            except (EOFError, OSError):
                break
            with self._pending_lock:
                pending = self._pending.pop(seq, None)
            if pending is not None:
                pending.resolve(ok, payload)
        self.alive = False
        with self._pending_lock:
            stranded = list(self._pending.values())
            self._pending.clear()
        for pending in stranded:
            pending.resolve(False, ("WorkerCrashedError", f"shard {self.shard} died"))
        if not self.closing:
            self._on_death(self.shard)

    def call_async(self, command: str, payload) -> _PendingCall:
        pending = _PendingCall()
        if not self.alive:
            pending.resolve(False, ("WorkerCrashedError", f"shard {self.shard} is dead"))
            return pending
        with self._send_lock:
            seq = next(self._seq)
            with self._pending_lock:
                self._pending[seq] = pending
            try:
                self.conn.send((seq, command, payload))
            except (OSError, BrokenPipeError):
                with self._pending_lock:
                    self._pending.pop(seq, None)
                pending.resolve(
                    False, ("WorkerCrashedError", f"shard {self.shard} is dead")
                )
        return pending

    def wait(self, pending: _PendingCall, timeout: float):
        if not pending.event.wait(timeout):
            raise TimeoutError(
                f"shard {self.shard} did not answer within {timeout}s"
            )
        if pending.ok:
            return pending.payload
        name, message = pending.payload
        if name == "StaleEpochError":
            raise StaleEpochError(message)
        if name == "WorkerCrashedError":
            raise WorkerCrashedError(message)
        raise FleetError(f"shard {self.shard} {name}: {message}")

    def call(self, command: str, payload, timeout: float):
        return self.wait(self.call_async(command, payload), timeout)


@contextmanager
def _worker_env(enabled: bool):
    """Temporarily pin BLAS thread pools for processes spawned inside."""
    if not enabled:
        yield
        return
    saved = {key: os.environ.get(key) for key in _WORKER_ENV}
    os.environ.update(_WORKER_ENV)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


class ShardRouter:
    """Front door of the fleet: routing, fencing, admission, health.

    Owns the spawn-context worker processes, the shared-memory
    :class:`PrototypeBank`, and a per-worker RPC channel (duplex pipe +
    receiver thread), so it is safe to call from multiple client
    threads concurrently.  Use as a context manager::

        with ShardRouter(model, FleetConfig(shards=4)) as router:
            router.observe("tenant-1", row)
            response = router.forecast("tenant-1")
    """

    def __init__(
        self,
        model: FOCUSForecaster,
        config: FleetConfig | None = None,
        telemetry=None,
        run_logger=None,
    ):
        self.config = config or FleetConfig()
        self.model = model
        self._telemetry = telemetry
        self._run_logger = run_logger
        self.ring = HashRing(self.config.shards, self.config.vnodes)
        self._workers: dict[int, _WorkerHandle] = {}
        self._alive: set[int] = set()
        self._alive_lock = threading.Lock()
        self._epoch_lock = threading.Lock()
        self._epoch = 0
        self.bank: PrototypeBank | None = None
        self._last_row: dict[str, np.ndarray] = {}
        self._last_row_lock = threading.Lock()
        self._started = False
        self._closed = False
        self._maintenance = None
        self.rejected_requests = 0
        self._instruments = None
        if telemetry is not None:
            self._instruments = {
                "alive": telemetry.gauge(
                    "serve_fleet_alive_workers", help="live shard workers"
                ),
                "rejected": telemetry.counter(
                    "serve_fleet_rejected_total",
                    help="requests shed by fleet-level admission control",
                ),
                "epoch": telemetry.gauge(
                    "serve_fleet_prototype_epoch", help="advertised prototype epoch"
                ),
            }
        # Observability plane: fleet-level health (worker deaths, SLO
        # budget burn), merged per-shard metrics, cross-process traces.
        self.health = HealthMonitor(on_transition=health_reporter(telemetry, run_logger))
        self.aggregator = FleetAggregator()
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
        self._metrics_stop = threading.Event()
        self._metrics_thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ShardRouter":
        if self._started:
            return self
        prototypes = self.model.prototype_values()
        if prototypes is None:
            raise FleetError(
                "the fleet requires a prototype model (attn/linear variants "
                "have no dictionary to publish)"
            )
        cfg = self.model.config
        self.bank = PrototypeBank(cfg.num_prototypes, cfg.segment_length)
        self._epoch = 1
        self.bank.publish(prototypes, self._epoch)
        snapshot = self.model.snapshot()
        serving = {
            "max_batch": self.config.max_batch,
            "engine": self.config.engine,
            "cache_capacity": self.config.cache_capacity,
            "use_cache": self.config.use_cache,
            "nan_policy": self.config.nan_policy,
            "fallback": self.config.fallback,
            "seasonal_period": self.config.seasonal_period,
            "record_events": self.config.record_events,
        }
        worker_telemetry = self._telemetry is not None
        ctx = get_context("spawn")
        with _worker_env(self.config.limit_worker_blas):
            for shard in range(self.config.shards):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                spec = {
                    "shard": shard,
                    "snapshot": snapshot,
                    "bank": self.bank.name,
                    "num_prototypes": cfg.num_prototypes,
                    "segment_length": cfg.segment_length,
                    "epoch": self._epoch,
                    "serving": serving,
                    "telemetry": worker_telemetry,
                }
                process = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, spec),
                    name=f"focus-shard-{shard}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._workers[shard] = _WorkerHandle(
                    shard, process, parent_conn, self._on_worker_death
                )
        self._alive = set(range(self.config.shards))
        self._started = True
        # One fenced ping per worker: proves the replica built and the
        # bank attached before any traffic is admitted.
        for shard in range(self.config.shards):
            self._workers[shard].call("ping", None, self.config.call_timeout)
        if self._instruments is not None:
            self._instruments["alive"].set(len(self._alive))
            self._instruments["epoch"].set(self._epoch)
        if self._run_logger is not None:
            self._run_logger.event("fleet_start", shards=self.config.shards)
        if self.config.metrics_every_s > 0 and worker_telemetry:
            self._metrics_thread = threading.Thread(
                target=self._metrics_loop, name="fleet-metrics", daemon=True
            )
            self._metrics_thread.start()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._metrics_stop.set()
        if self._metrics_thread is not None:
            self._metrics_thread.join(timeout=10.0)
            self._metrics_thread = None
        for handle in self._workers.values():
            handle.closing = True
            if handle.alive:
                try:
                    handle.call("shutdown", None, timeout=10.0)
                except (FleetError, TimeoutError):
                    pass
        for handle in self._workers.values():
            handle.process.join(timeout=10.0)
            if handle.process.is_alive():  # pragma: no cover — stuck worker
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            handle.conn.close()
        if self._run_logger is not None and self._started:
            self._run_logger.event("fleet_stop", shards=self.config.shards)
        if self.bank is not None:
            self.bank.close()
            self.bank.unlink()
            self.bank = None

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- routing and health ----------------------------------------------
    def _on_worker_death(self, shard: int) -> None:
        with self._alive_lock:
            self._alive.discard(shard)
            alive = len(self._alive)
        if self._instruments is not None:
            self._instruments["alive"].set(alive)
        if self._run_logger is not None:
            self._run_logger.event("fleet_worker_dead", shard=shard)
        self.health.record_failure(f"shard {shard} worker died")

    def alive_shards(self) -> set[int]:
        with self._alive_lock:
            return set(self._alive)

    def shard_for(self, entity_id: str) -> int:
        """The live shard owning ``entity_id`` (rehashes around deaths)."""
        return self.ring.shard_for(entity_id, self.alive_shards())

    def _handle_for(self, entity_id: str) -> _WorkerHandle:
        self._require_started()
        return self._workers[self.shard_for(entity_id)]

    def _require_started(self) -> None:
        if not self._started or self._closed:
            raise FleetError("router is not running (use `with ShardRouter(...)`)")

    def _poll(self, command: str, timeout: float) -> dict:
        """Ask every live worker at once; a shard that dies or does not
        answer in time is left out."""
        self._require_started()
        calls = {
            shard: handle.call_async(command, None)
            for shard, handle in self._workers.items()
            if handle.alive
        }
        answers = {}
        for shard, pending in calls.items():
            try:
                answers[shard] = self._workers[shard].wait(pending, timeout)
            except (FleetError, TimeoutError):  # pragma: no cover — death race
                continue
        return answers

    def _scatter(self, command: str, payloads: dict) -> dict:
        """Send ``command`` to every shard in ``payloads`` before
        waiting on any; returns each shard's answer."""
        calls = {
            shard: self._workers[shard].call_async(command, payload)
            for shard, payload in payloads.items()
        }
        return {
            shard: self._workers[shard].wait(pending, self.config.call_timeout)
            for shard, pending in calls.items()
        }

    def ping(self) -> dict[int, bool]:
        """Probe every worker; dead or unresponsive shards map to False."""
        self._require_started()
        results = {}
        for shard, handle in self._workers.items():
            try:
                results[shard] = handle.call("ping", None, timeout=10.0) == "pong"
            except (FleetError, TimeoutError):
                results[shard] = False
        return results

    def kill_worker(self, shard: int) -> None:
        """Chaos hook: hard-kill one worker process (SIGKILL)."""
        self._require_started()
        self._workers[shard].process.kill()
        self._workers[shard].process.join(timeout=10.0)

    # -- prototype lifecycle ----------------------------------------------
    @property
    def prototype_epoch(self) -> int:
        with self._epoch_lock:
            return self._epoch

    def set_prototypes(self, prototypes: np.ndarray) -> int:
        """Hot-swap the prototype bank fleet-wide; returns the new epoch.

        Publishes the new bank into shared memory and bumps the
        advertised epoch atomically (seqlock); workers lazily adopt it
        on their next fenced request, and their versioned caches drop
        every forecast computed under the old bank.  The router's local
        model is updated too, so a later :meth:`start` of another fleet
        (or single-process serving against the same model) agrees.
        """
        self._require_started()
        with self._epoch_lock:
            self.model.set_prototypes(prototypes)
            self._epoch += 1
            self.bank.publish(self.model.prototype_values(), self._epoch)
            epoch = self._epoch
        if self._instruments is not None:
            self._instruments["epoch"].set(epoch)
        if self._run_logger is not None:
            self._run_logger.event("fleet_swap", epoch=epoch)
        return epoch

    def attach_maintenance(self, worker) -> None:
        """Wire a :class:`~repro.maintenance.MaintenanceWorker` in.

        The router taps every observation it routes into the worker's
        history (router-side, so drift is watched fleet-wide over the
        *router's* model replica), and the worker's hot-swap callable is
        bound to :meth:`set_prototypes` — an accepted candidate is
        published to shared memory under a new fenced epoch and every
        shard adopts it on its next request.  The caller owns the
        worker's lifecycle (``start``/``close``).
        """
        worker.bind(self.set_prototypes)
        self._maintenance = worker

    # -- traffic -----------------------------------------------------------
    def observe(self, entity_id: str, observation: np.ndarray):
        """Route one ``(N,)`` observation to its owning shard (the
        one-row :meth:`observe_rows`)."""
        return self.observe_rows([entity_id], np.asarray(observation)[None])[0]

    def observe_rows(self, entity_ids: list[str], rows: np.ndarray):
        """Route ``rows[i]`` to ``entity_ids[i]``'s owning shard: one
        ingest step, one RPC per owning shard (each shard's
        :meth:`ForecastServer.observe_rows`), one maintenance tap.
        Returns one :class:`~repro.serving.session.IngestResult` per row."""
        self._require_started()
        entity_ids = list(entity_ids)
        block = np.asarray(rows, dtype=np.float64)
        expected = (len(entity_ids), self.model.config.num_entities)
        if block.shape != expected:
            raise ValueError(f"expected {expected} observations, got {block.shape}")
        alive = self.alive_shards()
        groups: dict[int, list[int]] = {}
        for index, entity_id in enumerate(entity_ids):
            groups.setdefault(self.ring.shard_for(entity_id, alive), []).append(index)
        answers = self._scatter("observe_rows", {
            shard: ([entity_ids[i] for i in indices], block[indices])
            for shard, indices in groups.items()
        })
        results = [None] * len(entity_ids)
        for shard, indices in groups.items():
            for index, result in zip(indices, answers[shard]):
                results[index] = result
        with self._last_row_lock:
            for entity_id, row, result in zip(entity_ids, block, results):
                if result.accepted and not result.imputed:
                    self._last_row[entity_id] = row.copy()
        if self._maintenance is not None:
            self._maintenance.record_many(entity_ids, block)
        return results

    def ready(self, entity_ids: list[str]) -> list[str]:
        """The ids whose owning shard holds a full lookback window for
        them, in order (one RPC per owning shard)."""
        self._require_started()
        groups = self.ring.partition(entity_ids, self.alive_shards())
        answers = self._scatter("ready", {shard: (ids,) for shard, ids in groups.items()})
        ready = {entity_id for group in answers.values() for entity_id in group}
        return [entity_id for entity_id in entity_ids if entity_id in ready]

    def observe_many(self, entity_id: str, block: np.ndarray):
        """Route a ``(T, N)`` block to its owning shard."""
        block = np.asarray(block, dtype=np.float64)
        result = self._handle_for(entity_id).call(
            "observe_many", (entity_id, block), self.config.call_timeout
        )
        row = _last_clean_row(block)
        if row is not None:
            with self._last_row_lock:
                self._last_row[entity_id] = row
        if self._maintenance is not None:
            self._maintenance.record_many([entity_id] * len(block), block)
        return result

    def _fleet_reject(
        self, entity_id: str, last_row: np.ndarray, context=None
    ) -> ForecastResponse:
        self.rejected_requests += 1
        if self._instruments is not None:
            self._instruments["rejected"].inc()
        if self._run_logger is not None:
            extra = {}
            if context is not None:
                extra = {"request_id": context.request_id, "trace_id": context.trace_id}
            self._run_logger.event(
                "serve_reject", entity=entity_id,
                queue_depth=self.config.max_inflight, **extra,
            )
        if self.slo is not None:
            self.slo.record(
                max(0.0, time.time() - context.origin_ts) * 1e3
                if context is not None
                else 0.0,
                False,
            )
        horizon = self.model.config.horizon
        return ForecastResponse(
            entity_id,
            np.repeat(last_row[None, :], horizon, axis=0),
            "rejected:fleet",
            -1,  # ring version unknown at the router
            request_id=context.request_id if context is not None else "",
        )

    def _dispatch_group(self, shard: int, group: list[str], contexts, epoch: int):
        """Scatter half of one shard's forecast RPC.

        With tracing on, stamps every context's ``dispatch_ts`` and
        ships the contexts inside the envelope; returns the pending
        call plus the dispatch stamp the gather half needs.
        """
        if contexts is None:
            pending = self._workers[shard].call_async(
                "forecast_many", (group, epoch, None)
            )
            return pending, None
        dispatch = time.time()
        wire = {}
        for entity_id in group:
            context = contexts[entity_id]
            context.dispatch_ts = dispatch
            wire[entity_id] = context.to_wire()
        pending = self._workers[shard].call_async(
            "forecast_many", (group, epoch, wire)
        )
        return pending, dispatch

    def _gather_group(
        self, shard: int, pending, group: list[str], contexts, timeout: float
    ) -> list[ForecastResponse]:
        """Gather half: unpack responses, merge worker spans into one
        cross-process trace per request, and close out observability."""
        result = self._workers[shard].wait(pending, timeout)
        if contexts is None:
            return result
        responses, span_dicts = result
        received = time.perf_counter()
        gather_wall = time.time()
        worker_spans = [StageSpan.from_wire(data) for data in span_dicts]
        for entity_id, response in zip(group, responses):
            context = contexts[entity_id]
            spans: list[StageSpan] = []
            record_stage(
                spans, "router_dispatch",
                context.dispatch_ts - context.origin_ts,
                started=context.origin_ts, process="router",
            )
            spans.extend(worker_spans)
            record_stage(
                spans, "gather", time.perf_counter() - received,
                started=gather_wall, process="router",
            )
            trace = RequestTrace(
                context, spans, max(0.0, time.time() - context.origin_ts)
            )
            if self.trace_buffer is not None:
                self.trace_buffer.record(trace)
            if self._run_logger is not None:
                self._run_logger.event("serve_trace", **trace.event_payload())
            if self.slo is not None:
                self.slo.record(
                    trace.total_seconds * 1e3, response_ok(response.source)
                )
        return responses

    def forecast(self, entity_id: str, timeout: float | None = None) -> ForecastResponse:
        """One forecast via the owning shard (micro-batched worker-side).

        Fleet-level admission control: when the owning shard already has
        ``max_inflight`` outstanding requests, the request is shed and
        answered immediately from the router's last-row cache
        (persistence fallback, ``source="rejected:fleet"``) — the worker
        never sees it.  The first request for an entity the router has
        never observed is always forwarded.
        """
        handle = self._handle_for(entity_id)
        timeout = self.config.call_timeout if timeout is None else timeout
        contexts = (
            {entity_id: mint_context(entity_id)} if self.config.trace else None
        )
        with self._last_row_lock:
            last_row = self._last_row.get(entity_id)
        if handle.inflight >= self.config.max_inflight and last_row is not None:
            return self._fleet_reject(
                entity_id, last_row,
                contexts[entity_id] if contexts is not None else None,
            )
        started = time.perf_counter()
        handle.inflight += 1
        try:
            pending, _dispatch = self._dispatch_group(
                handle.shard, [entity_id], contexts, self.prototype_epoch
            )
            responses = self._gather_group(
                handle.shard, pending, [entity_id], contexts, timeout
            )
        finally:
            handle.inflight -= 1
        if self.slo is not None and contexts is None:
            self.slo.record(
                (time.perf_counter() - started) * 1e3,
                response_ok(responses[0].source),
            )
        return responses[0]

    def forecast_many(self, entity_ids: list[str]) -> list[ForecastResponse]:
        """Scatter-gather: one batched forward per owning shard.

        With ``config.trace`` set, every request carries a
        :class:`~repro.telemetry.RequestContext` through the RPC
        envelope; worker-side spans merge with the router's dispatch and
        gather spans into one cross-process trace per request.
        """
        self._require_started()
        alive = self.alive_shards()
        groups = self.ring.partition(entity_ids, alive)
        epoch = self.prototype_epoch
        contexts = (
            {entity_id: mint_context(entity_id) for entity_id in entity_ids}
            if self.config.trace
            else None
        )
        started = time.perf_counter()
        calls = {
            shard: self._dispatch_group(shard, group, contexts, epoch)[0]
            for shard, group in groups.items()
        }
        by_entity: dict[str, ForecastResponse] = {}
        for shard, pending in calls.items():
            responses = self._gather_group(
                shard, pending, groups[shard], contexts, self.config.call_timeout
            )
            for response in responses:
                by_entity[response.entity] = response
        if self.slo is not None and contexts is None:
            elapsed_ms = (time.perf_counter() - started) * 1e3
            for entity_id in entity_ids:
                self.slo.record(
                    elapsed_ms, response_ok(by_entity[entity_id].source)
                )
        return [by_entity[entity_id] for entity_id in entity_ids]

    # -- metrics aggregation -----------------------------------------------
    def collect_metrics(self, timeout: float = 10.0) -> FleetAggregator:
        """Pull a cumulative registry snapshot from every live worker.

        Snapshots ingest into the router's :class:`FleetAggregator`
        (idempotently — they are cumulative, not deltas); dead or
        unresponsive shards keep their last snapshot, so a crashed
        worker's final counters stay in the merged view.
        """
        for shard, snapshot in self._poll("metrics", timeout).items():
            if snapshot is not None:
                self.aggregator.ingest(shard, snapshot)
        return self.aggregator

    def merged_registry(self) -> "MetricsRegistry":
        """One registry covering the whole fleet: fresh worker snapshots
        under ``shard`` labels plus the router's own instruments
        (fleet gauges, SLO state, ``maintenance_state``) unlabelled —
        the registry ``write_prometheus`` turns into the single
        ``metrics.prom`` of a fleet run."""
        self.collect_metrics()
        return self.aggregator.merged(base=self._telemetry)

    def _metrics_loop(self) -> None:
        while not self._metrics_stop.wait(self.config.metrics_every_s):
            try:
                self.collect_metrics()
            except (FleetError, TimeoutError):  # pragma: no cover — shutdown race
                continue

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict:
        """Fleet-wide and per-shard serving counters.

        Worker counters are fetched over RPC and republished to the
        router's telemetry registry with per-shard ``shard`` labels
        (``serve_fleet_forecasts{shard="2"}`` etc.), so one Prometheus
        scrape of the router sees the whole fleet.
        """
        per_shard = self._poll("stats", self.config.call_timeout)
        totals = {
            "entities": 0, "observations": 0, "forecasts": 0,
            "model_forecasts": 0, "cache_hits": 0, "fallback_forecasts": 0,
            "imputed_values": 0, "rejected_observations": 0,
            "rejected_requests": self.rejected_requests,
        }
        for shard, stats in per_shard.items():
            for key in totals:
                if key != "rejected_requests":
                    totals[key] += stats.get(key, 0)
            totals["rejected_requests"] += stats.get("rejected_requests", 0)
            if self._telemetry is not None:
                labels = {"shard": str(shard)}
                self._telemetry.gauge(
                    "serve_fleet_forecasts", labels=labels,
                    help="forecasts served, per shard",
                ).set(stats.get("forecasts", 0))
                self._telemetry.gauge(
                    "serve_fleet_entities", labels=labels,
                    help="entities owned, per shard",
                ).set(stats.get("entities", 0))
        totals["alive_workers"] = len(self.alive_shards())
        totals["prototype_epoch"] = self.prototype_epoch
        totals["health"] = self.health.state.value
        if self.slo is not None:
            totals["slo"] = self.slo.snapshot()
        totals["shards"] = per_shard
        return totals


def _last_clean_row(block: np.ndarray) -> np.ndarray | None:
    """A copy of the last all-finite row of ``block`` (the last one a
    shard accepts without rejecting or imputing it), else ``None``."""
    clean = np.flatnonzero(np.isfinite(block).all(axis=1))
    return np.array(block[clean[-1]], dtype=np.float64) if len(clean) else None


def replay_fleet(
    router: ShardRouter,
    streams: dict[str, np.ndarray],
    forecast_every: int = 8,
    warmup: int | None = None,
    with_latencies: bool = False,
):
    """Scatter-gather replay of per-entity streams across the fleet.

    Cuts every stream to the shortest one, partitions them by the
    router's hash ring, ships each shard its partition in one message,
    and has each shard run :func:`~repro.serving.replay_streams` on its
    own server; the responses are merged back into global issue order.
    The answers (entities, ring versions, float64 bytes) are those of a
    single-process ``replay_streams(server, streams)`` of the same
    traffic, which ``tests/serving/test_fleet.py`` proves.

    With ``with_latencies=True`` returns ``(responses, latencies_ms)``
    where each latency is the wall clock of the worker batch that
    answered the matching response, divided by the batch's request
    count (the per-request cost the fleet benchmark aggregates).
    """
    if forecast_every < 1:
        raise ValueError("forecast_every must be at least 1")
    router._require_started()
    if not streams:
        return ([], []) if with_latencies else []
    # A shard must not replay steps past the global shortest stream
    # just because its own partition's streams are longer.
    length = min(len(stream) for stream in streams.values())
    streams = {entity_id: stream[:length] for entity_id, stream in streams.items()}
    order = {entity_id: index for index, entity_id in enumerate(streams)}
    epoch = router.prototype_epoch
    answers = router._scatter("replay", {
        shard: (
            {entity_id: streams[entity_id] for entity_id in entity_ids},
            {entity_id: order[entity_id] for entity_id in entity_ids},
            forecast_every, warmup, epoch,
        )
        for shard, entity_ids in router.ring.partition(streams, router.alive_shards()).items()
    })
    merged = sorted(
        (
            (step, index, response, latency)
            for responses, tags in answers.values()
            for response, (step, index, latency) in zip(responses, tags)
        ),
        key=lambda item: item[:2],
    )
    with router._last_row_lock:
        for entity_id, stream in streams.items():
            row = _last_clean_row(stream)
            if row is not None:
                router._last_row[entity_id] = row
    responses = [item[2] for item in merged]
    if with_latencies:
        return responses, [item[3] for item in merged]
    return responses
