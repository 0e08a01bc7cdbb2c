"""Per-entity serving sessions and the thread-safe session store.

A *serving entity* is one independent stream of ``(N,)`` observations —
one tenant, device, or region — forecast by a single shared
:class:`~repro.core.model.FOCUSForecaster`.  The paper's offline
clustering makes this sharing natural: the prototype dictionary is
"relatively universal" (Sec. I), so one trained model serves an entire
fleet of entities, each of which only needs its own cheap lookback
state.

- :class:`ObservationRing` is that state: a fixed ``(L, N)`` lookback
  window behind NaN-policy guards, with a content version.
- :class:`EntitySession` owns one ring, a lock serializing all access,
  per-entity :class:`SessionStats`, and an optional *event journal* —
  the raw observations in the order the lock admitted them, which the
  concurrency test suite replays single-threaded to prove no update was
  lost.
- :class:`EntitySessionStore` is the thread-safe registry mapping
  entity ids to sessions, created lazily on first touch.

Locking discipline: the store lock only guards session creation/lookup;
all per-entity mutation happens under the session's own lock, so
entities never contend with each other.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np

from repro.core.model import FOCUSForecaster
from repro.robustness.health import NAN_POLICIES, apply_nan_policy


@dataclasses.dataclass(frozen=True)
class IngestResult:
    """Outcome of one guarded ring write."""

    accepted: int = 0
    imputed: int = 0
    rejected: int = 0


class ObservationRing:
    """Versioned lookback ring buffer with NaN-policy ingestion guards.

    One entity's lookback state in the serving layer: fixed ``(L, N)``
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
        # A value past the storage dtype's range casts to inf, which the
        # guard below handles; the cast need not warn.
        with np.errstate(over="ignore"):
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
        with np.errstate(over="ignore"):
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


_ACCEPTED = IngestResult(accepted=1)


@dataclasses.dataclass
class SessionStats:
    """Per-entity serving counters."""

    observations: int = 0
    imputed_values: int = 0
    rejected_observations: int = 0
    forecasts: int = 0
    model_forecasts: int = 0
    fallback_forecasts: int = 0
    cache_hits: int = 0
    rejected_requests: int = 0


class EntitySession:
    """One entity's serving state: ring buffer, stats, lock, journal.

    All mutation and snapshotting must happen under :attr:`lock`; the
    store and the batcher follow this discipline, and external callers
    should go through :class:`EntitySessionStore` /
    :class:`~repro.serving.ForecastServer` rather than touch sessions
    directly.
    """

    def __init__(
        self,
        entity_id: str,
        lookback: int,
        num_entities: int,
        dtype=np.float64,
        nan_policy: str = "reject",
        fill_value=None,
        record_events: bool = False,
    ):
        self.entity_id = entity_id
        self.lock = threading.Lock()
        self.ring = ObservationRing(
            lookback,
            num_entities,
            dtype=dtype,
            nan_policy=nan_policy,
            fill_value=fill_value,
        )
        self.stats = SessionStats()
        # Raw pre-guard events in applied order (when recording): the
        # concurrency suite replays these single-threaded and compares
        # final ring state to prove the locking lost nothing.
        self.journal: list[tuple[str, np.ndarray]] | None = (
            [] if record_events else None
        )

    def _note(self, result: IngestResult) -> IngestResult:
        self.stats.observations += result.accepted
        self.stats.imputed_values += result.imputed
        self.stats.rejected_observations += result.rejected
        return result

    def observe(self, observation: np.ndarray) -> IngestResult:
        """Guard and ingest one ``(N,)`` row (thread-safe)."""
        with self.lock:
            if self.journal is not None:
                self.journal.append(
                    ("observe", np.array(observation, dtype=np.float64, copy=True))
                )
            return self._note(self.ring.observe(observation))

    def push(self, row: np.ndarray) -> IngestResult:
        """Ingest one ``(N,)`` float64 row that the caller has checked to
        be finite in the ring's dtype (thread-safe)."""
        with self.lock:
            if self.journal is not None:
                self.journal.append(("observe", np.array(row, dtype=np.float64, copy=True)))
            self.ring.push(row)
            self.stats.observations += 1
        return _ACCEPTED

    def observe_many(self, block: np.ndarray) -> IngestResult:
        """Guard and ingest a ``(T, N)`` block (thread-safe)."""
        with self.lock:
            if self.journal is not None:
                self.journal.append(
                    ("observe_many", np.array(block, dtype=np.float64, copy=True))
                )
            return self._note(self.ring.observe_many(block))

    def snapshot(self) -> tuple[np.ndarray, int]:
        """Atomically capture ``(window copy, ring version)``.

        The pair is consistent: the version is read under the same lock
        that guards ring writes, so a forecast computed from the window
        is exactly the forecast for that version — the invariant the
        serving cache's version-exact lookup relies on.
        """
        with self.lock:
            return self.ring.window(), self.ring.version

    @property
    def ready(self) -> bool:
        with self.lock:
            return self.ring.ready

    @property
    def version(self) -> int:
        with self.lock:
            return self.ring.version


class EntitySessionStore:
    """Thread-safe registry of per-entity sessions, created on demand."""

    def __init__(
        self,
        lookback: int,
        num_entities: int,
        dtype=np.float64,
        nan_policy: str = "reject",
        fill_value=None,
        record_events: bool = False,
    ):
        if nan_policy not in NAN_POLICIES:
            raise ValueError(
                f"unknown nan_policy {nan_policy!r}; choose from {NAN_POLICIES}"
            )
        self.lookback = lookback
        self.num_entities = num_entities
        self.dtype = dtype
        self.nan_policy = nan_policy
        self.fill_value = fill_value
        self.record_events = record_events
        self._lock = threading.Lock()
        self._sessions: dict[str, EntitySession] = {}

    @classmethod
    def for_model(
        cls,
        model: FOCUSForecaster,
        nan_policy: str = "reject",
        record_events: bool = False,
    ) -> "EntitySessionStore":
        """Build a store matching a model's geometry, dtype, and the
        prototype-mean imputation fill."""
        dtype = next(iter(model.parameters())).data.dtype

        def fill() -> float:
            prototypes = model.prototype_values()
            if prototypes is None or prototypes.size == 0:
                return 0.0
            return float(np.mean(prototypes))

        return cls(
            model.config.lookback,
            model.config.num_entities,
            dtype=dtype,
            nan_policy=nan_policy,
            fill_value=fill,
            record_events=record_events,
        )

    def session(self, entity_id: str, nan_policy: str | None = None) -> EntitySession:
        """Get-or-create the session for ``entity_id``.

        ``nan_policy`` overrides the store default at creation time only
        (heterogeneous fleets mix policies); on later lookups it must
        agree with the existing session.
        """
        with self._lock:
            existing = self._sessions.get(entity_id)
            if existing is not None:
                if nan_policy is not None and existing.ring.nan_policy != nan_policy:
                    raise ValueError(
                        f"entity {entity_id!r} already uses nan_policy "
                        f"{existing.ring.nan_policy!r}, requested {nan_policy!r}"
                    )
                return existing
            session = EntitySession(
                entity_id,
                self.lookback,
                self.num_entities,
                dtype=self.dtype,
                nan_policy=nan_policy or self.nan_policy,
                fill_value=self.fill_value,
                record_events=self.record_events,
            )
            self._sessions[entity_id] = session
            return session

    def sessions(self, entity_ids: list[str]) -> list[EntitySession]:
        """The session of each id (created on demand), looked up under
        one acquisition of the store lock when all exist."""
        with self._lock:
            found = [self._sessions.get(entity_id) for entity_id in entity_ids]
        if None not in found:
            return found
        return [
            session if session is not None else self.session(entity_id)
            for entity_id, session in zip(entity_ids, found)
        ]

    def observe(self, entity_id: str, observation: np.ndarray) -> IngestResult:
        return self.session(entity_id).observe(observation)

    def observe_many(self, entity_id: str, block: np.ndarray) -> IngestResult:
        return self.session(entity_id).observe_many(block)

    def entities(self) -> list[str]:
        """Known entity ids in creation order."""
        with self._lock:
            return list(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, entity_id: str) -> bool:
        with self._lock:
            return entity_id in self._sessions

    def replay_journals(self) -> "EntitySessionStore":
        """Rebuild a fresh store by replaying every session's journal
        single-threaded, in the recorded (lock-serialized) order.

        Requires ``record_events=True``.  The replayed store must end in
        exactly the state of the live one — per-entity ring contents,
        head, fill, and version — which is the concurrency suite's
        no-lost-updates oracle.  Replay assumes the guard context (the
        prototype-mean fill) did not change since recording.
        """
        replayed = EntitySessionStore(
            self.lookback,
            self.num_entities,
            dtype=self.dtype,
            nan_policy=self.nan_policy,
            fill_value=self.fill_value,
            record_events=False,
        )
        with self._lock:
            sessions = list(self._sessions.items())
        for entity_id, session in sessions:
            if session.journal is None:
                raise RuntimeError(
                    "replay_journals() requires record_events=True at creation"
                )
            twin = replayed.session(entity_id, nan_policy=session.ring.nan_policy)
            for kind, payload in session.journal:
                if kind == "observe":
                    twin.observe(payload)
                else:
                    twin.observe_many(payload)
        return replayed
