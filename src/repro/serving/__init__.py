"""Concurrent multi-entity serving in front of a trained FOCUS model.

Layered bottom-up:

- :class:`EntitySession` / :class:`EntitySessionStore` — per-entity ring
  buffers, NaN-policy guards, locks, and optional replayable journals;
- :class:`ForecastCache` — versioned LRU of one slot per entity
  (its newest ``(ring version, horizon)`` forecast), invalidated by
  prototype swaps;
- :class:`MicroBatcher` — coalesces requests into one batched forward
  (bit-identical per sample to one eager forward in float64);
- :class:`ForecastServer` / :class:`ServingConfig` — bounded queue,
  background batching worker, admission control, health + telemetry;
- :class:`ShardRouter` / :class:`FleetConfig` — multi-process scale-out:
  consistent-hash routing, a shared-memory prototype bank with epoch
  fencing, scatter-gather replay, and crashed-worker rehash;
- :func:`replay_streams` — the one replay step loop, over a server, a
  router, or (inside :func:`replay_fleet`) each shard's server.

See ``docs/api.md`` (architecture) and ``examples/serving_replay.py``.
"""

from repro.serving.batcher import BATCH_SIZE_BUCKETS, ForecastResponse, MicroBatcher
from repro.serving.cache import ForecastCache
from repro.serving.fleet import (
    FleetConfig,
    FleetError,
    HashRing,
    PrototypeBank,
    ShardRouter,
    StaleEpochError,
    WorkerCrashedError,
    replay_fleet,
)
from repro.serving.server import ForecastServer, ServingConfig, replay_streams
from repro.serving.session import EntitySession, EntitySessionStore, SessionStats

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "EntitySession",
    "EntitySessionStore",
    "FleetConfig",
    "FleetError",
    "ForecastCache",
    "ForecastResponse",
    "ForecastServer",
    "HashRing",
    "MicroBatcher",
    "PrototypeBank",
    "ServingConfig",
    "SessionStats",
    "ShardRouter",
    "StaleEpochError",
    "WorkerCrashedError",
    "replay_fleet",
    "replay_streams",
]
