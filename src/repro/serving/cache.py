"""Versioned forecast cache: one slot per entity.

A slot holds ``(ring version, horizon, prototype version, forecast)``.
The ring version advances once per accepted observation
(:class:`~repro.serving.session.ObservationRing`) and a lookup always
asks for the entity's *current* version, so only an entity's newest
forecast can ever be served.  A put replaces the entity's slot, never
with an older ring version than the one it holds; a lookup hits only on
an exact match of version, horizon and prototype version.  The cache
holds ``min(entities, capacity)`` forecasts, never superseded ones.

The prototype version catches adaptation: a bank swap or a one-row edit
(:meth:`~repro.core.model.FOCUSForecaster.update_prototype`) changes the
forecast for an *unchanged* window, so a lookup whose prototype version
disagrees evicts the slot and reports a miss.  Values are copied on both
insert and lookup: cache memory is never aliased by callers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np


class ForecastCache:
    """Thread-safe LRU of per-entity forecast slots; ``capacity`` bounds
    the number of entities held."""

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._slots: OrderedDict[str, tuple[int, int, int, np.ndarray]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(
        self, entity: str, version: int, horizon: int, prototype_version: int
    ) -> np.ndarray | None:
        """A copy of the cached forecast, or ``None`` on miss.

        A slot computed under a different ``prototype_version`` is
        evicted on sight (the prototype EMA moved the dictionary since).
        """
        with self._lock:
            slot = self._slots.get(entity)
            if slot is None or slot[0] != version or slot[1] != horizon:
                self.misses += 1
                return None
            if slot[2] != prototype_version:
                del self._slots[entity]
                self.invalidations += 1
                self.misses += 1
                return None
            self._slots.move_to_end(entity)
            self.hits += 1
            return slot[3].copy()

    def put(
        self, entity: str, version: int, horizon: int, prototype_version: int,
        forecast: np.ndarray,
    ) -> None:
        """Fill the entity's slot, unless it holds a newer ring version."""
        with self._lock:
            slot = self._slots.get(entity)
            if slot is not None and slot[0] > version:
                return
            forecast = np.array(forecast, copy=True)
            self._slots[entity] = (version, horizon, prototype_version, forecast)
            self._slots.move_to_end(entity)
            if len(self._slots) > self.capacity:
                self._slots.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._slots.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._slots)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
