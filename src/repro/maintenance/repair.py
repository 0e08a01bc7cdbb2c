"""Prototype-bank repair primitives for the maintenance subsystem.

Three building blocks used by :class:`~repro.maintenance.MaintenanceWorker`:

- :class:`RecentHistory` — a thread-safe per-entity bounded row history
  (deeper than the serving rings), the data source for refits, drift
  profiling, and held-out shadow scoring;
- :func:`incremental_repair` — ODAC-style split/merge of *individual*
  prototypes driven by assignment statistics (split the bucket whose
  within-bucket dispersion exploded, merge the closest prototype pair to
  free the slot), for cheap repair of small drifts without a full refit;
- :class:`ShadowScorer` — scores a candidate bank against the live bank
  on held-out recent windows using a **replica** model rebuilt from a
  snapshot, so scoring never touches the serving model; the replica
  replays compiled plans and is reused across jobs while the model is
  unchanged.

The split/merge trigger follows the ODAC pattern (SNIPPETS.md Snippet 1):
act on cluster statistics — here the within-bucket composite-distance
dispersion — rather than refitting everything, and fall back to a plain
mean-nudge when no bucket's statistics justify structural surgery.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.clustering import bucket_sums, composite_distance
from repro.core.model import FOCUSForecaster
from repro.data.segments import segment_series

SHADOW_METRICS = ("mse", "inertia")
# State-dict keys of the prototype buffers (one per ProtoAttn mixer).
_PROTOTYPE_STATE_SUFFIX = ".prototypes__buffer"


class RecentHistory:
    """Bounded per-entity observation history (thread-safe).

    The serving rings only hold one lookback window; maintenance needs
    more — enough rows per entity to refit prototypes on the *current*
    regime and still hold out ``lookback + horizon`` rows for shadow
    scoring.  Rows containing non-finite values are dropped at the door
    (a NaN row would poison both the refit and the holdout targets).

    Each entity's rows live in one preallocated ``(2 * capacity, N)``
    array whose newest ``depth`` rows are always contiguous: appends
    write past the end and, once the array is full, the stored rows
    move back to its front (one copy per ``capacity`` appends).  So
    :meth:`tail` and the snapshots are slices, never stacks of rows.
    """

    def __init__(self, capacity: int, num_entities: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.num_entities = num_entities
        self._lock = threading.Lock()
        # entity -> [rows array, end, depth]: stored rows are
        # ``rows[end - depth : end]``, oldest first.
        self._rings: dict[str, list] = {}
        # Cumulative rows *observed* per entity (dropped rows included):
        # the entity's position on its global stream clock.  The stored
        # buffer covers global indices [observed - depth, observed),
        # which is what phase-aligned refits key on.
        self._observed: dict[str, int] = {}
        self.dropped_rows = 0

    def record(self, entity_id: str, row: np.ndarray) -> int | None:
        """Append one ``(N,)`` row; returns the entity's stored depth,
        or ``None`` when the row was dropped (non-finite values)."""
        row = np.asarray(row, dtype=np.float64).ravel()
        if row.shape != (self.num_entities,):
            raise ValueError(
                f"expected ({self.num_entities},) row, got {row.shape}"
            )
        with self._lock:
            return self._append(entity_id, row, bool(np.isfinite(row).all()))

    def record_many(
        self,
        entity_ids: list[str],
        rows: np.ndarray,
        finite: np.ndarray,
        start: int,
        due,
        steps: int,
        limit: int | None,
    ) -> tuple[int, list[int], list[np.ndarray]]:
        """Append ``rows[i]`` to ``entity_ids[i]``'s history, in order.

        ``rows`` is a float64 ``(E, N)`` block and ``finite`` its per-row
        finiteness; rows from ``start`` on are appended.  After each
        accepted row, ``due(entity_id, depth)`` decides whether the
        entity's newest ``steps`` rows are copied out at that moment.
        Appending stops right after the ``limit``-th copied window
        (None: no limit).
        Returns ``(stop, indices, windows)``: the index after the last
        appended row, and the row index and ``(steps, N)`` window of
        every copy.
        """
        indices: list[int] = []
        windows: list[np.ndarray] = []
        stop = len(entity_ids)
        with self._lock:
            for index in range(start, stop):
                entity_id = entity_ids[index]
                depth = self._append(entity_id, rows[index], finite[index])
                if depth is None or not due(entity_id, depth):
                    continue
                buffer, end, _ = self._rings[entity_id]
                indices.append(index)
                windows.append(buffer[end - steps : end].copy())
                if limit is not None and len(indices) >= limit:
                    return index + 1, indices, windows
        return stop, indices, windows

    def _append(self, entity_id: str, row: np.ndarray, finite: bool) -> int | None:
        """One row into the entity's ring (caller holds the lock)."""
        # A dropped row still advances the entity's stream clock.
        self._observed[entity_id] = self._observed.get(entity_id, 0) + 1
        if not finite:
            self.dropped_rows += 1
            return None
        ring = self._rings.get(entity_id)
        if ring is None:
            buffer = np.empty((2 * self.capacity, self.num_entities))
            ring = self._rings[entity_id] = [buffer, 0, 0]
        buffer, end, depth = ring
        if end == len(buffer):
            buffer[:depth] = buffer[end - depth : end]
            end = depth
        buffer[end] = row
        ring[1] = end + 1
        ring[2] = depth = min(depth + 1, self.capacity)
        return depth

    def tail(self, entity_id: str, steps: int) -> np.ndarray | None:
        """The entity's last ``steps`` rows as ``(steps, N)``, or None."""
        with self._lock:
            ring = self._rings.get(entity_id)
            if ring is None or ring[2] < steps:
                return None
            buffer, end, _ = ring
            return buffer[end - steps : end].copy()

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copy of every entity's history as ``(T, N)`` arrays."""
        return self.snapshot_with_starts()[0]

    def snapshot_with_starts(
        self,
    ) -> tuple[dict[str, np.ndarray], dict[str, int]]:
        """History copy plus each entity's global start index.

        ``starts[entity]`` is the position of the entity's oldest stored
        row on its stream clock (total rows ever observed minus stored
        depth).  Both maps are taken under one lock acquisition so they
        describe the same instant — a row arriving between two separate
        calls would shift every phase computation off by one.
        """
        with self._lock:
            rows = {
                entity_id: buffer[end - depth : end].copy()
                for entity_id, (buffer, end, depth) in self._rings.items()
            }
            starts = {
                entity_id: self._observed[entity_id] - depth
                for entity_id, (_, _, depth) in self._rings.items()
            }
        return rows, starts

    def total_rows(self) -> int:
        with self._lock:
            return sum(depth for _, _, depth in self._rings.values())


def build_job_data(
    history: dict[str, np.ndarray],
    lookback: int,
    horizon: int,
    segment_length: int,
    holdout_windows: int,
) -> tuple[
    np.ndarray | None,
    list[np.ndarray],
    list[np.ndarray],
    dict[str, np.ndarray],
]:
    """Split a history snapshot into refit segments and holdout pairs.

    Returns ``(fit_segments, holdout_inputs, holdout_targets, fit_rows)``:

    - holdout pairs are ``(lookback, N)`` inputs with their realized
      ``(horizon, N)`` continuations, taken from the *newest* rows and
      walked backwards in ``horizon``-sized strides until
      ``holdout_windows`` pairs are collected (round-robin across
      entities so no single entity dominates);
    - fit segments come from everything *older* than each entity's
      newest holdout target, so the shadow targets are never part of
      the data the candidate bank was fitted on;
    - ``fit_rows`` maps each entity to the raw rows behind
      ``fit_segments`` so callers can re-segment at a different phase
      offset (see :func:`phase_candidates`).
    """
    inputs: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    fit_parts: list[np.ndarray] = []
    span = lookback + horizon
    offsets_per_entity: dict[str, int] = {}
    entities = [e for e, rows in history.items() if len(rows) >= span]
    # Round-robin offset walk: entity A offset 0, B offset 0, ... A offset 1, ...
    progress = True
    while len(inputs) < holdout_windows and progress and entities:
        progress = False
        for entity_id in entities:
            if len(inputs) >= holdout_windows:
                break
            rows = history[entity_id]
            offset = offsets_per_entity.get(entity_id, 0)
            end = len(rows) - offset * horizon
            if end < span:
                continue
            window = rows[end - span : end]
            inputs.append(window[:lookback])
            targets.append(window[lookback:])
            offsets_per_entity[entity_id] = offset + 1
            progress = True
    fit_rows_by_entity: dict[str, np.ndarray] = {}
    for entity_id, rows in history.items():
        fit_rows = rows[:-horizon] if entity_id in offsets_per_entity else rows
        if len(fit_rows) >= segment_length:
            fit_rows_by_entity[entity_id] = fit_rows
            fit_parts.append(segment_series(fit_rows, segment_length))
    fit_segments = np.concatenate(fit_parts) if fit_parts else None
    return fit_segments, inputs, targets, fit_rows_by_entity


def phase_candidates(
    fit_rows: dict[str, np.ndarray],
    segment_length: int,
    starts: dict[str, int] | None = None,
) -> list[tuple[int, np.ndarray]]:
    """Segment the refit rows at every stream phase offset.

    A streaming history buffer starts at an arbitrary point of the
    series, so chopping it from row 0 can put every segment boundary
    mid-motif — the clusterer then learns *hybrid* shapes (the tail of
    one motif glued to the head of the next) that route nothing like
    the offline-fitted bank the model was trained against.  The
    clustering objective cannot detect this: on near-cyclic data the
    misphased hybrids cluster just as tightly as the true motifs, so
    inertia is flat across offsets while held-out forecast error varies
    by an order of magnitude.

    The repair: enumerate all ``segment_length`` phase offsets and let
    the caller pick the winner on *held-out shadow score* (the business
    metric) rather than inertia.

    The phase is a property of the *stream*, not of the buffer: two
    entities whose buffers start one row apart (a refit triggered
    mid-step) need chop offsets one row apart to stay mutually aligned.
    ``starts`` maps each entity to the global stream index of its first
    row (see :meth:`RecentHistory.snapshot_with_starts`); phase ``f``
    then chops entity ``e`` at ``(f - starts[e]) % segment_length`` so
    every segment boundary lands on global indices ``≡ f`` modulo the
    segment length.  Without ``starts`` every entity is chopped at the
    raw offset ``f``.

    Returns ``(phase, segments)`` pairs for every phase that yields at
    least one segment; phase 0 with no ``starts`` reproduces the plain
    ``segment_series`` chop.
    """
    candidates: list[tuple[int, np.ndarray]] = []
    for phase in range(segment_length):
        parts = []
        for entity_id, rows in fit_rows.items():
            base = starts.get(entity_id, 0) if starts else 0
            offset = (phase - base) % segment_length
            if len(rows) - offset >= segment_length:
                parts.append(segment_series(rows[offset:], segment_length))
        if parts:
            candidates.append((phase, np.concatenate(parts)))
    return candidates


def bank_statistics(
    segments: np.ndarray, prototypes: np.ndarray, alpha: float
) -> dict:
    """Assignment statistics of ``segments`` under ``prototypes``.

    Returns labels, per-prototype counts, and per-bucket dispersion
    (mean nearest-prototype composite distance) — the statistics the
    split/merge decisions are driven by.
    """
    distances = composite_distance(segments, prototypes, alpha)
    labels = distances.argmin(axis=1)
    nearest = distances[np.arange(len(segments)), labels]
    k = prototypes.shape[0]
    counts = np.bincount(labels, minlength=k)
    dispersion = bucket_sums(
        labels, np.asarray(nearest, dtype=np.float64), k
    ) / np.maximum(counts, 1)
    return {
        "labels": labels,
        "counts": counts,
        "dispersion": dispersion,
        "mean_distance": float(nearest.mean()) if len(segments) else 0.0,
    }


def _two_means(
    bucket: np.ndarray, alpha: float, iters: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Split one bucket into two centroids (tiny Lloyd under Eq. 13).

    Deterministically seeded at the bucket's two mutually farthest-ish
    segments: the segment farthest from the bucket mean, then the
    segment farthest from *that* one.
    """
    mean = bucket.mean(axis=0, keepdims=True)
    first = int(composite_distance(bucket, mean, alpha)[:, 0].argmax())
    second = int(
        composite_distance(bucket, bucket[first : first + 1], alpha)[:, 0].argmax()
    )
    centers = bucket[[first, second]].copy()
    for _ in range(iters):
        split_labels = composite_distance(bucket, centers, alpha).argmin(axis=1)
        for side in (0, 1):
            members = bucket[split_labels == side]
            if len(members):
                centers[side] = members.mean(axis=0)
    return centers[0], centers[1]


def incremental_repair(
    prototypes: np.ndarray,
    segments: np.ndarray,
    alpha: float,
    split_factor: float = 1.5,
    min_bucket: int = 8,
    nudge: float = 0.5,
) -> tuple[np.ndarray, dict]:
    """ODAC-style incremental split/merge repair of a prototype bank.

    Statistics-driven, O(n·k) in one pass, and *local* — at most two
    prototype slots change structurally, the rest move (at most) by a
    bounded mean-nudge:

    - **split** fires when one bucket's within-bucket dispersion exceeds
      ``split_factor`` times the utilization-weighted mean dispersion
      and the bucket holds at least ``2 * min_bucket`` segments: the
      bucket is cut in two by a tiny 2-means;
    - to keep ``k`` fixed (the model's geometry cannot change), the
      split **merges** the closest other prototype pair first — their
      count-weighted mean keeps the coverage, the freed slot receives
      the second split centroid;
    - when no bucket's statistics justify surgery, every occupied
      prototype is nudged ``nudge`` of the way toward its current bucket
      mean — cheap re-centering for mild drift.

    Returns ``(candidate, info)`` where ``info`` records what happened
    (``split``/``merged`` slot indices or ``nudged`` count).  The input
    bank is never modified.
    """
    prototypes = np.asarray(prototypes, dtype=np.float64)
    candidate = prototypes.copy()
    k = candidate.shape[0]
    stats = bank_statistics(segments, candidate, alpha)
    counts, dispersion = stats["counts"], stats["dispersion"]
    occupied = counts > 0
    info: dict = {"split": None, "merged": None, "nudged": 0}

    total = counts.sum()
    weighted_dispersion = (
        float((dispersion * counts).sum() / total) if total else 0.0
    )
    split_candidates = np.where(counts >= 2 * min_bucket)[0]
    do_split = (
        k >= 3
        and len(split_candidates) > 0
        and weighted_dispersion > 0.0
        and dispersion[split_candidates].max()
        > split_factor * weighted_dispersion
    )
    if do_split:
        split_at = int(
            split_candidates[dispersion[split_candidates].argmax()]
        )
        # Merge the closest pair among the other slots to free one.
        others = [j for j in range(k) if j != split_at]
        inter = composite_distance(candidate[others], candidate[others], alpha)
        np.fill_diagonal(inter, np.inf)
        flat = int(inter.argmin())
        a, b = others[flat // len(others)], others[flat % len(others)]
        weight_a = max(int(counts[a]), 1)
        weight_b = max(int(counts[b]), 1)
        candidate[a] = (
            weight_a * candidate[a] + weight_b * candidate[b]
        ) / (weight_a + weight_b)
        bucket = segments[stats["labels"] == split_at]
        first, second = _two_means(bucket, alpha)
        candidate[split_at] = first
        candidate[b] = second
        info["split"] = split_at
        info["merged"] = (a, b)
    else:
        sums = bucket_sums(
            stats["labels"], np.asarray(segments, dtype=np.float64), k
        )
        means = sums / np.maximum(counts, 1)[:, None]
        candidate[occupied] += nudge * (means[occupied] - candidate[occupied])
        info["nudged"] = int(occupied.sum())
    return candidate, info


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class ShadowScorer:
    """Score prototype banks on held-out windows without touching the
    live model.

    Built from a :meth:`FOCUSForecaster.snapshot
    <repro.core.model.FOCUSForecaster.snapshot>` — the replica is
    bit-identical to the serving model, so swapping candidate banks into
    it and forecasting the holdout inputs measures exactly what serving
    accuracy *would* be under each bank.  Metrics:

    - ``"mse"`` — mean squared forecast error on the holdout targets
      (the business metric; non-finite predictions score ``inf`` so a
      numerically broken candidate can never win);
    - ``"inertia"`` — mean nearest-prototype composite distance of the
      holdout segments (the clustering objective itself; cheaper, and
      independent of the readout weights).

    Forecasts run through the compiled plan engine (``engine="plan"``),
    which is bit-identical to eager in float64, and plans read the
    prototype buffers live, so one replica serves any number of banks
    with a single plan trace.  A scorer is therefore meant to be kept
    and reused while the model it was built from is unchanged up to its
    bank (see :meth:`serves`).  :meth:`score` holds a lock around
    installing the bank and replaying, so threads sharing one scorer
    (a refit attempt, an abandoned straggler, the rollback watch) get
    exactly the scores they would get alone.
    """

    def __init__(self, snapshot: dict, metric: str = "mse"):
        if metric not in SHADOW_METRICS:
            raise ValueError(
                f"unknown shadow metric {metric!r}; choose from {SHADOW_METRICS}"
            )
        self.metric = metric
        self._replica = FOCUSForecaster.from_snapshot(snapshot)
        self._replica.eval()
        self._config = self._replica.config
        self._snapshot = snapshot
        self._lock = threading.Lock()

    def serves(self, snapshot: dict) -> bool:
        """Whether the replica is the model ``snapshot`` describes, up to
        its prototype bank (which :meth:`score` replaces anyway).

        Compares the architecture (``config``, ``mixer``, ``fusion``,
        ``dtype``) and every non-prototype state array by dtype, shape
        and bytes: ``np.array_equal`` alone would call float32 and
        float64 weights equal, and plans fold those weights at trace
        time.
        """
        mine = self._snapshot
        if any(mine[key] != snapshot[key] for key in ("config", "mixer", "fusion", "dtype")):
            return False
        if mine["state"].keys() != snapshot["state"].keys():
            return False
        return all(
            name.endswith(_PROTOTYPE_STATE_SUFFIX) or _same_bits(value, snapshot["state"][name])
            for name, value in mine["state"].items()
        )

    def score(
        self,
        bank: np.ndarray,
        inputs: list[np.ndarray],
        targets: list[np.ndarray],
    ) -> float:
        """Lower is better.  ``inf`` when the bank cannot be scored."""
        if not inputs:
            return float("inf")
        if self.metric == "inertia":
            segments = np.concatenate(
                [
                    segment_series(window, self._config.segment_length)
                    for window in inputs
                ]
            )
            distances = composite_distance(
                segments, np.asarray(bank, dtype=np.float64), self._config.alpha
            )
            return float(distances.min(axis=1).mean())
        with self._lock:
            self._replica.set_prototypes(bank)
            predictions = self._replica.forecast_batch(np.stack(inputs), engine="plan")
        if not np.isfinite(predictions).all():
            return float("inf")
        return float(np.mean((predictions - np.stack(targets)) ** 2))
