"""Request-scoped distributed tracing for the serving fleet.

A :class:`RequestContext` is minted once per forecast request — at
:meth:`ForecastServer.submit <repro.serving.ForecastServer.submit>` for
single-process serving, at the :class:`~repro.serving.ShardRouter`
dispatch for the fleet — and carried *through* the RPC envelope into
the worker process.  Every stage that touches the request records a
:class:`StageSpan` (wall-clock start, duration, owning process and
thread); worker-side spans ship back in the RPC reply and merge with
the router-side spans into one :class:`RequestTrace`, the cross-process
latency decomposition ``repro monitor --trace`` prints::

    request 9f31c2a4d0e85b17  entity=tenant-3  total=4.812ms
      router_dispatch   router    0.041ms
      queue_wait        shard-1   0.388ms
      cache_lookup      shard-1   0.012ms
      batch_assembly    shard-1   0.055ms
      forward           shard-1   3.907ms
      gather            router    0.102ms

Timing discipline: *durations* are ``time.perf_counter()`` deltas
measured inside one process (monotonic, sub-microsecond); *cross-
process boundaries* (router dispatch -> shard queue wait) are
``time.time()`` stamps, the only clock two processes on one host
share.  Wall-clock skew can make a boundary delta slightly negative,
so every span duration is clamped at zero — which preserves the
invariant the acceptance tests pin: the per-stage decomposition sums
to **at most** the measured end-to-end latency.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
import time
from collections import deque

#: Canonical stage names in pipeline order (see docs/observability.md).
STAGES = (
    "router_dispatch",  # router: mint -> RPC envelope handed to the pipe
    "queue_wait",       # shard: pipe transfer + time queued behind other work
    "cache_lookup",     # shard: versioned-cache probe phase of the batch
    "batch_assembly",   # shard: window stacking for the batched forward
    "forward",          # shard: the gradient-free batched forward itself
    "gather",           # router: reply receipt -> responses merged
)


# Id minting sits on the serving hot path (two ids per traced request),
# so it must be cheap: a 32-bit random per-process salt plus a 32-bit
# counter is unique within a process (the counter) and across fleet
# processes (the salt; workers are spawned, so each re-imports and
# draws its own), at a fraction of uuid4's os.urandom-per-call cost.
_ID_SALT = f"{int.from_bytes(os.urandom(4), 'big'):08x}"
_ID_COUNTER = itertools.count(1)  # thread-safe: next() is one C call


def new_id() -> str:
    """A 16-hex-char id: process salt + sequence, unique per run."""
    return f"{_ID_SALT}{next(_ID_COUNTER) & 0xFFFFFFFF:08x}"


@dataclasses.dataclass(slots=True)
class RequestContext:
    """Identity of one in-flight forecast request.

    ``trace_id`` groups the request with related work (a scatter-gather
    call shares one trace across shards; a maintenance job stamps its
    trace on every event it emits); ``request_id`` is unique per
    request.  ``origin_ts`` is the wall-clock mint time; ``dispatch_ts``
    is stamped just before the RPC envelope crosses the process
    boundary, letting the receiving worker measure its queue wait.
    """

    entity: str = ""
    request_id: str = dataclasses.field(default_factory=new_id)
    trace_id: str = dataclasses.field(default_factory=new_id)
    origin_ts: float = dataclasses.field(default_factory=time.time)
    dispatch_ts: float = 0.0

    def to_wire(self) -> dict:
        """Plain-dict form for the (picklable) RPC envelope."""
        return {
            "entity": self.entity,
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "origin_ts": self.origin_ts,
            "dispatch_ts": self.dispatch_ts,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "RequestContext":
        return cls(**data)


def mint_context(entity: str = "", trace_id: str | None = None) -> RequestContext:
    """Mint a fresh context (optionally joining an existing trace)."""
    if trace_id is None:
        return RequestContext(entity=entity)
    return RequestContext(entity=entity, trace_id=trace_id)


def mint_contexts(entities) -> dict[str, RequestContext]:
    """Mint one fresh context per entity for requests served together."""
    now = time.time()
    return {entity: RequestContext(entity, new_id(), new_id(), now) for entity in entities}


@dataclasses.dataclass(slots=True)
class StageSpan:
    """One stage's share of a request: where, when, and for how long."""

    stage: str
    seconds: float
    started: float = 0.0  # wall clock (time.time); 0 = not stamped
    process: str = "router"
    thread: str = ""

    def __post_init__(self):
        # Clamp: cross-process boundary deltas can go slightly negative
        # under wall-clock skew; a negative stage would let the
        # decomposition exceed the end-to-end latency.
        if self.seconds < 0:
            self.seconds = 0.0

    def to_wire(self) -> dict:
        return {
            "stage": self.stage,
            "seconds": self.seconds,
            "started": self.started,
            "process": self.process,
            "thread": self.thread,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "StageSpan":
        return cls(**data)


def record_stage(
    sink: list | None,
    stage: str,
    seconds: float,
    started: float = 0.0,
    process: str = "",
) -> None:
    """Append a :class:`StageSpan` to ``sink`` (no-op when ``sink`` is None).

    The single branch keeps instrumented code unconditional: call sites
    always invoke ``record_stage(trace, ...)`` and pay one ``is None``
    test when tracing is off.
    """
    if sink is None:
        return
    sink.append(
        StageSpan(
            stage=stage,
            seconds=seconds,
            started=started,
            process=process or "router",
            thread=threading.current_thread().name,
        )
    )


@dataclasses.dataclass
class RequestTrace:
    """A completed request: its context, merged spans, and total latency."""

    context: RequestContext
    spans: list[StageSpan]
    total_seconds: float

    def decomposition(self) -> dict[str, float]:
        """Seconds per stage (stages may repeat across sub-batches)."""
        stages: dict[str, float] = {}
        for span in self.spans:
            stages[span.stage] = stages.get(span.stage, 0.0) + span.seconds
        return stages

    @property
    def stage_seconds(self) -> float:
        """Sum of every recorded span (<= ``total_seconds`` by design)."""
        return sum(span.seconds for span in self.spans)

    def processes(self) -> set[str]:
        return {span.process for span in self.spans}

    def event_payload(self) -> dict:
        """The ``serve_trace`` run-event payload for this trace."""
        return {
            "entity": self.context.entity,
            "request_id": self.context.request_id,
            "trace_id": self.context.trace_id,
            "total_ms": round(self.total_seconds * 1e3, 4),
            "spans": [
                {
                    "stage": span.stage,
                    "ms": round(span.seconds * 1e3, 4),
                    "process": span.process,
                    "thread": span.thread,
                }
                for span in self.spans
            ],
        }


class TraceBuffer:
    """Bounded, thread-safe ring of recent :class:`RequestTrace` records.

    Requests answered by one batch share their spans and latency, so
    :meth:`record_batch` keeps them as one entry and the
    :class:`RequestTrace` objects are only built when :meth:`traces` is
    read — the serving hot path allocates one tuple per batch.
    """

    def __init__(self, keep: int = 256):
        if keep < 1:
            raise ValueError("keep must be at least 1")
        self.keep = keep
        self._lock = threading.Lock()
        # (contexts, spans, total_seconds) per recorded batch, oldest first.
        self._entries: deque[tuple[list, list, float]] = deque()
        self._size = 0  # contexts across all entries (may exceed keep)

    def record(self, trace: RequestTrace) -> None:
        self.record_batch([trace.context], trace.spans, trace.total_seconds)

    def record_batch(
        self, contexts: list[RequestContext], spans: list[StageSpan], total_seconds: float
    ) -> None:
        """Record one trace per context, all sharing ``spans`` and latency."""
        if not contexts:
            return
        with self._lock:
            self._entries.append((contexts, spans, total_seconds))
            self._size += len(contexts)
            # Drop whole entries that lie entirely past the newest `keep`.
            while self._size - len(self._entries[0][0]) >= self.keep:
                self._size -= len(self._entries.popleft()[0])

    def traces(self) -> list[RequestTrace]:
        with self._lock:
            entries = list(self._entries)
        traces = [
            RequestTrace(context, list(spans), total)
            for contexts, spans, total in entries
            for context in contexts
        ]
        return traces[-self.keep :]

    def __len__(self) -> int:
        with self._lock:
            return min(self._size, self.keep)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._size = 0


def format_trace(trace: RequestTrace) -> str:
    """Render one trace as the indented decomposition block."""
    context = trace.context
    lines = [
        f"request {context.request_id}  entity={context.entity or '?'}  "
        f"trace={context.trace_id}  total={trace.total_seconds * 1e3:.3f}ms"
    ]
    width = max((len(span.stage) for span in trace.spans), default=0)
    for span in trace.spans:
        lines.append(
            f"  {span.stage.ljust(width)}  {span.process:<10}"
            f"{span.seconds * 1e3:9.3f}ms"
        )
    unattributed = trace.total_seconds - trace.stage_seconds
    if trace.spans and unattributed > 0:
        lines.append(
            f"  {'(unattributed)'.ljust(width)}  {'':<10}"
            f"{unattributed * 1e3:9.3f}ms"
        )
    return "\n".join(lines)
