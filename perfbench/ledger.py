"""Outside-in tracing: spans around calls into each layer's public API.

Nothing here touches ``src/``.  :meth:`Ledger.attach` replaces bound
methods on *instances* (``server.batcher.forecast_sessions``,
``model.forecast_batch``, the mixers' and fusion's ``forward`` ...)
with timing wrappers and :meth:`Ledger.detach` restores them.  A span
is ``(name, start, end, parent, request id)``; spans open on one thread
nest through a thread-local stack, and every span carries the id of the
root span it descends from (a client call on the load thread, a batch
on the server's worker thread).  Spans stay in memory until
:meth:`Ledger.write` dumps them when the run ends.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "thread", "note")

    def __init__(self, name, start, parent, rid, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.thread = thread
        self.note = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Ledger:
    """In-memory span recorder with instance-method wrapping."""

    #: Windows kept from the forward log for the plan-engine replay.
    POOL_WINDOWS = 32

    def __init__(self):
        self.spans: list[Span] = []
        self.pool: list[np.ndarray] = []  # the first windows forwarded
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    def _open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        rid = parent.rid if parent is not None else next(self._ids)
        span = Span(name, time.perf_counter(), parent, rid, threading.current_thread().name)
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextlib.contextmanager
    def quiet(self, name: str):
        """A span ``name`` inside which wrapped methods record nothing."""
        with self.span(name):
            self._local.paused = True
            try:
                yield
            finally:
                self._local.paused = False

    def wrap(self, obj, attr: str, name: str, note=None) -> None:
        """Time every call of ``obj.attr`` as span ``name``.

        ``note(args, result)`` may extract one value stored on the span
        (a batch size, a cache hit, a job status).
        """
        original = getattr(obj, attr)
        own = attr in vars(obj)

        def timed(*args, **kwargs):
            if getattr(self._local, "paused", False):
                return original(*args, **kwargs)
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.note = note(args, result)
            return result

        setattr(obj, attr, timed)
        self._patched.append((obj, attr, own, original))

    def detach(self) -> None:
        """Restore every wrapped method (latest first)."""
        while self._patched:
            obj, attr, own, original = self._patched.pop()
            if own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

    # ------------------------------------------------------------------
    def attach(self, server=None, model=None, worker=None) -> None:
        """Wrap the public entry points of each layer given."""
        if server is not None:
            self.wrap(server, "forecast_many", "server.forecast_many")
            self.wrap(server, "submit", "server.submit")
            self.wrap(server, "observe", "server.observe")
            self.wrap(server.store, "observe", "session.observe")
            self.wrap(
                server.store, "observe_many", "session.observe_many",
                note=lambda args, _: len(args[1]),
            )
            self.wrap(
                server.batcher, "forecast_sessions", "batcher.forecast_sessions",
                note=lambda args, _: len(args[0]),
            )
            if server.cache is not None:
                self.wrap(
                    server.cache, "get", "cache.get",
                    note=lambda _, result: result is not None,
                )
                self.wrap(server.cache, "put", "cache.put")
        if model is not None:
            self._attach_model(model)
        if worker is not None:
            self.wrap(worker, "record", "maintenance.record")
            self.wrap(
                worker, "run_once", "maintenance.job",
                note=lambda _, result: result["status"],
            )

    def _attach_model(self, model) -> None:
        self.wrap(model, "forecast_batch", "model.forward", note=self._log_forward)
        if model.revin is not None:
            self.wrap(model.revin, "normalize", "model.revin")
            self.wrap(model.revin, "denormalize", "model.revin")
        extractor = model.extractor
        self.wrap(extractor, "forward", "model.extractor")
        self.wrap(extractor.temporal_mixer, "forward", "model.temporal_protoattn")
        self.wrap(extractor.entity_mixer, "forward", "model.entity_protoattn")
        self.wrap(model.fusion, "forward", "model.fusion")

    def _log_forward(self, args, _result) -> int:
        """Note a forward's batch size; keep its windows for the plan
        replay until the pool holds ``POOL_WINDOWS``."""
        windows = args[0]
        if sum(len(w) for w in self.pool) < self.POOL_WINDOWS:
            self.pool.append(np.array(windows, copy=True))
        return len(windows)

    def forward_sizes(self) -> list[int]:
        """Batch size of every eager forward, in call order."""
        return [span.note for span in self.spans if span.name == "model.forward"]

    # ------------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[id(span.parent)] += span.seconds
        return {id(span): span.seconds - covered[id(span)] for span in self.spans}

    def write(self, path) -> None:
        """Dump every span as one JSON line (times relative to the first)."""
        origin = self.spans[0].start if self.spans else 0.0
        index = {id(span): position for position, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as sink:
            for position, span in enumerate(self.spans):
                sink.write(
                    json.dumps(
                        {
                            "id": position,
                            "name": span.name,
                            "start_us": round((span.start - origin) * 1e6, 3),
                            "end_us": round((span.end - origin) * 1e6, 3),
                            "parent": index.get(id(span.parent)),
                            "rid": span.rid,
                            "thread": span.thread,
                            "note": span.note,
                        }
                    )
                    + "\n"
                )
