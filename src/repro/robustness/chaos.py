"""Deterministic fault injection for tests and resilience drills.

:class:`ChaosModel` wraps any :class:`~repro.nn.Module` and injects
faults on a fixed call schedule — NaN outputs, raised exceptions,
output amplification (loss spikes), and artificial latency.  Because
the schedule is a pure function of the forward-call counter, every
injection sequence is exactly reproducible, which is what lets the
test suite assert recovery paths batch by batch.

:func:`corrupt_file` / :func:`truncate_file` damage checkpoint archives
on disk (deterministic byte flips / truncation) to exercise the
checksum and fallback logic of
:class:`~repro.robustness.checkpoint.CheckpointManager`.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

from repro.autograd import Tensor
from repro.nn import Module


class ChaosError(RuntimeError):
    """The exception type raised by scheduled failure injection."""


@dataclasses.dataclass
class ChaosSpec:
    """Injection schedule, expressed in forward-call indices (1-based).

    A fault fires on call ``c`` when the window ``start_after < c``
    (and ``c <= stop_after`` if set) is active and ``c`` is a multiple
    of the corresponding ``*_every`` period.  ``0`` disables a channel.
    """

    nan_every: int = 0
    fail_every: int = 0
    spike_every: int = 0
    spike_scale: float = 1e6
    latency_every: int = 0
    latency_s: float = 0.0
    # Hang fault: sleep ``hang_seconds`` and then *raise* — a wedged
    # dependency that eventually errors out.  Unlike the latency fault
    # (which completes normally), a hang is meant to outlive the
    # caller's timeout budget, exercising abandon-and-retry paths such
    # as the maintenance refit timeout.
    hang_every: int = 0
    hang_seconds: float = 0.0
    start_after: int = 0
    stop_after: int | None = None

    def active(self, call: int) -> bool:
        if call <= self.start_after:
            return False
        return self.stop_after is None or call <= self.stop_after

    def fires(self, period: int, call: int) -> bool:
        return bool(period) and self.active(call) and call % period == 0


class ChaosModel(Module):
    """Transparent fault-injecting wrapper around a model.

    Delegates every attribute it does not define to the wrapped model
    (``config``, ``update_prototype``, …), so it can stand in wherever
    the real model is expected — e.g. inside a
    :class:`~repro.serving.ForecastServer` or a
    :class:`~repro.training.Trainer`.  :meth:`forward` and the serving
    path's :meth:`forecast_batch` share one fault schedule, one call
    each.
    """

    def __init__(self, model: Module, spec: ChaosSpec):
        super().__init__()
        self.inner = model
        self.spec = spec
        self.calls = 0
        self.injected_nans = 0
        self.injected_failures = 0
        self.injected_spikes = 0
        self.injected_latencies = 0
        self.injected_hangs = 0
        # (call_index, kind) pairs, for asserting schedule determinism.
        self.injection_log: list[tuple[int, str]] = []

    def __getattr__(self, name: str):
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    def forward(self, *args, **kwargs):
        return self._inject(lambda: self.inner(*args, **kwargs))

    def forecast_batch(self, windows: np.ndarray, engine: str = "eager") -> np.ndarray:
        """The serving path's batched forward, one scheduled call per
        batch (delegating it unwrapped would bypass every fault)."""
        return self._inject(lambda: self.inner.forecast_batch(windows, engine=engine))

    def _inject(self, run):
        """Count one call and run ``run`` under the fault schedule."""
        self.calls += 1
        call = self.calls
        spec = self.spec
        if spec.fires(spec.latency_every, call):
            self.injected_latencies += 1
            self.injection_log.append((call, "latency"))
            time.sleep(spec.latency_s)
        if spec.fires(spec.hang_every, call):
            self.injected_hangs += 1
            self.injection_log.append((call, "hang"))
            time.sleep(spec.hang_seconds)
            raise ChaosError(f"injected hang on call {call} "
                             f"({spec.hang_seconds}s, then failed)")
        if spec.fires(spec.fail_every, call):
            self.injected_failures += 1
            self.injection_log.append((call, "fail"))
            raise ChaosError(f"injected failure on call {call}")
        out = run()
        if spec.fires(spec.nan_every, call):
            self.injected_nans += 1
            self.injection_log.append((call, "nan"))
            if isinstance(out, Tensor):
                return Tensor(np.full_like(np.asarray(out.data), np.nan))
            return np.full_like(out, np.nan)
        if spec.fires(spec.spike_every, call):
            self.injected_spikes += 1
            self.injection_log.append((call, "spike"))
            return out * spec.spike_scale
        return out


# ----------------------------------------------------------------------
# Checkpoint-file corruption helpers
# ----------------------------------------------------------------------
def corrupt_file(path: str | os.PathLike, n_bytes: int = 64, seed: int = 0) -> int:
    """XOR-flip ``n_bytes`` deterministic positions in ``path``.

    Offsets avoid the first 16 bytes so the file still *looks* like a
    zip archive — exercising the checksum, not just the zip parser.
    Returns the number of bytes flipped.
    """
    rng = np.random.default_rng(seed)
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size <= 16:
            raise ValueError(f"{path} too small to corrupt ({size} bytes)")
        offsets = rng.integers(16, size, size=min(n_bytes, size - 16))
        for offset in offsets:
            handle.seek(int(offset))
            byte = handle.read(1)
            handle.seek(int(offset))
            handle.write(bytes([byte[0] ^ 0xFF]))
    return len(offsets)


def truncate_file(path: str | os.PathLike, keep_fraction: float = 0.5) -> int:
    """Truncate ``path`` to ``keep_fraction`` of its size (crash mid-write).

    Returns the new size in bytes.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError("keep_fraction must lie in [0, 1)")
    size = os.path.getsize(path)
    new_size = int(size * keep_fraction)
    os.truncate(path, new_size)
    return new_size
