"""Turn a workload outcome (and, when traced, its spans) into metrics."""

from __future__ import annotations

import resource
import statistics
import time
from collections import defaultdict

import numpy as np


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcome, fix) -> dict:
    """The metrics a user sees, measured with tracing off.

    Throughput is the median over the run's passes: the host's speed
    drifts over seconds, and a median keeps a slow stretch from setting
    the number.
    """
    return {
        "setup_s": (_median(fix.setup_s), "s"),
        "throughput_fps": (_median(outcome.pass_rates), "1/s"),
        "forecast_mse": (outcome.mse, "mse"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def summary(outcome) -> dict:
    """Counts and request outcomes printed beside the metrics."""
    attempted = max(outcome.attempted, 1)
    return {
        "sent": outcome.sent,
        "succeeded": outcome.answered,
        "failed": outcome.failed,
        "latency_samples": len(outcome.latencies_ms),
        "slo_ok_share": outcome.slo_ok / attempted,
        "failed_share": outcome.failed / attempted,
        "refit_p50_s": _median(outcome.refit_s),
        "refits": len(outcome.refit_s),
        "checked_bitwise": outcome.checked,
        "passes": outcome.passes,
        "measured_s": outcome.wall_s,
        "latency_p50_ms": _pct(outcome.latencies_ms, 50),
        "latency_p95_ms": _pct(outcome.latencies_ms, 95),
        "latency_p99_ms": _pct(outcome.latencies_ms, 99),
    }


def engine_replay(model, batch_sizes, pool, budget_s: float = 5.0, limit: int = 400):
    """Replay the run's forward log through ``engine="plan"``.

    A call that traces a new plan (first use of a batch size, or a size
    whose plan the bounded plan cache evicted) counts as a build; every
    other call as a replay.  The first call at each size is compared
    bit-for-bit with the eager forward.  Returns ``(metrics, wrong)``.
    """
    metrics = {
        "engine.replay_ms": (0.0, "ms"),
        "engine.build_ms": (0.0, "ms"),
        "engine.builds": (0, "count"),
        "engine.distinct_batch_sizes": (len(set(batch_sizes)), "count"),
    }
    if not batch_sizes or not pool:
        return metrics, []
    windows = np.concatenate(pool)
    seen, builds, replays, checked, wrong = [], [], [], set(), []
    started = time.perf_counter()
    for size in batch_sizes[:limit]:
        if time.perf_counter() - started > budget_s:
            break
        batch = windows[np.arange(size) % len(windows)]
        began = time.perf_counter()
        planned = model.forecast_batch(batch, engine="plan")
        took = time.perf_counter() - began
        stats = model.plan_stats()
        if any(stats is known for known in seen):
            replays.append(took)
        else:
            seen.append(stats)
            builds.append(took)
        if size not in checked:
            checked.add(size)
            if not np.array_equal(planned, model.forecast_batch(batch)):
                wrong.append(f"plan engine differs from eager at batch size {size}")
    metrics["engine.replay_ms"] = (_mean(replays) * 1e3, "ms")
    metrics["engine.build_ms"] = (_mean(builds) * 1e3, "ms")
    metrics["engine.builds"] = (len(builds), "count")
    return metrics, wrong


def per_layer(ledger, root, outcome, fix) -> dict:
    """Layer metrics from the traced run's spans (see README.md)."""
    selfs = ledger.self_times()
    spans = defaultdict(list)
    children = defaultdict(list)
    for span in ledger.spans:
        spans[span.name].append(span)
        if span.parent is not None:
            children[id(span.parent)].append(span)

    def self_ms(name: str) -> float:
        return sum(selfs[id(span)] for span in spans[name]) * 1e3

    forwards = len(spans["model.forward"])

    def per_forward(name: str) -> float:
        return self_ms(name) / forwards if forwards else 0.0

    batches = spans["batcher.forecast_sessions"]
    overhead = [
        batch.seconds
        - sum(child.seconds for child in children[id(batch)] if child.name == "model.forward")
        for batch in batches
    ]
    # Batches the server's worker thread took off the queue, in order;
    # one submitter means queue order is submission order.
    queued = sorted(
        (span for span in batches if span.thread == "focus-serving-worker"),
        key=lambda span: span.start,
    )
    taken = [span.start for span in queued for _ in range(span.note)]
    waits = [(start - sent) * 1e3 for start, sent in zip(taken, outcome.submitted)]
    lookups = spans["cache.get"]
    observes = spans["session.observe"]
    rows = len(observes) + sum(span.note for span in spans["session.observe_many"])
    jobs = spans["maintenance.job"]
    layer_time = sum(
        span.seconds for span in children[id(root)] if not span.name.startswith("bench.")
    )
    attempted = max(outcome.attempted, 1)
    return {
        "model.forward_ms": (_mean([s.seconds for s in spans["model.forward"]]) * 1e3, "ms"),
        "model.forwards": (forwards, "count"),
        "model.forward_self_ms": (per_forward("model.forward"), "ms"),
        "model.revin_ms": (per_forward("model.revin"), "ms"),
        "model.temporal_protoattn_ms": (per_forward("model.temporal_protoattn"), "ms"),
        "model.entity_protoattn_ms": (per_forward("model.entity_protoattn"), "ms"),
        "model.fusion_ms": (per_forward("model.fusion"), "ms"),
        "model.extractor_self_ms": (per_forward("model.extractor"), "ms"),
        "server.forecast_many_ms": (
            _mean([span.seconds for span in spans["server.forecast_many"]]) * 1e3, "ms"
        ),
        "server.queue_wait_p50_ms": (_pct(waits, 50), "ms"),
        "server.queue_wait_p99_ms": (_pct(waits, 99), "ms"),
        "server.batches": (len(queued), "count"),
        "server.batch_size_mean": (_mean([span.note for span in queued]), "count"),
        "batcher.batches": (len(batches), "count"),
        "batcher.execute_ms": (_mean([span.seconds for span in batches]) * 1e3, "ms"),
        "batcher.overhead_ms": (_mean(overhead) * 1e3, "ms"),
        "cache.lookups": (len(lookups), "count"),
        "cache.hit_ratio": (
            sum(bool(span.note) for span in lookups) / len(lookups) if lookups else 0.0,
            "ratio",
        ),
        "cache.get_us": (_mean([span.seconds for span in lookups]) * 1e6, "us"),
        "session.observations": (rows, "count"),
        "session.observe_us": (_mean([span.seconds for span in observes]) * 1e6, "us"),
        "maintenance.jobs": (len(jobs), "count"),
        "maintenance.job_s": (_median([span.seconds for span in jobs]), "s"),
        "maintenance.swap_ratio": (
            sum(span.note == "swapped" for span in jobs) / len(jobs) if jobs else 0.0,
            "ratio",
        ),
        "maintenance.record_us": (
            _mean([span.seconds for span in spans["maintenance.record"]]) * 1e6, "us"
        ),
        "clustering.fit_s": (_median(fix.clustering_s), "s"),
        "training.fit_s": (_median(fix.training_s), "s"),
        "training.step_ms": (_median(fix.step_ms), "ms"),
        "loadgen.sent": (outcome.sent, "count"),
        "loadgen.late_p99_ms": (_pct(outcome.late_ms, 99), "ms"),
        "request.latency_p50_ms": (_pct(outcome.latencies_ms, 50), "ms"),
        "request.latency_p95_ms": (_pct(outcome.latencies_ms, 95), "ms"),
        "request.latency_p99_ms": (_pct(outcome.latencies_ms, 99), "ms"),
        "request.slo_ok_share": (outcome.slo_ok / attempted, "ratio"),
        "request.failed_share": (outcome.failed / attempted, "ratio"),
        "trace.spans": (len(ledger.spans), "count"),
        "trace.unattributed_ms": (
            (outcome.wall_s - layer_time) * 1e3 / max(outcome.answered, 1), "ms"
        ),
    }


def overhead_pct(workload: str, untraced, traced) -> float:
    """How much tracing slowed the workload's own cost measure: latency
    p50 in the open loop, wall time per forecast in the closed ones."""
    if workload == "open-loop":
        before = _pct(untraced.latencies_ms, 50)
        after = _pct(traced.latencies_ms, 50)
    else:
        before = untraced.wall_s / max(untraced.answered, 1)
        after = traced.wall_s / max(traced.answered, 1)
    return (after / before - 1.0) * 100.0 if before > 0 else 0.0
