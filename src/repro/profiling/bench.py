"""Hot-path micro-benchmarks behind ``repro bench`` / BENCH_hotpath.json.

Timings on pinned synthetic configurations, chosen
so every future change has a performance trajectory to compare against:

1. **Offline clustering fit** — the vectorized ``(k, p)`` prototype
   refinement against the per-prototype loop reference implementation
   (equivalence is asserted, not assumed: the two must agree to 1e-8),
   plus (schema 9) the ``phase_sweep`` row: a maintenance-sized sweep
   of 12 ragged segment sets fitted by sequential ``fit`` calls against
   one batched ``fit_many`` pass, with a ``bitwise`` flag that every
   bank, loss history and iteration count matches.
2. **Streaming throughput** — one entity through ``ForecastServer``:
   ``observe`` steps/second and end-to-end ``forecast`` latency.
3. **Training step** — one full fwd+MSE+bwd+clip+AdamW step on a pinned
   FOCUS model, float64 vs float32 latency plus the per-step engine
   allocation count with in-place vs legacy gradient accumulation.
4. **Telemetry overhead** (schema 3) — the same pinned training step
   run three ways: the plain step, the step through the trainer's
   telemetry guard with instrumentation *disabled* (the ≤2%-overhead
   gate CI asserts), and with metrics *enabled*; plus the JSONL run-log
   writer's events/second.
5. **Serving** (schema 4) — micro-batched forecasting through the
   serving stack vs one eager forward per entity: p50/p99
   latency and throughput at batch sizes 1/8/32 with the cache off,
   the same batched path with the cache on (hit serving), and the
   ``speedup_batch32`` ratio CI gates at >=1.5x.
6. **Fleet** (schema 5) — scatter-gather replay through the sharded
   multi-process fleet at 1/2/4(/8) shards: per-request p50/p99 and
   replay throughput per shard count, plus ``scaling_4x`` (4-shard
   over 1-shard throughput).  The >=2.5x gate is CPU-aware: asserted
   only where >=4 CPUs exist (``gate_active``), since shards cannot
   scale past the physical cores (recorded, not gated, elsewhere).
7. **Fleet observability** (schema 7) — the serving path with the full
   observability plane armed (request tracing + SLO monitor + metrics
   registry) against the same path with telemetry off, run back-to-back
   within every round; ``overhead_pct`` is the median of the per-round
   paired ratios in thread CPU time, the <=3% gate CI asserts, reported
   with its per-round IQR (schema 11).
   Run-log JSONL cost is excluded (measured by the telemetry section);
   this gates the tracing machinery itself.
   Also times one fleet metrics-aggregation cycle (snapshot + ingest +
   merge across pinned shard count) as ``aggregate_ms``.
8. **Plan engine** (schema 8) — compiled execution-plan replay against
   the eager forward at batch 1 and 8; ``speedup_uncached`` (batch 1)
   is the median of paired, interleaved per-round ratios in thread CPU
   time, the >=3x gate CI asserts, reported with its per-round IQR
   (schema 10).

``run_benchmarks`` returns a JSON-serializable report (see
``docs/reproducing_the_paper.md`` for the schema); the ``repro bench``
CLI subcommand writes it to ``BENCH_hotpath.json``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time

import numpy as np

from repro import autograd as ag
from repro.autograd import Tensor

# Schema 7 added the fleet_observability section; schema 8 added the
# plan_engine section (compiled execution plans) and its speedup gate;
# schema 9 added clustering_fit.phase_sweep (batched multi-set fits);
# schema 10 dropped protoattn_forward (it timed a C_Q cache that no
# longer exists) and made plan_engine ratios paired medians with IQRs;
# schema 11 times fleet_observability rounds in thread CPU time and
# reports their spread (overhead_iqr_pct); schema 12 added
# training_step.graph_traced_mb / peak_traced_mb (one live training
# graph).
SCHEMA_VERSION = 12

# Pinned dimensions: large enough that the hot paths dominate, small
# enough that the full benchmark stays under ~1 minute on CPU.
_CLUSTER_FULL = {"segments_per_motif": 512, "segment_length": 24,
                 "num_prototypes": 16, "refine_steps": 10, "max_iters": 8}
_CLUSTER_QUICK = {"segments_per_motif": 96, "segment_length": 16,
                  "num_prototypes": 8, "refine_steps": 5, "max_iters": 5}
# The maintenance worker's full refit: one set per phase offset of a
# p=12 stream, ragged by up to 176 segments, at the worker's clustering
# config with a fixed iteration count (tol=0).
_SWEEP_FULL = {"sets": 12, "min_segments": 3072, "ragged_step": 16,
               "segment_length": 12, "num_prototypes": 8, "refine_steps": 3,
               "max_iters": 15}
_SWEEP_QUICK = {"sets": 12, "min_segments": 192, "ragged_step": 16,
                "segment_length": 12, "num_prototypes": 8, "refine_steps": 3,
                "max_iters": 8}

_STREAM_FULL = {"lookback": 96, "entities": 8, "segment_length": 12,
                "num_prototypes": 8, "d_model": 16, "steps": 4096, "forecasts": 5}
_STREAM_QUICK = {"lookback": 48, "entities": 4, "segment_length": 12,
                 "num_prototypes": 4, "d_model": 8, "steps": 512, "forecasts": 2}

_STEP_FULL = {"lookback": 192, "horizon": 24, "entities": 16, "segment_length": 16,
              "num_prototypes": 8, "d_model": 96, "batch": 32,
              "warmup": 2, "rounds": 10}
_STEP_QUICK = {"lookback": 96, "horizon": 12, "entities": 8, "segment_length": 12,
               "num_prototypes": 4, "d_model": 32, "batch": 8,
               "warmup": 1, "rounds": 3}

# The benchmark's pinned model (perfbench/fixture.py CONFIG) at the
# trainer's default batch, in both modes: the one-graph gate is a ratio
# of two tracemalloc readings and needs no repetitions.
_STEP_MEMORY = {"lookback": 96, "horizon": 24, "entities": 12, "segment_length": 12,
                "num_prototypes": 8, "d_model": 32, "batch": 32}

_TELEM_FULL = {"warmup": 2, "rounds": 15, "events": 5000}
_TELEM_QUICK = {"warmup": 1, "rounds": 41, "events": 1000}

_SERVE_FULL = {"lookback": 96, "entities": 8, "segment_length": 12,
               "num_prototypes": 8, "d_model": 32, "horizon": 12,
               "fleet": 32, "batch_sizes": (1, 8, 32), "warmup": 2, "rounds": 12}
_SERVE_QUICK = {"lookback": 48, "entities": 4, "segment_length": 12,
                "num_prototypes": 4, "d_model": 16, "horizon": 12,
                "fleet": 32, "batch_sizes": (1, 8, 32), "warmup": 1, "rounds": 5}

#: Minimum 4-shard/1-shard throughput ratio asserted where the gate is
#: active (>=4 CPUs; below that, shards cannot scale past the cores).
FLEET_SCALING_GATE = 2.5

#: Minimum uncached ``forecast_batch`` speedup of the compiled plan
#: engine over the eager reference on the pinned single-window latency
#: shape (the path the plan engine exists for; larger batches amortize
#: eager's dispatch across rows and are reported informationally).
PLAN_SPEEDUP_GATE = 3.0

# The gate shape is pinned in both modes — a ratio gate flaps if the
# dims change — so quick mode only trims repetitions.
_PLAN_FULL = {"lookback": 48, "entities": 4, "segment_length": 12,
              "num_prototypes": 4, "d_model": 16, "horizon": 24,
              "batch_sizes": (1, 8), "warmup": 5, "rounds": 41, "reps": 15}
_PLAN_QUICK = {"lookback": 48, "entities": 4, "segment_length": 12,
               "num_prototypes": 4, "d_model": 16, "horizon": 24,
               "batch_sizes": (1, 8), "warmup": 3, "rounds": 25, "reps": 8}

#: Maximum serving-throughput cost of arming the observability plane
#: (tracing + SLO + metrics registry) relative to telemetry-off.
OBSERVABILITY_OVERHEAD_GATE_PCT = 3.0

_OBS_FULL = {"lookback": 96, "entities": 8, "segment_length": 12,
             "num_prototypes": 8, "d_model": 32, "horizon": 12,
             "fleet": 32, "max_batch": 8, "warmup": 2, "rounds": 41, "reps": 3,
             "agg_shards": 4, "agg_rounds": 50}
# Quick mode keeps the *full-size request* (the overhead gate is a ratio:
# shrinking the model inflates the machinery's relative cost and makes the
# gate flap) and economizes on fleet size and round counts instead.
_OBS_QUICK = {"lookback": 96, "entities": 8, "segment_length": 12,
              "num_prototypes": 8, "d_model": 32, "horizon": 12,
              "fleet": 16, "max_batch": 8, "warmup": 2, "rounds": 51, "reps": 3,
              "agg_shards": 4, "agg_rounds": 20}

#: ``max_batch`` is pinned across shard counts (= fleet / max shards) so
#: every forward sees the same batch size and the scaling ratio measures
#: process parallelism, not batch-amortization differences.
_FLEET_FULL = {"lookback": 96, "entities": 8, "segment_length": 12,
               "num_prototypes": 8, "d_model": 32, "horizon": 12,
               "fleet": 32, "steps": 192, "forecast_every": 4,
               "max_batch": 4, "rounds": 5, "shard_counts": (1, 2, 4, 8)}
_FLEET_QUICK = {"lookback": 48, "entities": 4, "segment_length": 12,
                "num_prototypes": 4, "d_model": 16, "horizon": 12,
                "fleet": 16, "steps": 96, "forecast_every": 4,
                "max_batch": 4, "rounds": 3, "shard_counts": (1, 2, 4)}


def _motif_segments(n_per_motif: int, p: int, k: int, seed: int = 7) -> np.ndarray:
    """Seeded segments drawn around ``k // 2`` sinusoid motifs."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 2.0 * np.pi, p)
    motifs = [np.sin((j + 1) * grid / 2.0 + j) for j in range(max(k // 2, 2))]
    return np.concatenate(
        [m + 0.3 * rng.standard_normal((n_per_motif, p)) for m in motifs]
    )


def bench_clustering(quick: bool = False) -> dict:
    """Vectorized vs loop prototype refinement on one pinned fit."""
    from repro.core.clustering import ClusteringConfig, SegmentClusterer

    dims = _CLUSTER_QUICK if quick else _CLUSTER_FULL
    segments = _motif_segments(
        dims["segments_per_motif"], dims["segment_length"], dims["num_prototypes"]
    )
    config = ClusteringConfig(
        num_prototypes=dims["num_prototypes"],
        segment_length=dims["segment_length"],
        refine_steps=dims["refine_steps"],
        max_iters=dims["max_iters"],
        seed=0,
    )

    started = time.perf_counter()
    vectorized = SegmentClusterer(config).fit(segments)
    vectorized_s = time.perf_counter() - started

    started = time.perf_counter()
    loop = SegmentClusterer(dataclasses.replace(config, refine_impl="loop")).fit(segments)
    loop_s = time.perf_counter() - started

    max_abs_diff = float(np.abs(vectorized.prototypes_ - loop.prototypes_).max())
    return {
        "config": {**dims, "n_segments": len(segments)},
        "vectorized_s": round(vectorized_s, 4),
        "loop_s": round(loop_s, 4),
        "speedup": round(loop_s / vectorized_s, 2),
        "max_abs_diff": max_abs_diff,
        "equivalent_1e8": bool(max_abs_diff < 1e-8),
        "phase_sweep": bench_phase_sweep(quick),
    }


def bench_phase_sweep(quick: bool = False) -> dict:
    """Sequential per-set ``fit`` vs one batched ``fit_many`` pass."""
    from repro.core.clustering import ClusteringConfig, SegmentClusterer

    dims = _SWEEP_QUICK if quick else _SWEEP_FULL
    sizes = [
        dims["min_segments"] + dims["ragged_step"] * ((5 * i) % dims["sets"])
        for i in range(dims["sets"])
    ]
    pool = _motif_segments(
        max(sizes) // 4 + 1, dims["segment_length"], dims["num_prototypes"]
    )
    rng = np.random.default_rng(11)
    sets = [pool[rng.permutation(len(pool))[:size]] for size in sizes]
    config = ClusteringConfig(
        num_prototypes=dims["num_prototypes"],
        segment_length=dims["segment_length"],
        refine_steps=dims["refine_steps"],
        max_iters=dims["max_iters"],
        tol=0.0,
        seed=0,
    )

    started = time.perf_counter()
    sequential = [SegmentClusterer(config).fit(segments) for segments in sets]
    sequential_s = time.perf_counter() - started

    batched = SegmentClusterer(config)
    started = time.perf_counter()
    banks = batched.fit_many(sets)
    batched_s = time.perf_counter() - started

    bitwise = all(
        np.array_equal(bank, alone.prototypes_)
        and history == alone.loss_history_
        and n_iter == alone.n_iter_
        for bank, history, n_iter, alone in zip(
            banks, batched.loss_histories_, batched.n_iters_, sequential
        )
    )
    return {
        "config": {**dims, "n_segments": [min(sizes), max(sizes)]},
        "sequential_s": round(sequential_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(sequential_s / batched_s, 2),
        "bitwise": bool(bitwise),
    }


def bench_streaming(quick: bool = False) -> dict:
    """One entity through :class:`~repro.serving.ForecastServer`: observe
    throughput and forecast latency, cache off."""
    from repro.core.model import FOCUSConfig, FOCUSForecaster
    from repro.serving import ForecastServer, ServingConfig

    dims = _STREAM_QUICK if quick else _STREAM_FULL
    rng = np.random.default_rng(11)
    config = FOCUSConfig(
        lookback=dims["lookback"],
        horizon=12,
        num_entities=dims["entities"],
        segment_length=dims["segment_length"],
        num_prototypes=dims["num_prototypes"],
        d_model=dims["d_model"],
        num_readout=2,
    )
    model = FOCUSForecaster(
        config,
        prototypes=rng.standard_normal(
            (dims["num_prototypes"], dims["segment_length"])
        ),
    )
    server = ForecastServer(model, ServingConfig(use_cache=False))
    rows = rng.standard_normal((dims["steps"], dims["entities"]))

    started = time.perf_counter()
    for row in rows:
        server.observe("stream", row)
    observe_s = time.perf_counter() - started

    server.forecast("stream")  # traces the B=1 plan; not timed
    started = time.perf_counter()
    for _ in range(dims["forecasts"]):
        server.forecast("stream")
    forecast_ms = (time.perf_counter() - started) / dims["forecasts"] * 1e3

    return {
        "config": dict(dims),
        "observe_per_s": round(dims["steps"] / observe_s, 1),
        "observe_us": round(observe_s / dims["steps"] * 1e6, 2),
        "forecast_ms": round(forecast_ms, 3),
    }


def _build_step_fixture(dims: dict, dtype) -> tuple:
    """Seeded FOCUS model + AdamW + one pinned batch in ``dtype``."""
    from repro.core.model import FOCUSConfig, FOCUSForecaster
    from repro.nn import init as nn_init
    from repro.optim import AdamW

    rng = np.random.default_rng(5)
    with ag.default_dtype(dtype):
        nn_init.seed(0)
        config = FOCUSConfig(
            lookback=dims["lookback"],
            horizon=dims["horizon"],
            num_entities=dims["entities"],
            segment_length=dims["segment_length"],
            num_prototypes=dims["num_prototypes"],
            d_model=dims["d_model"],
            num_readout=2,
        )
        model = FOCUSForecaster(
            config,
            prototypes=rng.standard_normal(
                (dims["num_prototypes"], dims["segment_length"])
            ),
        )
    optimizer = AdamW(model.parameters(), lr=1e-3)
    x = Tensor(
        rng.standard_normal(
            (dims["batch"], dims["lookback"], dims["entities"])
        ).astype(dtype)
    )
    y = Tensor(
        rng.standard_normal(
            (dims["batch"], dims["horizon"], dims["entities"])
        ).astype(dtype)
    )
    return model, optimizer, x, y


def _one_step(model, optimizer, x, y, legacy: bool = False) -> tuple:
    """One full training step as ``Trainer._epoch`` runs it: forward,
    MSE, backward, clip, update, then drop the gradients.

    Returns ``(pred, loss)``.  Callers keep them bound until the next
    step has run, as the trainer's loop keeps them until its next
    forward: released at return, they would let malloc hand the heap
    the consumed graph freed back to the OS, and the next forward would
    fault it back in, a cost ``Trainer.fit`` does not pay.
    """
    from repro.optim import clip_grad_norm

    pred = model(x)
    loss = ((pred - y) ** 2.0).mean()
    if legacy:
        with ag.legacy_accumulation():
            loss.backward()
    else:
        loss.backward()
    clip_grad_norm(optimizer.parameters, 5.0)
    optimizer.step()
    optimizer.zero_grad()
    return pred, loss


def bench_training_step(quick: bool = False) -> dict:
    """Full fwd+bwd+step latency: float64 vs float32, and per-step
    engine allocation counts with the in-place vs legacy accumulation."""
    from repro.optim import AdamW
    from repro.profiling.profiler import track_allocations

    dims = _STEP_QUICK if quick else _STEP_FULL
    timings = {}
    for dtype in (np.float64, np.float32):
        model, optimizer, x, y = _build_step_fixture(dims, dtype)
        for _ in range(dims["warmup"]):
            held = _one_step(model, optimizer, x, y)
        started = time.perf_counter()
        for _ in range(dims["rounds"]):
            held = _one_step(model, optimizer, x, y)
        timings[np.dtype(dtype).name] = (
            (time.perf_counter() - started) / dims["rounds"] * 1e3
        )
        del held

    # Allocation counts (float64, steady state: scratch pools are warm).
    model, optimizer, x, y = _build_step_fixture(dims, np.float64)
    held = _one_step(model, optimizer, x, y)
    with track_allocations() as allocs:
        held = _one_step(model, optimizer, x, y)
    inplace_allocs, inplace_bytes = allocs.count, allocs.bytes

    model, optimizer, x, y = _build_step_fixture(dims, np.float64)
    optimizer = AdamW(model.parameters(), lr=1e-3, in_place=False)
    held = _one_step(model, optimizer, x, y, legacy=True)
    with track_allocations() as allocs:
        held = _one_step(model, optimizer, x, y, legacy=True)
    legacy_allocs, legacy_bytes = allocs.count, allocs.bytes
    del held

    graph_mb, peak_mb = _traced_step_memory(_STEP_MEMORY)
    return {
        "config": dict(dims),
        "float64_ms": round(timings["float64"], 3),
        "float32_ms": round(timings["float32"], 3),
        "speedup_fp32": round(timings["float64"] / timings["float32"], 2),
        "allocs_per_step_inplace": inplace_allocs,
        "allocs_per_step_legacy": legacy_allocs,
        "alloc_bytes_inplace": inplace_bytes,
        "alloc_bytes_legacy": legacy_bytes,
        "alloc_reduction": round(
            1.0 - inplace_allocs / legacy_allocs, 3
        ) if legacy_allocs else 0.0,
        "memory_config": dict(_STEP_MEMORY),
        "graph_traced_mb": round(graph_mb, 2),
        "peak_traced_mb": round(peak_mb, 2),
    }


def _traced_step_memory(dims: dict) -> tuple[float, float]:
    """(one graph, peak over two training steps) in MB, as tracemalloc
    sees them (numpy registers its buffers with it).

    The graph is what one forward plus the MSE loss leaves live.  The
    peak is over two consecutive steps of ``Trainer._epoch``, the
    trainer's own loop: it stays near one graph only while nothing of a
    step's graph survives into the next step's forward.
    """
    import tracemalloc

    from repro.data.windows import DataLoader, SlidingWindowDataset
    from repro.training import Trainer, TrainerConfig

    model, _, _, _ = _build_step_fixture(dict(dims, batch=1), np.float64)
    series = np.random.default_rng(6).standard_normal(
        (2 * dims["batch"] + dims["lookback"] + dims["horizon"] - 1, dims["entities"])
    )
    dataset = SlidingWindowDataset(series, dims["lookback"], dims["horizon"])
    loader = DataLoader(dataset, dims["batch"])  # two batches: two steps
    trainer = Trainer(model, TrainerConfig(batch_size=dims["batch"]))
    trainer._epoch(loader)  # warm: optimizer state and scratch exist
    x, y = (Tensor(array) for array in dataset.batch(np.arange(dims["batch"])))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = ((model(x) - y) ** 2.0).mean()
        graph = tracemalloc.get_traced_memory()[0] - base
        del loss
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trainer._epoch(loader)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return graph / 2**20, peak / 2**20


def _one_step_guarded(model, optimizer, x, y, instruments) -> tuple:
    """The training step exactly as the trainer's hot loop now shapes it:
    one ``is not None`` guard (plus two clock reads when enabled).
    Returns ``(pred, loss)`` for the caller to hold, as :func:`_one_step`."""
    from repro.optim import clip_grad_norm

    step_started = time.perf_counter() if instruments is not None else 0.0
    pred = model(x)
    loss = ((pred - y) ** 2.0).mean()
    loss.backward()
    clip_grad_norm(optimizer.parameters, 5.0)
    optimizer.step()
    optimizer.zero_grad()
    if instruments is not None:
        instruments.record_step(loss.item(), time.perf_counter() - step_started)
    return pred, loss


def bench_telemetry(quick: bool = False) -> dict:
    """Instrumented-off vs instrumented-on training-step overhead on the
    pinned step config, plus JSONL run-log writer throughput.

    ``overhead_off_pct`` is the gate CI pins at <=2%:
    the cost of shipping the telemetry guard in the hot loop when no
    registry is attached, relative to the plain step.  Rounds of the
    three variants are interleaved, and each overhead is the median over
    rounds of a step's cost against the baseline step run just before
    it, so slow drift of the machine does not masquerade as overhead.
    Steps are timed in the calling thread's CPU time
    (``time.thread_time``), so time the host spends on other processes
    is not counted either; BLAS worker threads are left out, which only
    shrinks the base the ratio divides by.  ``overhead_off_iqr_pct`` is
    the spread: the quartiles of the per-round "off" overhead.  Single
    steps swing by about ±8% on a shared host, so quick mode runs 41
    rounds to bring the median within about 2%.
    """
    from repro.telemetry import (
        JsonlSink,
        MetricsRegistry,
        RunLogger,
        TrainingInstruments,
    )

    step_dims = _STEP_QUICK if quick else _STEP_FULL
    dims = _TELEM_QUICK if quick else _TELEM_FULL
    registry = MetricsRegistry()
    variants = {
        "baseline": (_one_step, None),
        "off": (_one_step_guarded, None),
        "on": (_one_step_guarded, TrainingInstruments(registry)),
    }
    fixtures = {
        name: _build_step_fixture(step_dims, np.float64) for name in variants
    }
    # Each variant's last (pred, loss), held until its next step has run.
    held = {}
    for name, (step, instruments) in variants.items():
        model, optimizer, x, y = fixtures[name]
        for _ in range(dims["warmup"]):
            if step is _one_step:
                held[name] = step(model, optimizer, x, y)
            else:
                held[name] = step(model, optimizer, x, y, instruments)
    times = {name: [] for name in variants}
    for _ in range(dims["rounds"]):
        for name, (step, instruments) in variants.items():
            model, optimizer, x, y = fixtures[name]
            started = time.thread_time()
            if step is _one_step:
                held[name] = step(model, optimizer, x, y)
            else:
                held[name] = step(model, optimizer, x, y, instruments)
            times[name].append(time.thread_time() - started)
    del held
    medians = {name: float(np.median(times[name])) * 1e3 for name in variants}
    per_round = {
        name: 100.0 * (np.array(times[name]) / np.array(times["baseline"]) - 1.0)
        for name in ("off", "on")
    }

    # JSONL writer throughput: schema-validated epoch events to a temp file.
    with tempfile.TemporaryDirectory() as tmp:
        logger = RunLogger([JsonlSink(os.path.join(tmp, "events.jsonl"))])
        started = time.perf_counter()
        for index in range(dims["events"]):
            logger.event("epoch", epoch=index, train_loss=0.5, val_loss=0.6)
        writer_seconds = time.perf_counter() - started
        logger.close()

    return {
        "config": {**dims, "step": dict(step_dims)},
        "baseline_ms": round(medians["baseline"], 3),
        "off_ms": round(medians["off"], 3),
        "on_ms": round(medians["on"], 3),
        "overhead_off_pct": round(float(np.median(per_round["off"])), 2),
        "overhead_on_pct": round(float(np.median(per_round["on"])), 2),
        "overhead_off_iqr_pct": [
            round(float(q), 2) for q in np.percentile(per_round["off"], [25, 75])
        ],
        "events_per_s": round(dims["events"] / writer_seconds, 1),
    }


def bench_serving(quick: bool = False) -> dict:
    """Batched serving vs one eager forward per entity on one fleet.

    A shared pinned FOCUS model serves a fleet of warmed entities.  The
    *sequential* baseline answers each entity with its own eager
    ``model(Tensor(window[None]))`` forward on a fresh window copy (no
    batching, no plan); the *batched* path answers the
    same requests through ``MicroBatcher`` in groups of 1/8/32 windows
    per forward, cache disabled so every request pays the model.  A
    final pass measures cache-on hit serving.  ``speedup_batch32``
    (batched throughput at 32 / sequential throughput) is the CI gate.
    """
    from repro.core.model import FOCUSConfig, FOCUSForecaster
    from repro.serving import ForecastCache, ForecastServer, MicroBatcher, ServingConfig

    dims = _SERVE_QUICK if quick else _SERVE_FULL
    rng = np.random.default_rng(17)
    config = FOCUSConfig(
        lookback=dims["lookback"],
        horizon=dims["horizon"],
        num_entities=dims["entities"],
        segment_length=dims["segment_length"],
        num_prototypes=dims["num_prototypes"],
        d_model=dims["d_model"],
        num_readout=2,
    )
    model = FOCUSForecaster(
        config,
        prototypes=rng.standard_normal(
            (dims["num_prototypes"], dims["segment_length"])
        ),
    )
    model.eval()
    fleet = dims["fleet"]

    server = ForecastServer(model, ServingConfig(max_batch=max(dims["batch_sizes"]),
                                                 use_cache=False))
    for index in range(fleet):
        history = rng.standard_normal((dims["lookback"], dims["entities"]))
        server.observe_many(f"bench-{index}", history)
    entity_ids = [f"bench-{index}" for index in range(fleet)]
    rings = [server.store.session(entity_id).ring for entity_id in entity_ids]

    def sequential_round() -> None:
        # Sequential baseline: one eager forward per warmed entity.
        with ag.no_grad():
            for ring in rings:
                model(Tensor(ring.window()[None])).data[0].astype(np.float64)

    def percentiles(samples: list[float]) -> tuple[float, float]:
        return (
            float(np.percentile(samples, 50)) * 1e3,
            float(np.percentile(samples, 99)) * 1e3,
        )

    for _ in range(dims["warmup"]):
        sequential_round()
    sequential_times = []
    for _ in range(dims["rounds"]):
        started = time.perf_counter()
        sequential_round()
        sequential_times.append(time.perf_counter() - started)
    seq_p50, seq_p99 = percentiles(sequential_times)
    seq_throughput = fleet / float(np.median(sequential_times))

    batched = {}
    for batch_size in dims["batch_sizes"]:
        batcher = MicroBatcher(model)
        groups = [
            entity_ids[start : start + batch_size]
            for start in range(0, fleet, batch_size)
        ]
        sessions = [
            [server.store.session(entity_id) for entity_id in group]
            for group in groups
        ]
        for _ in range(dims["warmup"]):
            for group in sessions:
                batcher.forecast_sessions(group)
        samples = []
        for _ in range(dims["rounds"]):
            started = time.perf_counter()
            for group in sessions:
                batcher.forecast_sessions(group)
            samples.append(time.perf_counter() - started)
        p50, p99 = percentiles(samples)
        batched[f"batch_{batch_size}"] = {
            "p50_ms": round(p50, 3),
            "p99_ms": round(p99, 3),
            "throughput_per_s": round(fleet / float(np.median(samples)), 1),
        }

    # Cache-on: every request after the first pass is a version-exact hit.
    cache = ForecastCache(capacity=4 * fleet)
    cached_batcher = MicroBatcher(model, cache=cache)
    all_sessions = [server.store.session(entity_id) for entity_id in entity_ids]
    cached_batcher.forecast_sessions(all_sessions)  # fill
    samples = []
    for _ in range(dims["rounds"]):
        started = time.perf_counter()
        cached_batcher.forecast_sessions(all_sessions)
        samples.append(time.perf_counter() - started)
    hit_p50, hit_p99 = percentiles(samples)
    speedup = batched["batch_32"]["throughput_per_s"] / round(seq_throughput, 1)

    return {
        "config": dict(dims),
        "sequential": {
            "p50_ms": round(seq_p50, 3),
            "p99_ms": round(seq_p99, 3),
            "throughput_per_s": round(seq_throughput, 1),
        },
        "batched": batched,
        "cache_on": {
            "p50_ms": round(hit_p50, 3),
            "p99_ms": round(hit_p99, 3),
            "throughput_per_s": round(fleet / float(np.median(samples)), 1),
            "hit_rate": round(cache.hit_rate, 4),
        },
        "speedup_batch32": round(speedup, 2),
        "meets_1_5x": bool(speedup >= 1.5),
    }


def bench_fleet(quick: bool = False) -> dict:
    """Sharded scatter-gather replay throughput vs shard count.

    One pinned multi-entity workload is replayed through fleets of
    1/2/4(/8) worker processes; per shard count the report records the
    per-request p50/p99 latency (worker batch wall clock per request)
    and whole-replay throughput.  The timed region is the scatter-gather
    replay only — fleet spawn/teardown is deployment cost, not serving
    cost.  ``scaling_4x`` is the 4-shard over 1-shard throughput ratio;
    the >=2.5x gate only has physical meaning with >=4 CPUs, so
    ``gate_active`` records whether this host can assert it.
    """
    from repro.core.model import FOCUSConfig, FOCUSForecaster
    from repro.serving import FleetConfig, ShardRouter, replay_fleet

    dims = _FLEET_QUICK if quick else _FLEET_FULL
    rng = np.random.default_rng(23)
    config = FOCUSConfig(
        lookback=dims["lookback"],
        horizon=dims["horizon"],
        num_entities=dims["entities"],
        segment_length=dims["segment_length"],
        num_prototypes=dims["num_prototypes"],
        d_model=dims["d_model"],
        num_readout=2,
    )
    model = FOCUSForecaster(
        config,
        prototypes=rng.standard_normal(
            (dims["num_prototypes"], dims["segment_length"])
        ),
    )
    model.eval()
    streams = {
        f"bench-{index}": rng.standard_normal((dims["steps"], dims["entities"]))
        for index in range(dims["fleet"])
    }

    per_shards = {}
    for shards in dims["shard_counts"]:
        fleet_config = FleetConfig(shards=shards, max_batch=dims["max_batch"])
        walls, all_latencies, counts = [], [], []
        with ShardRouter(model, fleet_config) as router:
            # round 0 is the warmup (workers touch every code path once);
            # later rounds keep ingesting fresh rows, so every forecast
            # still pays the model (new ring version -> no cache hit).
            for round_index in range(dims["rounds"] + 1):
                started = time.perf_counter()
                responses, latencies = replay_fleet(
                    router,
                    streams,
                    forecast_every=dims["forecast_every"],
                    with_latencies=True,
                )
                wall_s = time.perf_counter() - started
                if round_index == 0:
                    continue
                walls.append(wall_s)
                all_latencies.extend(latencies)
                counts.append(len(responses))
        per_shards[str(shards)] = {
            "responses": counts[0],
            "p50_ms": round(float(np.percentile(all_latencies, 50)), 3),
            "p99_ms": round(float(np.percentile(all_latencies, 99)), 3),
            "wall_s": round(float(np.median(walls)), 3),
            "throughput_per_s": round(counts[0] / float(np.median(walls)), 1),
        }

    counts = {entry["responses"] for entry in per_shards.values()}
    scaling = (
        per_shards["4"]["throughput_per_s"] / per_shards["1"]["throughput_per_s"]
        if "4" in per_shards
        else 0.0
    )
    cpu_count = os.cpu_count() or 1
    gate_active = cpu_count >= 4
    return {
        "config": dict(dims),
        "cpu_count": cpu_count,
        "shards": per_shards,
        "consistent_response_counts": len(counts) == 1,
        "scaling_4x": round(scaling, 2),
        "gate": FLEET_SCALING_GATE,
        "gate_active": gate_active,
        "meets_scaling_gate": bool(scaling >= FLEET_SCALING_GATE),
    }


def bench_fleet_observability(quick: bool = False) -> dict:
    """Cost of arming the observability plane on the serving hot path.

    Two identical single-process servers answer the same warmed fleet
    through ``forecast_many`` — one with telemetry off, one with request
    tracing, the SLO monitor, and a metrics registry all live (run
    logger off: JSONL write cost is the telemetry section's concern).
    The two modes run back-to-back within every round (order
    alternating round to round), and ``overhead_pct`` is the *median of
    the per-round paired ratios*: CPU frequency drift over the run
    cancels inside each adjacent pair, and the median discards the
    rounds where the scheduler hit one mode; it is the CI gate at <=3%.
    ``overhead_iqr_pct`` is the spread: the quartiles of the per-round
    overhead.  Rounds are timed in the calling thread's CPU time
    (``time.thread_time``): ``max_batch`` 8 keeps every forward on one
    lane, so time the host spends on other processes is not counted.
    The reported ms/throughput figures use the per-mode minimum (noise
    on a shared box is strictly additive, so the fastest round is the
    honest cost).
    A second loop times one full fleet metrics-aggregation cycle —
    registry snapshot, per-shard ingest, shard-labelled merge — at the
    pinned shard count (``aggregate_ms``), the per-cycle cost of the
    router's background aggregation cadence.
    """
    from repro.core.model import FOCUSConfig, FOCUSForecaster
    from repro.serving import ForecastServer, ServingConfig
    from repro.telemetry import (
        FleetAggregator,
        MetricsRegistry,
        SloConfig,
        registry_snapshot,
    )

    dims = _OBS_QUICK if quick else _OBS_FULL
    rng = np.random.default_rng(29)
    config = FOCUSConfig(
        lookback=dims["lookback"],
        horizon=dims["horizon"],
        num_entities=dims["entities"],
        segment_length=dims["segment_length"],
        num_prototypes=dims["num_prototypes"],
        d_model=dims["d_model"],
        num_readout=2,
    )
    model = FOCUSForecaster(
        config,
        prototypes=rng.standard_normal(
            (dims["num_prototypes"], dims["segment_length"])
        ),
    )
    model.eval()
    fleet = dims["fleet"]
    registry = MetricsRegistry()
    # Cache off so every request pays the model in both variants; a
    # generous p99 objective keeps the SLO monitor evaluating without
    # ever flapping health during the measurement.
    servers = {
        "off": ForecastServer(
            model, ServingConfig(max_batch=dims["max_batch"], use_cache=False)
        ),
        "on": ForecastServer(
            model,
            ServingConfig(
                max_batch=dims["max_batch"], use_cache=False, trace=True,
                slo=SloConfig(latency_p99_ms=1e9, window=128,
                              min_samples=16, evaluate_every=16),
            ),
            telemetry=registry,
        ),
    }
    entity_ids = [f"bench-{index}" for index in range(fleet)]
    for server in servers.values():
        for index, entity_id in enumerate(entity_ids):
            history = np.random.default_rng(index).standard_normal(
                (dims["lookback"], dims["entities"])
            )
            server.observe_many(entity_id, history)
    for _ in range(dims["warmup"]):
        for server in servers.values():
            server.forecast_many(entity_ids)
    times = {name: [] for name in servers}
    # GC pauses land in whichever round triggers them and would be
    # mis-billed as tracing overhead; collect once, then hold it off
    # for the (short) measurement window.
    import gc

    reps = dims["reps"]
    gc.collect()
    gc.disable()
    try:
        for round_index in range(dims["rounds"]):
            # Alternate within-round order so neither mode always runs
            # with the warmer caches / later frequency state.  Each
            # timed window covers `reps` calls: a single ~10ms call is
            # at the mercy of one scheduler preemption (+-50% on that
            # round), while a longer window dilutes it.
            order = list(servers.items())
            if round_index % 2:
                order.reverse()
            for name, server in order:
                started = time.thread_time()
                for _ in range(reps):
                    server.forecast_many(entity_ids)
                times[name].append((time.thread_time() - started) / reps)
    finally:
        gc.enable()
    best = {name: float(np.min(times[name])) * 1e3 for name in servers}
    per_round = 100.0 * (np.asarray(times["on"]) / np.asarray(times["off"]) - 1.0)
    overhead_pct = float(np.median(per_round))

    # One aggregation cycle over agg_shards copies of the live registry.
    snapshot = registry_snapshot(registry)
    shards = list(range(dims["agg_shards"]))
    samples = []
    merged_series = 0
    for _ in range(dims["agg_rounds"]):
        started = time.perf_counter()
        aggregator = FleetAggregator()
        for shard in shards:
            aggregator.ingest(shard, registry_snapshot(registry))
        merged_series = len(aggregator.merged().collect())
        samples.append(time.perf_counter() - started)

    return {
        "config": dict(dims),
        "off_ms": round(best["off"], 3),
        "on_ms": round(best["on"], 3),
        "off_per_s": round(fleet / (best["off"] / 1e3), 1),
        "on_per_s": round(fleet / (best["on"] / 1e3), 1),
        "overhead_pct": round(overhead_pct, 2),
        "overhead_iqr_pct": [
            round(float(q), 2) for q in np.percentile(per_round, [25, 75])
        ],
        "gate_pct": OBSERVABILITY_OVERHEAD_GATE_PCT,
        "meets_overhead_gate": bool(
            overhead_pct <= OBSERVABILITY_OVERHEAD_GATE_PCT
        ),
        "aggregate_ms": round(float(np.median(samples)) * 1e3, 3),
        "aggregate_shards": dims["agg_shards"],
        "merged_series": merged_series,
        "snapshot_instruments": len(snapshot["instruments"]),
    }


def bench_plan_engine(quick: bool = False) -> dict:
    """Compiled execution-plan replay vs the eager forward.

    One pinned FOCUS model answers identical ``forecast_batch`` calls
    through both engines, no cache anywhere in the loop.  The two
    engines' outputs are asserted bit-identical before anything is
    timed (the plan compiler additionally self-checks every trace).
    Each round times ``reps`` calls of one engine right after (or, every
    other round, right before) ``reps`` calls of the other; a batch's
    ``speedup`` is the median of the per-round eager/plan ratios and
    ``speedup_iqr`` their quartiles, so slow drift of the host does not
    masquerade as a speedup.  Calls are timed in the calling thread's
    CPU time (``time.thread_time``): batches 1 and 8 replay on one lane,
    so the time the host spends on other processes is not counted.  The
    gate — ``speedup_uncached >= PLAN_SPEEDUP_GATE`` — is evaluated on
    the single-window (B=1) latency path, where per-op Python dispatch
    dominates the eager forward; larger batches shift time into numpy
    kernels both engines share and are reported informationally.
    """
    from repro.core.model import FOCUSConfig, FOCUSForecaster
    from repro.nn import init as nn_init

    dims = _PLAN_QUICK if quick else _PLAN_FULL
    nn_init.seed(0)
    rng = np.random.default_rng(23)
    config = FOCUSConfig(
        lookback=dims["lookback"],
        horizon=dims["horizon"],
        num_entities=dims["entities"],
        segment_length=dims["segment_length"],
        num_prototypes=dims["num_prototypes"],
        d_model=dims["d_model"],
        num_readout=2,
    )
    model = FOCUSForecaster(
        config,
        prototypes=rng.standard_normal(
            (dims["num_prototypes"], dims["segment_length"])
        ),
    )
    model.eval()

    batches = {}
    build_ms = None
    for batch in dims["batch_sizes"]:
        windows = rng.standard_normal(
            (batch, dims["lookback"], dims["entities"])
        )
        eager = model.forecast_batch(windows, engine="eager")
        started = time.perf_counter()
        planned = model.forecast_batch(windows, engine="plan")
        traced_in = time.perf_counter() - started
        if build_ms is None:
            build_ms = round(traced_in * 1e3, 3)
        if not np.array_equal(eager, planned, equal_nan=True):
            raise RuntimeError(
                f"plan engine diverged from eager at batch {batch}"
            )
        for engine in ("eager", "plan"):
            for _ in range(dims["warmup"]):
                model.forecast_batch(windows, engine=engine)
        times = {"eager": [], "plan": []}
        for round_index in range(dims["rounds"]):
            order = ("eager", "plan") if round_index % 2 == 0 else ("plan", "eager")
            for engine in order:
                started = time.thread_time()
                for _ in range(dims["reps"]):
                    model.forecast_batch(windows, engine=engine)
                times[engine].append((time.thread_time() - started) / dims["reps"])
        ratios = np.array(times["eager"]) / np.array(times["plan"])
        batches[str(batch)] = {
            "eager_ms": round(float(np.median(times["eager"])) * 1e3, 4),
            "plan_ms": round(float(np.median(times["plan"])) * 1e3, 4),
            "speedup": round(float(np.median(ratios)), 2),
            "speedup_iqr": [
                round(float(q), 2) for q in np.percentile(ratios, [25, 75])
            ],
        }

    stats = model.plan_stats()
    gate = batches[str(dims["batch_sizes"][0])]
    gate_speedup = gate["speedup"]
    return {
        "dims": {k: v for k, v in dims.items() if k != "batch_sizes"},
        "batch_sizes": list(dims["batch_sizes"]),
        "build_ms": build_ms,
        "plan_ops": stats.num_ops,
        "plan_folded": stats.num_folded,
        "plan_buffers": stats.num_buffers,
        "arena_kb": round(stats.arena_bytes / 1024.0, 1),
        "batches": batches,
        "bitwise_equal": True,
        "speedup_uncached": gate_speedup,
        "speedup_uncached_iqr": gate["speedup_iqr"],
        "gate": PLAN_SPEEDUP_GATE,
        "meets_plan_gate": bool(gate_speedup >= PLAN_SPEEDUP_GATE),
    }


def run_benchmarks(quick: bool = False) -> dict:
    """Run all hot-path benchmarks; returns the report dict."""
    return {
        "schema": SCHEMA_VERSION,
        "mode": "quick" if quick else "full",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "clustering_fit": bench_clustering(quick),
        "streaming": bench_streaming(quick),
        "training_step": bench_training_step(quick),
        "telemetry": bench_telemetry(quick),
        "serving": bench_serving(quick),
        "fleet": bench_fleet(quick),
        "fleet_observability": bench_fleet_observability(quick),
        "plan_engine": bench_plan_engine(quick),
    }


def write_report(report: dict, path: str) -> None:
    """Serialize a benchmark report as indented JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
