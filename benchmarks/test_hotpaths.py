"""Hot-path performance regressions: the optimizations of the
``repro bench`` harness, asserted rather than eyeballed.

These mirror ``repro.profiling.bench`` but run under pytest-benchmark so
the timings land in the same ``--benchmark-*`` machinery as the paper
figures.  Thresholds are deliberately conservative (CI machines are
noisy); BENCH_hotpath.json records the precise numbers for a quiet box.
"""

from __future__ import annotations

import numpy as np

from repro.profiling.bench import (
    FLEET_SCALING_GATE,
    PLAN_SPEEDUP_GATE,
    bench_clustering,
    bench_fleet,
    bench_fleet_observability,
    bench_plan_engine,
    bench_serving,
    bench_streaming,
    bench_training_step,
    run_benchmarks,
)


def test_vectorized_refinement_beats_loop(benchmark):
    """The batched (k, p) refinement must be markedly faster than the
    per-prototype Python loop — and bit-for-bit equivalent to 1e-8."""
    result = benchmark.pedantic(bench_clustering, rounds=1, iterations=1)
    print()
    print(
        f"  clustering fit: vectorized {result['vectorized_s']:.3f}s vs "
        f"loop {result['loop_s']:.3f}s ({result['speedup']:.2f}x)"
    )
    assert result["equivalent_1e8"], (
        f"prototypes diverged: max|diff| = {result['max_abs_diff']:.3e}"
    )
    # Measured ~4x on the pinned config; require a conservative 2x.
    assert result["speedup"] >= 2.0, result


def test_streaming_observe_throughput(benchmark):
    """observe() is an O(N) ring write; even with adaptation enabled it
    must sustain well beyond real-time rates."""
    result = benchmark.pedantic(bench_streaming, rounds=1, iterations=1)
    print()
    print(
        f"  streaming: {result['observe_per_s']:.0f} obs/s "
        f"({result['observe_us']:.1f}us/observe), "
        f"forecast {result['forecast_ms']:.2f}ms"
    )
    # Measured ~120k obs/s; require a conservative 10k.
    assert result["observe_per_s"] >= 10_000, result


def test_training_step_inplace_allocates_less(benchmark):
    """The in-place backward/optimizer must allocate far fewer engine
    buffers per step than the legacy paths, and float32 must not be
    slower than float64 (measured ~2.6x faster on the pinned config)."""
    result = benchmark.pedantic(
        bench_training_step, kwargs={"quick": True}, rounds=1, iterations=1
    )
    print()
    print(
        f"  training step: float64 {result['float64_ms']:.1f}ms vs "
        f"float32 {result['float32_ms']:.1f}ms "
        f"({result['speedup_fp32']:.2f}x); allocations "
        f"{result['allocs_per_step_legacy']} -> "
        f"{result['allocs_per_step_inplace']}"
    )
    assert result["allocs_per_step_inplace"] < result["allocs_per_step_legacy"], result
    assert result["alloc_reduction"] >= 0.5, result
    # Timing threshold is deliberately loose: tiny quick-mode arrays keep
    # fp32's bandwidth advantage small, and CI boxes are noisy.
    assert result["speedup_fp32"] >= 0.8, result


def test_batched_serving_beats_sequential(benchmark):
    """Micro-batched serving must clear the CI gate (1.5x at batch 32);
    measured ~3x on the pinned full config, ~10x quick."""
    result = benchmark.pedantic(
        bench_serving, kwargs={"quick": True}, rounds=1, iterations=1
    )
    print()
    print(
        f"  serving: sequential {result['sequential']['throughput_per_s']:.0f} fc/s "
        f"vs batch-32 {result['batched']['batch_32']['throughput_per_s']:.0f} fc/s "
        f"({result['speedup_batch32']:.2f}x)"
    )
    assert result["meets_1_5x"], result
    # Cache hits skip the model entirely; they must dominate batch-32.
    assert (
        result["cache_on"]["throughput_per_s"]
        > result["batched"]["batch_32"]["throughput_per_s"]
    ), result


def test_fleet_replay_scales_or_records(benchmark):
    """Sharded replay must answer identically-counted traffic at every
    shard count; the >=2.5x 4-shard scaling gate is asserted only where
    the host has the CPUs to make it physically possible."""
    result = benchmark.pedantic(
        bench_fleet, kwargs={"quick": True}, rounds=1, iterations=1
    )
    print()
    line = "  ".join(
        f"{shards}x {entry['throughput_per_s']:.0f} fc/s"
        for shards, entry in result["shards"].items()
    )
    print(f"  fleet: {line} (scaling {result['scaling_4x']:.2f}x, "
          f"{result['cpu_count']} CPUs)")
    assert result["consistent_response_counts"], result
    assert all(entry["responses"] > 0 for entry in result["shards"].values())
    if result["gate_active"]:
        assert result["scaling_4x"] >= FLEET_SCALING_GATE, result


def test_observability_plane_stays_cheap(benchmark):
    """Arming tracing + SLO + a live registry must stay near-free on the
    serving hot path.  The paired-ratio median absorbs frequency drift,
    but a pytest box is still noisier than the dedicated CI gate job, so
    assert double the CI bound here and record the precise number."""
    result = benchmark.pedantic(
        bench_fleet_observability, kwargs={"quick": True}, rounds=1,
        iterations=1,
    )
    print()
    print(f"  observability: {result['off_per_s']:.0f} fc/s off vs "
          f"{result['on_per_s']:.0f} fc/s armed "
          f"({result['overhead_pct']:+.2f}%); aggregation "
          f"{result['aggregate_ms']:.2f}ms/{result['aggregate_shards']}-shard")
    assert result["overhead_pct"] <= 2 * result["gate_pct"], result
    assert result["aggregate_ms"] < 100.0, result
    assert result["merged_series"] > 0, result


def test_plan_engine_beats_eager_single_window(benchmark):
    """Replaying the compiled execution plan must clear the >=3x gate on
    the B=1 latency path, with bit-identical float64 output (the bench
    itself raises if eager and plan ever disagree)."""
    result = benchmark.pedantic(
        bench_plan_engine, kwargs={"quick": True}, rounds=1, iterations=1
    )
    print()
    b1 = result["batches"]["1"]
    print(
        f"  plan engine: eager {b1['eager_ms']:.3f}ms vs "
        f"plan {b1['plan_ms']:.3f}ms ({result['speedup_uncached']:.2f}x); "
        f"{result['plan_ops']} ops ({result['plan_folded']} folded), "
        f"build {result['build_ms']:.1f}ms"
    )
    assert result["bitwise_equal"] is True, result
    assert result["meets_plan_gate"], result
    assert result["speedup_uncached"] >= PLAN_SPEEDUP_GATE, result


def test_report_is_json_serializable():
    import json

    report = run_benchmarks(quick=True)
    encoded = json.loads(json.dumps(report))
    assert encoded["schema"] == 11
    assert set(encoded) == {
        "schema",
        "mode",
        "generated",
        "clustering_fit",
        "streaming",
        "training_step",
        "telemetry",
        "serving",
        "fleet",
        "fleet_observability",
        "plan_engine",
    }
    assert np.isfinite(encoded["clustering_fit"]["max_abs_diff"])
    assert encoded["clustering_fit"]["phase_sweep"]["bitwise"] is True
    assert encoded["serving"]["speedup_batch32"] > 0
    assert encoded["fleet"]["consistent_response_counts"] is True
    assert encoded["fleet"]["gate"] == FLEET_SCALING_GATE
    observability = encoded["fleet_observability"]
    assert observability["gate_pct"] == 3.0
    assert observability["aggregate_ms"] > 0
    assert observability["merged_series"] > 0
    low, high = observability["overhead_iqr_pct"]
    assert low <= observability["overhead_pct"] <= high
    plan = encoded["plan_engine"]
    assert plan["gate"] == PLAN_SPEEDUP_GATE == 3.0
    assert plan["bitwise_equal"] is True
    assert plan["meets_plan_gate"] == (plan["speedup_uncached"] >= plan["gate"])
    assert plan["plan_ops"] > 0 and plan["plan_folded"] >= 0
    assert "1" in plan["batches"]  # JSON stringifies the batch-size keys
    low, high = plan["speedup_uncached_iqr"]
    assert low <= plan["speedup_uncached"] <= high
