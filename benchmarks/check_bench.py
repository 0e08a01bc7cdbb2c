"""Assert every gate of one ``repro bench`` report.

CI runs ``repro bench --quick`` once and checks the JSON here, instead
of re-running the benchmark in each job that owns a gate::

    PYTHONPATH=src python -m repro bench --quick --out bench.json
    python benchmarks/check_bench.py bench.json

Each section prints its numbers; the exit status is 1 when any gate
misses, after every section has been checked.
"""

from __future__ import annotations

import json
import sys


def check_clustering(report: dict) -> list[str]:
    clustering = report["clustering_fit"]
    sweep = clustering["phase_sweep"]
    print(f"phase sweep: {sweep['speedup']:.2f}x, bitwise {sweep['bitwise']}")
    failures = []
    if not clustering["equivalent_1e8"]:
        failures.append("vectorized and loop fits diverge")
    if not sweep["bitwise"]:
        failures.append("fit_many banks differ from per-set fit")
    return failures


def check_telemetry(report: dict) -> list[str]:
    telemetry = report["telemetry"]
    overhead = telemetry["overhead_off_pct"]
    low, high = telemetry["overhead_off_iqr_pct"]
    print(f"disabled-telemetry overhead: {overhead:+.2f}% "
          f"(per-round IQR {low:+.2f}..{high:+.2f}%, "
          f"on: {telemetry['overhead_on_pct']:+.2f}%, "
          f"{telemetry['events_per_s']:.0f} events/s)")
    if overhead <= 2.0:
        return []
    return [f"disabled telemetry costs {overhead:.2f}% > 2% per training step"]


def check_serving(report: dict) -> list[str]:
    serving = report["serving"]
    speedup = serving["speedup_batch32"]
    batch32 = serving["batched"]["batch_32"]
    print(f"batched throughput at 32: {batch32['throughput_per_s']:.0f}/s "
          f"({speedup:.2f}x sequential, p99 {batch32['p99_ms']:.2f}ms)")
    if speedup >= 1.5:
        return []
    return [f"batched serving is only {speedup:.2f}x sequential (gate: 1.5x)"]


def check_fleet(report: dict) -> list[str]:
    fleet = report["fleet"]
    for shards, entry in fleet["shards"].items():
        print(f"{shards} shard(s): {entry['throughput_per_s']:.0f}/s "
              f"(p99 {entry['p99_ms']:.2f}ms)")
    print(f"scaling 4/1: {fleet['scaling_4x']:.2f}x on "
          f"{fleet['cpu_count']} CPUs (gate active: {fleet['gate_active']})")
    failures = []
    if not fleet["consistent_response_counts"]:
        failures.append("response counts diverged")
    if fleet["gate_active"] and not fleet["scaling_4x"] >= fleet["gate"]:
        failures.append(
            f"4-shard fleet is only {fleet['scaling_4x']:.2f}x single-shard "
            f"(gate: {fleet['gate']}x)"
        )
    return failures


def check_observability(report: dict) -> list[str]:
    obs = report["fleet_observability"]
    low, high = obs["overhead_iqr_pct"]
    print(f"observability plane: {obs['off_per_s']:.0f}/s off vs "
          f"{obs['on_per_s']:.0f}/s armed ({obs['overhead_pct']:+.2f}%, "
          f"per-round IQR {low:+.2f}..{high:+.2f}%); "
          f"aggregation {obs['aggregate_ms']:.2f}ms per "
          f"{obs['aggregate_shards']}-shard cycle")
    if obs["overhead_pct"] <= obs["gate_pct"]:
        return []
    return [f"observability costs {obs['overhead_pct']:.2f}% serving "
            f"throughput (gate: {obs['gate_pct']}%)"]


def check_plan(report: dict) -> list[str]:
    plan = report["plan_engine"]
    for batch, entry in plan["batches"].items():
        low, high = entry["speedup_iqr"]
        print(f"batch {batch}: eager {entry['eager_ms']:.3f}ms vs "
              f"plan {entry['plan_ms']:.3f}ms ({entry['speedup']:.2f}x, "
              f"per-round IQR {low:.2f}..{high:.2f}x)")
    print(f"plan: {plan['plan_ops']} ops ({plan['plan_folded']} folded), "
          f"build {plan['build_ms']:.1f}ms, "
          f"arena {plan['arena_kb']:.1f}KB")
    failures = []
    if plan["bitwise_equal"] is not True:
        failures.append("plan diverged from eager")
    if not plan["meets_plan_gate"]:
        failures.append(
            f"plan engine is only {plan['speedup_uncached']:.2f}x eager "
            f"at batch 1 (gate: {plan['gate']}x)"
        )
    return failures


CHECKS = (
    check_clustering,
    check_telemetry,
    check_serving,
    check_fleet,
    check_observability,
    check_plan,
)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: check_bench.py REPORT.json", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        report = json.load(handle)
    failures = []
    for check in CHECKS:
        failures += check(report)
    for failure in failures:
        print(f"GATE MISSED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
