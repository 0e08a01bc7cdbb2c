"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(
            action
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        assert set(sub.choices) == {
            "datasets",
            "cluster",
            "run",
            "profile",
            "compare",
            "bench",
            "monitor",
            "serve",
        }

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "PEMS08" in out and "Weather" in out
        assert "6:2:2" in out

    def test_cluster(self, capsys, tmp_path):
        path = str(tmp_path / "protos.npz")
        code = main(
            ["cluster", "--dataset", "ETTh1", "-k", "3", "-p", "8", "--save", path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 prototypes" in out
        assert "inertia" in out
        from repro.core.clustering import SegmentClusterer

        restored = SegmentClusterer.load(path)
        assert restored.prototypes_.shape == (3, 8)

    def test_profile(self, capsys):
        assert main(["profile", "--model", "DLinear", "--lookback", "48"]) == 0
        out = capsys.readouterr().out
        assert "FLOPs" in out and "params" in out

    def test_profile_focus_runs_offline_phase(self, capsys):
        assert main(["profile", "--model", "FOCUS", "--lookback", "48"]) == 0
        out = capsys.readouterr().out
        assert "proto_assignment" in out

    def test_profile_ops_wall_clock(self, capsys):
        from repro import autograd as ag

        try:
            code = main(
                [
                    "profile", "--ops", "--model", "DLinear", "--lookback", "48",
                    "--dtype", "float32", "--batch-size", "4", "--top", "5",
                ]
            )
        finally:
            ag.set_default_dtype(np.float64)
        assert code == 0
        out = capsys.readouterr().out
        assert "dtype=float32" in out
        assert "one training step" in out
        assert "optimizer.step" in out or "matmul" in out

    def test_run_small(self, capsys):
        code = main(
            [
                "run",
                "--model",
                "DLinear",
                "--dataset",
                "ETTh1",
                "--lookback",
                "48",
                "--horizon",
                "12",
                "--epochs",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mse" in out and "DLinear" in out

    def test_run_checkpoint_and_resume(self, capsys, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        args = [
            "run", "--model", "DLinear", "--dataset", "ETTh1",
            "--lookback", "48", "--horizon", "12", "--epochs", "1",
            "--checkpoint-dir", str(ckpt_dir),
        ]
        assert main(args) == 0
        assert any(p.name.startswith("ckpt_epoch") for p in ckpt_dir.iterdir())
        # Resume picks up the epoch-0 checkpoint and trains one more epoch.
        assert main(args + ["--epochs", "2", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint at epoch 0" in out

    def test_compare_small(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "ETTh1",
                "--models",
                "DLinear",
                "--lookback",
                "48",
                "--horizon",
                "12",
                "--epochs",
                "1",
            ]
        )
        assert code == 0
        assert "comparison" in capsys.readouterr().out

    def test_bench_quick_writes_report(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "bench.json")
        assert main(["bench", "--quick", "--out", path]) == 0
        out = capsys.readouterr().out
        assert "clustering fit" in out and "streaming" in out
        with open(path) as handle:
            report = json.load(handle)
        assert report["mode"] == "quick"
        assert report["clustering_fit"]["equivalent_1e8"] is True
        assert report["clustering_fit"]["speedup"] > 0
        assert report["clustering_fit"]["phase_sweep"]["bitwise"] is True
        assert report["clustering_fit"]["phase_sweep"]["speedup"] > 0
        assert "phase sweep" in out
        assert report["streaming"]["observe_per_s"] > 0
        step = report["training_step"]
        assert "training step" in out
        assert step["float64_ms"] > 0 and step["float32_ms"] > 0
        assert step["allocs_per_step_inplace"] < step["allocs_per_step_legacy"]
        assert step["alloc_reduction"] > 0
        # One live training graph: the gate benchmarks/check_bench.py
        # applies, from tracemalloc readings (no timing involved).
        assert 0 < step["peak_traced_mb"] <= 1.25 * step["graph_traced_mb"]

    def test_bench_no_out_skips_writing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--quick", "--out", ""]) == 0
        assert not (tmp_path / "BENCH_hotpath.json").exists()

    def test_bench_reports_telemetry_overhead(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "bench.json")
        assert main(["bench", "--quick", "--out", path]) == 0
        assert "telemetry" in capsys.readouterr().out
        with open(path) as handle:
            report = json.load(handle)
        assert report["schema"] == 12
        telemetry = report["telemetry"]
        assert telemetry["events_per_s"] > 0
        assert telemetry["off_ms"] > 0 and telemetry["on_ms"] > 0
        # The disabled-telemetry overhead gate CI enforces (<= 2%); allow a
        # little noise headroom here since quick mode uses few rounds.
        assert telemetry["overhead_off_pct"] < 5.0
        observability = report["fleet_observability"]
        assert observability["off_per_s"] > 0 and observability["on_per_s"] > 0
        assert observability["aggregate_ms"] > 0
        assert observability["merged_series"] > 0
        assert observability["gate_pct"] == 3.0
        low, high = observability["overhead_iqr_pct"]
        assert low <= observability["overhead_pct"] <= high
        # Whether the gate *passed* is CI's call (dedicated job, fresh
        # process); in-suite the measurement inherits the test heap.
        assert isinstance(observability["meets_overhead_gate"], bool)
        plan = report["plan_engine"]
        assert plan["bitwise_equal"] is True
        assert plan["gate"] == 3.0
        assert plan["plan_ops"] > 0
        assert isinstance(plan["meets_plan_gate"], bool)

    def test_bench_gate_misses_warn_unless_strict(self, capsys, monkeypatch):
        import repro.cli as cli

        from repro.profiling.bench import run_benchmarks

        report = None

        def capture(quick=False):
            nonlocal report
            report = run_benchmarks(quick=quick)
            # Doctor one gate to a miss: default mode warns, strict fails.
            report["fleet_observability"]["meets_overhead_gate"] = False
            report["fleet_observability"]["overhead_pct"] = 99.0
            return report

        monkeypatch.setattr("repro.profiling.bench.run_benchmarks", capture)
        assert cli.main(["bench", "--quick", "--out", ""]) == 0
        assert "WARNING: observability plane" in capsys.readouterr().out
        monkeypatch.setattr(
            "repro.profiling.bench.run_benchmarks", lambda quick=False: report
        )
        assert cli.main(["bench", "--quick", "--strict", "--out", ""]) == 1
        assert "WARNING: observability plane" in capsys.readouterr().out


class TestServeCommand:
    SERVE_ARGS = [
        "serve", "--replay", "--dataset", "ETTh1",
        "--lookback", "48", "--horizon", "12",
        "--entities", "2", "--steps", "16",
    ]

    def test_serve_requires_replay(self, capsys):
        assert main(["serve", "--dataset", "ETTh1"]) == 2
        assert "--replay" in capsys.readouterr().err

    def test_serve_replay_smoke(self, capsys):
        assert main(self.SERVE_ARGS) == 0
        out = capsys.readouterr().out
        assert "replayed 2 entities" in out
        assert "health" in out and "HEALTHY" in out

    def test_serve_threaded_writes_telemetry(self, capsys, tmp_path):
        from repro.telemetry import read_events, validate_event

        run_dir = tmp_path / "telem"
        args = self.SERVE_ARGS + ["--threaded", "--telemetry-dir", str(run_dir)]
        assert main(args) == 0
        assert "threaded" in capsys.readouterr().out
        events = read_events(run_dir)
        for event in events:
            assert validate_event(event) == [], event
        kinds = [event["type"] for event in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert "serve_batch" in kinds
        assert (run_dir / "metrics.prom").exists()


class TestTelemetryCommands:
    RUN_ARGS = [
        "run", "--model", "DLinear", "--dataset", "ETTh1",
        "--lookback", "48", "--horizon", "12", "--epochs", "1",
    ]

    def test_run_writes_telemetry_dir(self, capsys, tmp_path):
        from repro.telemetry import read_events, validate_event

        run_dir = tmp_path / "telem"
        assert main(self.RUN_ARGS + ["--telemetry-dir", str(run_dir)]) == 0
        events = read_events(run_dir)
        for event in events:
            assert validate_event(event) == [], event
        kinds = [event["type"] for event in events]
        assert "run_start" in kinds and "epoch" in kinds and "run_end" in kinds
        assert (run_dir / "metrics.prom").exists()

    def test_cluster_writes_telemetry_dir(self, capsys, tmp_path):
        from repro.telemetry import read_events

        run_dir = tmp_path / "telem"
        code = main(
            ["cluster", "--dataset", "ETTh1", "-k", "3", "-p", "8",
             "--telemetry-dir", str(run_dir)]
        )
        assert code == 0
        kinds = [event["type"] for event in read_events(run_dir)]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert "cluster_fit" in kinds
        prom = (run_dir / "metrics.prom").read_text()
        assert 'span_seconds_bucket{le="+Inf",span="cluster.fit"}' in prom

    def test_monitor_summarizes_run(self, capsys, tmp_path):
        run_dir = tmp_path / "telem"
        assert main(self.RUN_ARGS + ["--telemetry-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(["monitor", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "events in" in out
        assert "run_start" in out and "epoch" in out
        assert "metrics.prom" in out

    def test_monitor_validate_passes_and_fails(self, capsys, tmp_path):
        run_dir = tmp_path / "telem"
        assert main(self.RUN_ARGS + ["--telemetry-dir", str(run_dir)]) == 0
        assert main(["monitor", str(run_dir), "--validate"]) == 0
        assert "all events valid" in capsys.readouterr().out
        with open(run_dir / "events.jsonl", "a") as handle:
            handle.write('{"type": "martian"}\n')
        assert main(["monitor", str(run_dir), "--validate"]) == 1
        assert "unknown event type" in capsys.readouterr().err

    def test_monitor_follow_prints_json_lines(self, capsys, tmp_path):
        import json

        run_dir = tmp_path / "telem"
        assert main(self.RUN_ARGS + ["--telemetry-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(["monitor", str(run_dir), "--follow", "--max-polls", "1"]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line.strip()
        ]
        assert lines
        assert json.loads(lines[0])["type"] == "run_start"
