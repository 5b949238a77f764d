"""Obs integration across the stream, sharded, runner and ML layers.

The acceptance contract for the observability layer: instrumented runs
record what actually happened (per-worker packet counters sum exactly
to the single-process packet count), run ids stamp every artifact, the
exporter seam works end to end through the CLI, and disabled-by-default
means no snapshots and no metric noise.
"""

from __future__ import annotations

import json

from repro import obs
from repro.cli import main
from repro.stream.sources import ListSource
from repro.stream.service import stream_capture

from tests.faultinject import (
    ChannelMeanDetector,
    FaultInjection,
    conversation_packets,
    run_sharded,
)


# -- in-process stream ------------------------------------------------------

class TestStreamCaptureObs:
    def test_exporter_enables_and_counts_packets(self, tmp_path):
        packets = conversation_packets()
        path = tmp_path / "metrics.jsonl"
        with obs.SnapshotExporter(path, interval_seconds=3600,
                                  source="stream") as exporter:
            report = stream_capture(
                ListSource(packets), ChannelMeanDetector(),
                warmup_packets=64, window_seconds=5.0,
                exporter=exporter,
            )
        snapshots = obs.read_snapshots(path)
        assert snapshots, "final export must always write one snapshot"
        last = snapshots[-1]
        assert last["counters"]["stream.packets_streamed"] == (
            report.packets_streamed
        )
        assert last["counters"]["stream.items_scored"] == report.n_scored
        assert last["gauges"]["stream.warmup_items"] == 64
        assert "stream.warmup" in last["spans"]
        assert last["source"] == "stream"
        assert report.notes["run_id"] == obs.run_id()
        assert last["run_id"] == report.notes["run_id"]

    def test_disabled_run_records_nothing(self):
        packets = conversation_packets()
        report = stream_capture(
            ListSource(packets), ChannelMeanDetector(),
            warmup_packets=64, window_seconds=5.0,
        )
        assert not obs.is_enabled()
        snap = obs.get_registry().snapshot()
        assert "stream.packets_streamed" not in snap["counters"]
        assert snap["spans"] == {}
        # run_id is stamped regardless: it identifies the invocation.
        assert report.notes["run_id"] == obs.run_id()


# -- sharded stream ---------------------------------------------------------

class TestShardedObs:
    def test_worker_tree_packets_sum_to_single_process_run(self, tmp_path):
        packets = conversation_packets()
        path = tmp_path / "metrics.jsonl"

        single = stream_capture(
            ListSource(packets), ChannelMeanDetector(),
            warmup_packets=64, window_seconds=5.0,
        )
        with obs.SnapshotExporter(path, interval_seconds=3600,
                                  source="stream-sharded") as exporter:
            report = run_sharded(packets, workers=2, exporter=exporter)

        last = obs.read_snapshots(path)[-1]
        workers = last["workers"]
        assert set(workers) == {"0", "1"}
        per_worker = [
            snap["counters"]["stream.worker.packets"]
            for snap in workers.values()
        ]
        assert sum(per_worker) == single.packets_streamed
        assert sum(per_worker) == report.packets_streamed
        assert last["merged"]["counters"]["stream.worker.packets"] == (
            report.packets_streamed
        )
        assert last["merged"]["counters"]["stream.worker.items_scored"] == (
            report.n_scored
        )
        # Workers reset inherited registries: supervisor-side counters
        # must not appear in worker snapshots.
        for snap in workers.values():
            assert "stream.shard.packets_dispatched" not in snap["counters"]
        # Supervisor-side counters sit at the snapshot top level.
        assert last["counters"]["stream.shard.packets_dispatched"] == (
            report.packets_streamed
        )
        assert last["gauges"]["stream.shard.workers_n"] == 2

    def test_counters_exact_across_crash_resume(self, tmp_path):
        packets = conversation_packets()
        path = tmp_path / "metrics.jsonl"
        with obs.SnapshotExporter(path, interval_seconds=3600,
                                  source="stream-sharded") as exporter:
            report = run_sharded(
                packets, workers=2, exporter=exporter,
                fault=FaultInjection(worker=0, at_packets=120,
                                     action="kill"),
            )
        assert report.notes["workers"][0]["restarts"] == 1
        last = obs.read_snapshots(path)[-1]
        per_worker = [
            snap["counters"]["stream.worker.packets"]
            for snap in last["workers"].values()
        ]
        # Baselined restart counters: replayed packets are not double
        # counted, so the merged total still equals packets streamed.
        assert sum(per_worker) == report.packets_streamed

    def test_zero_packet_shard_reports_null_pps(self):
        # One channel, many workers: every shard but one stays empty.
        packets = conversation_packets(channels=1, packets_per_channel=80)
        report = run_sharded(packets, workers=3, warmup_packets=16)
        rows = {row["worker"]: row for row in report.notes["workers"]}
        idle = [row for row in rows.values() if row["packets"] == 0]
        busy = [row for row in rows.values() if row["packets"] > 0]
        assert idle and busy, "expected both idle and busy shards"
        for row in idle:
            assert row["pps"] is None, (
                "zero-packet shard must report pps=None, not 0.0"
            )
        for row in busy:
            assert row["pps"] > 0

    def test_notes_keep_run_id_and_send_stalls_int(self):
        packets = conversation_packets(packets_per_channel=20)
        report = run_sharded(packets, workers=2, warmup_packets=16)
        assert isinstance(report.notes["send_stalls"], int)
        assert report.notes["run_id"] == obs.run_id()


# -- CLI --------------------------------------------------------------------

class TestCliMetricsFlow:
    def test_stream_metrics_out_and_obs_report(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        code = main([
            "stream", "--workers", "2", "--scale", "0.02", "--quiet",
            "--metrics-out", str(metrics), "--metrics-interval", "1s",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert str(metrics) in out
        snapshots = obs.read_snapshots(metrics)
        assert snapshots[-1]["source"] == "stream-sharded"
        assert "workers" in snapshots[-1]

        assert main(["obs-report", str(metrics)]) == 0
        rendered = capsys.readouterr().out
        assert "obs snapshot" in rendered
        assert "merged across workers" in rendered

        assert main(["obs-report", "--prom", str(metrics)]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_stream_worker_packets counter" in prom

        assert main(["obs-report", str(metrics), str(metrics)]) == 0
        assert "obs diff" in capsys.readouterr().out

    def test_obs_report_rejects_bad_input(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["obs-report", str(missing)]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs-report", str(empty)]) == 2
        three = [str(empty)] * 3
        assert main(["obs-report", *three]) == 2
        capsys.readouterr()


# -- runner + ML ------------------------------------------------------------

class TestRunnerAndMlObs:
    def test_engine_records_cache_counters_unconditionally(self, tmp_path):
        from repro.runner.engine import ExperimentEngine

        engine = ExperimentEngine(cache_dir=tmp_path)
        engine.run_matrix(["Kitsune"], ["Mirai"], scale=0.02)
        snap = obs.get_registry().snapshot()
        assert snap["counters"]["runner.cells_total"] == 1
        assert snap["histograms"]["runner.cell_wall_seconds"]["count"] == 1
        first_run_id = engine.last_telemetry.run_id
        assert first_run_id == obs.run_id()

        # Second run: whole-cell reuse shows up as a result-cache hit.
        engine2 = ExperimentEngine(cache_dir=tmp_path)
        engine2.run_matrix(["Kitsune"], ["Mirai"], scale=0.02)
        snap = obs.get_registry().snapshot()
        assert snap["counters"]["runner.cells_total"] == 2
        assert snap["counters"]["runner.result_cache_hits"] == 1

    def test_kitnet_training_metrics_gated(self):
        import numpy as np

        from repro.ids.kitsune.kitnet import KitNET
        from repro.utils.rng import SeededRNG

        rows = SeededRNG(7, "obs-test").random((260, 8))

        def run():
            # Both grace periods, stopping short of the boundary row.
            net = KitNET(8, fm_grace=50, ad_grace=150,
                         rng=SeededRNG(7, "kitnet"))
            net.process_batch(rows[:199])
            return net

        run()  # disabled: nothing recorded
        snap = obs.get_registry().snapshot()
        assert "ml.kitnet.rows_trained" not in snap["counters"]

        obs.enable()
        net = run()
        snap = obs.get_registry().snapshot()
        # KitNET trains on ad_grace - 1 rows: the row that reaches the
        # grace boundary itself goes through execute.
        assert snap["counters"]["ml.kitnet.rows_trained"] == 149
        assert snap["gauges"]["ml.kitnet.grace_progress"] == 149 / 150
        assert snap["gauges"]["ml.kitnet.ensemble_groups"] >= 1
        assert snap["counters"].get("ml.kitnet.batched_builds", 0) == 0

        # The boundary row and the execute rows after it build the
        # packed ensemble once.
        net.process_batch(np.asarray(rows[199:]))
        snap = obs.get_registry().snapshot()
        assert snap["counters"]["ml.kitnet.batched_builds"] == 1
        assert snap["counters"]["ml.kitnet.rows_trained"] == 149


class TestBenchJsonObs:
    def test_save_bench_json_embeds_obs_snapshot(self, tmp_path,
                                                 monkeypatch, capsys):
        import benchmarks.conftest as bench_conftest

        monkeypatch.setattr(bench_conftest, "REPO_ROOT", tmp_path)
        obs.counter("runner.cells_total").inc(3)
        bench_conftest.save_bench_json("smoke", "value_metric", 1.25,
                                       scale=0.1)
        payload = json.loads((tmp_path / "BENCH_smoke.json").read_text())
        assert payload["run_id"] == obs.run_id()
        assert payload["obs"]["counters"]["runner.cells_total"] == 3
        assert payload["obs"]["cpu_count"] >= 1
        capsys.readouterr()


class TestBenchGitRev:
    @staticmethod
    def _git(cwd, *args):
        import subprocess

        subprocess.run(["git", "-c", "user.name=bench",
                        "-c", "user.email=bench@example.invalid", *args],
                       cwd=cwd, check=True, capture_output=True)

    def test_rev_is_marked_dirty_only_for_tracked_changes(
            self, tmp_path, monkeypatch):
        import benchmarks.conftest as bench_conftest

        monkeypatch.setattr(bench_conftest, "REPO_ROOT", tmp_path)
        self._git(tmp_path, "init", "-q")
        (tmp_path / "tracked.txt").write_text("one\n")
        (tmp_path / "BENCH_x.json").write_text("{}\n")
        self._git(tmp_path, "add", "tracked.txt", "BENCH_x.json")
        self._git(tmp_path, "commit", "-q", "-m", "one")
        clean = bench_conftest._git_rev()
        assert clean != "unknown" and not clean.endswith("-dirty")
        (tmp_path / "untracked.txt").write_text("new\n")
        assert bench_conftest._git_rev() == clean
        # A bench file written earlier in the same run is not a change
        # to the code being measured.
        (tmp_path / "BENCH_x.json").write_text('{"value": 2}\n')
        assert bench_conftest._git_rev() == clean
        (tmp_path / "tracked.txt").write_text("two\n")
        assert bench_conftest._git_rev() == clean + "-dirty"
