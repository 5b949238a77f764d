"""The ``repro-cli stream`` surface and its JSON report."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import _parse_duration, _parse_scales, main


class TestDurationParsing:
    def test_plain_seconds_and_suffixes(self):
        assert _parse_duration("10") == 10.0
        assert _parse_duration("10s") == 10.0
        assert _parse_duration("2m") == 120.0
        assert _parse_duration("0.5h") == 1800.0

    def test_rejects_garbage_and_nonpositive(self):
        for bad in ("abc", "10x", "-5s", "0"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_duration(bad)


class TestScalesParsing:
    def test_comma_separated_floats(self):
        assert _parse_scales("0.1,0.5,1.0") == [0.1, 0.5, 1.0]
        assert _parse_scales("0.2") == [0.2]

    def test_rejects_bad_grids(self):
        for bad in ("", "a,b", "0.1,-0.5", "0"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_scales(bad)


class TestStreamCommand:
    def test_dataset_mode_case_insensitive_with_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "stream", "--ids", "kitsune", "--dataset", "mirai",
            "--window", "30s", "--batch", "128", "--scale", "0.03",
            "--json", str(out), "--quiet",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "stream: Kitsune over dataset:Mirai" in captured
        payload = json.loads(out.read_text())
        assert payload["ids"] == "Kitsune"
        assert payload["unit"] == "packet"
        assert payload["labelled"] is True
        assert payload["batch_size"] == 128
        assert payload["window_seconds"] == 30.0
        assert payload["metrics"] is not None
        assert payload["n_scored"] > 0
        assert payload["windows"]

    def test_pcap_mode_requires_threshold(self, tmp_path, capsys):
        from repro.datasets import generate_dataset

        pcap = tmp_path / "tiny.pcap"
        generate_dataset("Mirai", seed=0, scale=0.02).to_pcap(pcap)
        code = main(["stream", "--ids", "Kitsune", "--pcap", str(pcap)])
        assert code == 2
        assert "--threshold" in capsys.readouterr().err

    def test_pcap_mode_unlabelled_report(self, tmp_path, capsys):
        import warnings

        from repro.datasets import generate_dataset

        pcap = tmp_path / "tiny.pcap"
        generate_dataset("Mirai", seed=0, scale=0.02).to_pcap(pcap)
        out = tmp_path / "report.json"
        # 250 packets cover Kitsune's minimum combined grace (fm 100 +
        # ad 150), so no score is a training-step output; a shorter
        # prefix warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([
                "stream", "--ids", "Kitsune", "--pcap", str(pcap),
                "--threshold", "0.5", "--train-packets", "250",
                "--batch", "64", "--window", "60s", "--json", str(out),
                "--quiet",
            ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["labelled"] is False
        assert payload["metrics"] is None  # no ground truth in pcap
        assert payload["threshold_source"] == "fixed"
        assert payload["n_warmup"] == 250
        assert payload["n_scored"] > 0

    def test_pcap_mode_scales_kitsune_grace_to_prefix(self):
        from repro.stream import build_streaming_detector

        detector = build_streaming_detector(
            "kitsune", warmup_packets=1000, labelled=False
        )
        # Same arithmetic as the batch path's build_packet_cell: the
        # grace periods fit the training prefix exactly, so scoring
        # starts trained.
        assert detector.ids.kitnet.fm_grace == 100
        assert detector.ids.kitnet.ad_grace == 900
        # Explicit overrides win over the scaling.
        pinned = build_streaming_detector(
            "kitsune", warmup_packets=1000,
            ids_overrides={"fm_grace": 50, "ad_grace": 60},
        )
        assert pinned.ids.kitnet.fm_grace == 50
        assert pinned.ids.kitnet.ad_grace == 60

    def test_partial_grace_override_scales_the_other(self):
        """Overriding only one grace period used to leave the other at
        its default (900/100), silently blowing the combined grace past
        the warmup prefix; the non-overridden one must scale."""
        import warnings

        from repro.stream import build_streaming_detector

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # scaling must not warn
            fm_only = build_streaming_detector(
                "kitsune", warmup_packets=1000,
                ids_overrides={"fm_grace": 300},
            )
            assert fm_only.ids.kitnet.fm_grace == 300
            assert fm_only.ids.kitnet.ad_grace == 700

            ad_only = build_streaming_detector(
                "kitsune", warmup_packets=1000,
                ids_overrides={"ad_grace": 650},
            )
            assert ad_only.ids.kitnet.fm_grace == 350
            assert ad_only.ids.kitnet.ad_grace == 650

    def test_grace_exceeding_warmup_warns(self):
        import warnings

        from repro.stream import build_streaming_detector

        # Both pinned past the prefix: respected, but loudly.
        with pytest.warns(RuntimeWarning, match="exceed"):
            detector = build_streaming_detector(
                "kitsune", warmup_packets=500,
                ids_overrides={"fm_grace": 400, "ad_grace": 400},
            )
        assert detector.ids.kitnet.fm_grace == 400
        assert detector.ids.kitnet.ad_grace == 400

        # A single override so large the other floors at 100 and the
        # total still spills past the prefix.
        with pytest.warns(RuntimeWarning, match="exceed"):
            floored = build_streaming_detector(
                "kitsune", warmup_packets=300,
                ids_overrides={"fm_grace": 280},
            )
        assert floored.ids.kitnet.ad_grace == 100

        # The well-scaled default split must stay silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_streaming_detector("kitsune", warmup_packets=1000)

    def test_pcap_mode_supervised_ids_is_a_clean_error(self, tmp_path, capsys):
        from repro.datasets import generate_dataset

        pcap = tmp_path / "tiny.pcap"
        generate_dataset("Mirai", seed=0, scale=0.02).to_pcap(pcap)
        code = main([
            "stream", "--ids", "dnn", "--pcap", str(pcap),
            "--threshold", "0.5", "--train-packets", "100", "--quiet",
        ])
        assert code == 2
        assert "supervised" in capsys.readouterr().err

    def test_zero_warmup_works_for_training_free_ids(self):
        from repro.stream import (
            DatasetSource, build_streaming_detector, stream_capture,
        )

        detector = build_streaming_detector("slips", batch_size=64)
        report = stream_capture(
            DatasetSource("Mirai", seed=0, scale=0.02),
            detector,
            warmup_packets=0,
            threshold=0.5,
            window_seconds=600.0,
        )
        assert report.n_warmup == 0
        assert report.n_scored > 0

    def test_unknown_ids_is_a_clean_error(self, capsys):
        code = main(["stream", "--ids", "nonsense"])
        assert code == 2
        assert "unknown IDS" in capsys.readouterr().err

    def test_unknown_dataset_is_a_clean_error(self, capsys):
        code = main(["stream", "--ids", "Slips", "--dataset", "nope"])
        assert code == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_flow_ids_stream(self, tmp_path, capsys):
        out = tmp_path / "slips.json"
        code = main([
            "stream", "--ids", "slips", "--dataset", "Mirai",
            "--scale", "0.03", "--window", "10m", "--json", str(out),
            "--quiet",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["unit"] == "flow"
        assert payload["window_seconds"] == 600.0


class TestShardedStreamCommand:
    def test_dataset_mode_with_workers_reports_telemetry(
            self, tmp_path, capsys):
        out = tmp_path / "sharded.json"
        code = main([
            "stream", "--ids", "kitsune", "--dataset", "Mirai",
            "--scale", "0.02", "--batch", "64", "--workers", "2",
            "--checkpoint-every", "200", "--json", str(out), "--quiet",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        # The default warmup must leave a test stream to score even at
        # tiny scales (it is derived from the stream length, not the
        # pcap-mode fixed 1000).
        assert payload["n_scored"] > 0
        assert payload["metrics"] is not None
        notes = payload["notes"]
        assert notes["sharded"] is True
        assert notes["workers_n"] == 2
        assert notes["shard_key"] == "canonical-channel"
        assert notes["checkpoint_every"] == 200
        assert notes["coverage_digest"]
        rows = notes["workers"]
        assert [row["worker"] for row in rows] == [0, 1]
        for row in rows:
            if row["packets"]:
                assert row["pps"] > 0
            assert row["restarts"] == 0
        assert sum(row["packets"] for row in rows) == payload["n_scored"]

    def test_sharded_json_matches_single_worker_parity(self, tmp_path):
        # --workers 1 must go through the sharded engine yet reproduce
        # the in-process run's coverage exactly; here we just pin that
        # the gateable digest is present and stable across reruns.
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main([
                "stream", "--ids", "kitsune", "--dataset", "Mirai",
                "--scale", "0.02", "--batch", "64", "--workers", "1",
                "--json", str(out), "--quiet",
            ])
            assert code == 0
            outs.append(json.loads(out.read_text()))
        assert (outs[0]["notes"]["coverage_digest"]
                == outs[1]["notes"]["coverage_digest"])
        assert (outs[0]["notes"]["merged_score_digest"]
                == outs[1]["notes"]["merged_score_digest"])

    def test_sharded_pcap_mode_requires_threshold(self, tmp_path, capsys):
        from repro.datasets import generate_dataset

        pcap = tmp_path / "tiny.pcap"
        generate_dataset("Mirai", seed=0, scale=0.02).to_pcap(pcap)
        code = main(["stream", "--ids", "Kitsune", "--pcap", str(pcap),
                     "--workers", "2"])
        assert code == 2
        assert "--threshold" in capsys.readouterr().err

    def test_sharded_flow_ids_is_a_clean_error(self, capsys):
        code = main([
            "stream", "--ids", "slips", "--dataset", "Mirai",
            "--scale", "0.02", "--workers", "2", "--quiet",
        ])
        assert code == 2
        assert "packet-level" in capsys.readouterr().err

    def test_workers_flag_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["stream", "--ids", "kitsune", "--dataset", "Mirai",
                  "--workers", "0"])
        assert ">= 1" in capsys.readouterr().err

    def test_explicit_checkpoint_dir_survives_the_run(self, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        ckpt_dir.mkdir()
        code = main([
            "stream", "--ids", "kitsune", "--dataset", "Mirai",
            "--scale", "0.02", "--batch", "64", "--workers", "2",
            "--checkpoint-every", "100",
            "--checkpoint-dir", str(ckpt_dir), "--quiet",
        ])
        assert code == 0
        kept = [p.name for p in ckpt_dir.iterdir()]
        assert kept and all(name.endswith(".ckpt") for name in kept)
