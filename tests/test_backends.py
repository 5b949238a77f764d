"""Compute-engine choices and the surfaces that report them: the plain
value sets the ``feature_backend``/``ensemble_backend``/
``ingest_backend`` keywords accept, the native-kernel fallback
contract, and the report notes and CLI that name the engines that
ran."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.cli import main
from repro.features import _native
from repro.features.netstat import NetStat
from repro.ids.registry import backend_notes
from repro.stream import (
    DatasetSource,
    PcapReplaySource,
    build_streaming_detector,
    resolve_ingest_backend,
    stream_capture,
)


def _expected_feature_backend() -> str:
    return "vector-native" if _native.load_kernel() is not None else "scalar"


@pytest.fixture
def kernel_off(monkeypatch):
    """The native kernel as a host without a compiler sees it."""
    monkeypatch.setattr(_native, "load_kernel", lambda: None)


@pytest.fixture(scope="module")
def mirai_pcap(tmp_path_factory) -> Path:
    from repro.datasets import generate_dataset

    path = tmp_path_factory.mktemp("capture") / "mirai.pcap"
    generate_dataset("Mirai", seed=0, scale=0.02).to_pcap(path)
    return path


class TestRegistry:
    """What replaced the compute-backend registry: each keyword checks
    its argument against a plain value set where it is used, and the
    feature engine is chosen once, by ``NetStat``."""

    def test_unknown_component_and_backend_errors_name_the_known_set(
        self, mirai_pcap,
    ):
        from repro.ids.kitsune.kitnet import KitNET
        from repro.utils.rng import SeededRNG

        with pytest.raises(ValueError, match="auto, batched-einsum"):
            KitNET(10, ensemble_backend="x", rng=SeededRNG(0, "test"))
        with pytest.raises(ValueError, match="scalar, vector-native, vector"):
            build_streaming_detector("Kitsune", feature_backend="bogus")
        with pytest.raises(ValueError, match="packet-objects, columnar-mmap"):
            resolve_ingest_backend(PcapReplaySource(mirai_pcap), "auto")
        with pytest.raises(ValueError, match="only 'packet-objects'"):
            resolve_ingest_backend(
                DatasetSource("Mirai", scale=0.02), "columnar-mmap",
            )

    def test_always_available_backends(self):
        # The pure-Python reference runs anywhere; the native engine
        # runs exactly where its kernel loads.
        assert NetStat(engine="scalar").backend == "scalar"
        if _native.load_kernel() is None:
            with pytest.raises(RuntimeError, match="unavailable"):
                NetStat(engine="vector-native")
        else:
            assert NetStat(engine="vector-native").backend == "vector-native"

    def test_removed_ensemble_backend_is_rejected(self):
        from repro.ids.kitsune import Kitsune

        with pytest.raises(ValueError, match="batched-einsum"):
            Kitsune(ensemble_backend="per-row")

    def test_resolve_explicit_unavailable_backend_raises(self, kernel_off):
        # Pinning the native engine where it cannot run is an error,
        # never a silent fallback; the default degrades instead.
        with pytest.raises(RuntimeError, match="unavailable"):
            build_streaming_detector("Kitsune", feature_backend="vector-native")
        with pytest.raises(ValueError, match="packet-level"):
            build_streaming_detector("Slips", feature_backend="scalar")
        assert build_streaming_detector("Kitsune").ids.netstat.backend == (
            "scalar"
        )

    def test_default_feature_backend_matches_kernel_presence(self):
        assert NetStat().backend == _expected_feature_backend()

    @pytest.mark.parametrize("kernel", ["loaded", "unavailable"])
    def test_default_is_one_decision(self, monkeypatch, tmp_path, kernel):
        """``repro-cli backends`` reports NetStat's own choice, with and
        without the native kernel."""
        if kernel == "unavailable":
            monkeypatch.setattr(_native, "load_kernel", lambda: None)
            expected = "scalar"
        elif _native.load_kernel() is None:
            pytest.skip("native AfterImage kernel unavailable")
        else:
            expected = "vector-native"
        out = tmp_path / "caps.json"
        assert main(["backends", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["feature_backend"] == expected
        assert NetStat().backend == expected


class TestBackendNotes:
    def test_kitsune_reports_both_backends(self):
        from repro.ids.kitsune import Kitsune

        notes = backend_notes(Kitsune(fm_grace=10, ad_grace=10))
        assert notes["feature_backend"] == _expected_feature_backend()
        assert notes["ensemble_backend"] == "batched-einsum"

    def test_flow_ids_and_none_report_nothing(self):
        from repro.ids.slips import SlipsIDS

        assert backend_notes(SlipsIDS()) == {}
        assert backend_notes(None) == {}


class TestNativeFallback:
    """A missing compiler degrades to the scalar engine with one
    warning, never an exception; ``REPRO_DISABLE_NATIVE`` is a silent
    opt-out."""

    @pytest.fixture
    def fresh_native_state(self, monkeypatch, tmp_path):
        monkeypatch.setattr(_native, "_load_attempted", False)
        monkeypatch.setattr(_native, "_cached_kernel", None)
        monkeypatch.setattr(_native, "_unavailable_reason", None)
        # An empty cache dir forces a real compile attempt.
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)

    def test_compile_failure_warns_once_and_returns_none(
        self, fresh_native_state, monkeypatch,
    ):
        monkeypatch.setenv("CC", "/nonexistent/compiler")
        with pytest.warns(RuntimeWarning, match="back to the scalar engine"):
            assert _native.load_kernel() is None
        assert "compilation failed" in _native.unavailable_reason()
        # The failure is latched: later calls stay silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _native.load_kernel() is None

    def test_disable_env_is_a_silent_opt_out(
        self, fresh_native_state, monkeypatch,
    ):
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _native.load_kernel() is None
        assert _native.unavailable_reason() == "REPRO_DISABLE_NATIVE is set"

    def test_publish_failure_has_its_own_reason(
        self, fresh_native_state, monkeypatch,
    ):
        if shutil.which(os.environ.get("CC") or "cc") is None:
            pytest.skip("no C compiler")

        def refuse(src, dst):
            raise OSError("cross-device link")

        monkeypatch.setattr(_native.os, "replace", refuse)
        with pytest.warns(RuntimeWarning, match="not published"):
            assert _native.load_kernel() is None
        assert "cross-device link" in _native.unavailable_reason()

    def test_netstat_still_constructs_without_native(
        self, fresh_native_state, monkeypatch,
    ):
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        extractor = NetStat(engine="vector")
        assert extractor.backend == "scalar"
        with pytest.raises(RuntimeError, match="unavailable"):
            NetStat(engine="vector-native")


def test_missing_nested_cache_dir_is_created(tmp_path):
    """A fresh process given a cache directory that does not exist yet
    creates it and publishes the compiled kernel there."""
    if shutil.which(os.environ.get("CC") or "cc") is None:
        pytest.skip("no C compiler")
    import repro

    cache = tmp_path / "missing" / "nested" / "cache"
    env = {**os.environ, "REPRO_NATIVE_CACHE": str(cache),
           "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    env.pop("REPRO_DISABLE_NATIVE", None)
    probe = ("from repro.features import _native; "
             "assert _native.load_kernel() is not None, "
             "_native.unavailable_reason()")
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", probe],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert [path.suffix for path in cache.iterdir()] == [".so"]


class TestBackendsCLI:
    def test_backends_subcommand_renders_capability_table(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "native kernel" in out
        assert f"feature engine: {_expected_feature_backend()}" in out
        assert "REPRO_DISABLE_NATIVE=1" in out

    def test_backends_json_payload(self, tmp_path, capsys):
        out = tmp_path / "caps.json"
        assert main(["backends", "--json", str(out)]) == 0
        caps = json.loads(out.read_text())
        assert caps["cpu_count"] >= 1
        assert caps["native_kernel"] == (_native.load_kernel() is not None)
        assert "native_kernel_reason" in caps

    def test_stream_reports_resolved_feature_backend(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "stream", "--ids", "kitsune", "--dataset", "mirai",
            "--scale", "0.03", "--json", str(out), "--quiet",
        ])
        assert code == 0
        notes = json.loads(out.read_text())["notes"]
        assert notes["feature_backend"] == _expected_feature_backend()
        assert notes["ensemble_backend"] == "batched-einsum"

    def test_sharded_stream_reports_resolved_feature_backend(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "stream", "--ids", "kitsune", "--dataset", "mirai",
            "--scale", "0.03", "--workers", "1",
            "--checkpoint-every", "500",
            "--json", str(out), "--quiet",
        ])
        assert code == 0
        notes = json.loads(out.read_text())["notes"]
        assert notes["sharded"] is True
        assert notes["feature_backend"] == _expected_feature_backend()
        assert notes["ensemble_backend"] == "batched-einsum"

    def test_stream_pcap_decodes_through_mmap(self, tmp_path, mirai_pcap):
        """A ``--pcap`` replay decodes through mmap, bit-identical to the
        packet-object reference route on the same capture."""
        out = tmp_path / "report.json"
        assert main([
            "stream", "--ids", "kitsune", "--pcap", str(mirai_pcap),
            "--train-packets", "250", "--threshold", "1e-3",
            "--batch", "64", "--json", str(out), "--quiet",
        ]) == 0
        notes = json.loads(out.read_text())["notes"]
        assert notes["ingest_backend"] == "columnar-mmap"
        oracle = stream_capture(
            PcapReplaySource(mirai_pcap),
            build_streaming_detector("Kitsune", labelled=False,
                                     warmup_packets=250, batch_size=64),
            warmup_packets=250, threshold=1e-3,
            ingest_backend="packet-objects",
        )
        assert oracle.n_scored > 0
        assert notes["score_digest"] == oracle.notes["score_digest"]
        assert notes["coverage_digest"] == oracle.notes["coverage_digest"]

    def test_profile_json_reports_backends(self, monkeypatch, tmp_path):
        # With the native kernel disabled the profile's feature stage
        # runs (and reports) the scalar fallback.
        monkeypatch.setattr(_native, "_load_attempted", False)
        monkeypatch.setattr(_native, "_cached_kernel", None)
        monkeypatch.setattr(_native, "_unavailable_reason", None)
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        out = tmp_path / "profile.json"
        assert main([
            "profile", "--dataset", "mirai", "--scale", "0.03",
            "--json", str(out),
        ]) == 0
        profile = json.loads(out.read_text())
        assert profile["feature_backend"] == "scalar"
        assert profile["ensemble_backend"] == "batched-einsum"


class TestIngestRegistry:
    """``resolve_ingest_backend``: the default decodes through mmap
    wherever there is a capture file; packet objects stay the
    reference route."""

    def test_ingest_backends_always_available(self, mirai_pcap):
        for source in (PcapReplaySource(mirai_pcap),
                       DatasetSource("Mirai", scale=0.02)):
            assert resolve_ingest_backend(source, "packet-objects") == (
                "packet-objects"
            )

    def test_auto_prefers_columnar(self, mirai_pcap):
        assert resolve_ingest_backend(PcapReplaySource(mirai_pcap)) == (
            "columnar-mmap"
        )
        assert resolve_ingest_backend(DatasetSource("Mirai", scale=0.02)) == (
            "packet-objects"
        )

    def test_explicit_names_resolve(self, mirai_pcap):
        source = PcapReplaySource(mirai_pcap)
        for name in ("packet-objects", "columnar-mmap"):
            assert resolve_ingest_backend(source, name) == name
