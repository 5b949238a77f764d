"""The compute-backend registry, capability discovery, and selection
plumbing: ``repro.backends`` declarations, the native-kernel fallback
contract, and the CLI surfaces that report the resolved backend."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro import backends
from repro.backends.registry import BackendSpec, _REGISTRY
from repro.cli import main
from repro.features import _native
from repro.features.netstat import NetStat


class TestRegistry:
    def test_components_and_declared_backends(self):
        assert set(backends.components()) == {
            backends.FEATURE_ENGINE, backends.INGEST, backends.ENSEMBLE,
        }
        assert backends.backend_names(backends.FEATURE_ENGINE) == (
            "scalar", "vector-native",
        )
        assert backends.backend_names(backends.INGEST) == (
            "packet-objects", "columnar-mmap",
        )
        assert backends.backend_names(backends.ENSEMBLE) == (
            "batched-einsum",
        )

    def test_unknown_component_and_backend_errors_name_the_known_set(self):
        with pytest.raises(KeyError, match="feature-engine, ingest, ensemble"):
            backends.backend_names("gpu")
        with pytest.raises(KeyError) as excinfo:
            backends.get_backend(backends.FEATURE_ENGINE, "vector-cuda")
        message = str(excinfo.value)
        assert "vector-cuda" in message
        assert "scalar, vector-native" in message  # the known set

    def test_always_available_backends(self):
        names = [
            spec.name
            for spec in backends.available_backends(backends.FEATURE_ENGINE)
        ]
        # The pure-Python reference carries no probe: available anywhere.
        assert "scalar" in names
        native = _native.load_kernel() is not None
        assert ("vector-native" in names) == native

    def test_resolve_auto_picks_highest_ranked_available(self):
        spec = backends.resolve(backends.FEATURE_ENGINE, "auto")
        if _native.load_kernel() is None:
            assert spec.name == "scalar"
        else:
            assert spec.name == "vector-native"
        assert backends.resolve(backends.ENSEMBLE).name == "batched-einsum"

    def test_removed_ensemble_backend_is_rejected(self):
        from repro.ids.kitsune import Kitsune

        with pytest.raises(KeyError, match="batched-einsum"):
            Kitsune(ensemble_backend="per-row")

    def test_resolve_explicit_unavailable_backend_raises(self):
        key = (backends.FEATURE_ENGINE, "vector-test-unavailable")
        backends.register(BackendSpec(
            component=backends.FEATURE_ENGINE,
            name="vector-test-unavailable",
            description="test-only",
            parity="n/a",
            probe=lambda: "requires hardware this host lacks",
        ))
        try:
            with pytest.raises(RuntimeError, match="requires hardware"):
                backends.resolve(
                    backends.FEATURE_ENGINE, "vector-test-unavailable"
                )
            # ...and auto never selects it either.
            assert backends.resolve(backends.FEATURE_ENGINE).name != (
                "vector-test-unavailable"
            )
        finally:
            del _REGISTRY[key]

    def test_capabilities_shape(self):
        caps = backends.capabilities()
        assert caps["cpu_count"] >= 1
        assert isinstance(caps["native_kernel"], bool)
        per_component = caps["components"]
        assert set(per_component) == set(backends.components())
        scalar = per_component[backends.FEATURE_ENGINE]["scalar"]
        assert scalar == {"available": True, "reason": None}

    def test_default_feature_backend_matches_kernel_presence(self):
        expected = (
            "vector-native" if _native.load_kernel() is not None
            else "scalar"
        )
        assert backends.default_feature_backend() == expected

    @pytest.mark.parametrize("kernel", ["loaded", "unavailable"])
    def test_default_is_one_decision(self, monkeypatch, kernel):
        """The registry default, the ``NetStat()`` alias and ``auto``
        agree, with and without the native kernel."""
        if kernel == "unavailable":
            monkeypatch.setattr(_native, "load_kernel", lambda: None)
            expected = "scalar"
        elif _native.load_kernel() is None:
            pytest.skip("native AfterImage kernel unavailable")
        else:
            expected = "vector-native"
        assert backends.default_feature_backend() == expected
        assert NetStat().backend == expected
        assert backends.resolve(
            backends.FEATURE_ENGINE, "auto"
        ).name == expected


class TestBackendNotes:
    def test_kitsune_reports_both_backends(self):
        from repro.ids.kitsune import Kitsune

        ids = Kitsune(fm_grace=10, ad_grace=10)
        notes = backends.backend_notes(ids)
        assert notes["feature_backend"] == backends.default_feature_backend()
        assert notes["ensemble_backend"] == "batched-einsum"

    def test_flow_ids_and_none_report_nothing(self):
        from repro.ids.slips import SlipsIDS

        assert backends.backend_notes(SlipsIDS()) == {}
        assert backends.backend_notes(None) == {}

    def test_ids_compute_backends_covers_evaluated_ids(self):
        from repro.ids.registry import ids_compute_backends

        table = ids_compute_backends()
        assert table["Kitsune"]["feature"] == (
            backends.default_feature_backend()
        )
        assert table["Kitsune"]["ensemble"] == "batched-einsum"
        assert table["HELAD"]["feature"] == (
            backends.default_feature_backend()
        )
        assert table["HELAD"]["ensemble"] is None
        assert table["Slips"] == {"feature": None, "ensemble": None}


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
        assert "feature-engine" in out
        assert "vector-native" in out
        assert "batched-einsum" in out

    def test_backends_json_payload(self, tmp_path, capsys):
        out = tmp_path / "caps.json"
        assert main(["backends", "--json", str(out)]) == 0
        caps = json.loads(out.read_text())
        assert caps["cpu_count"] >= 1
        assert "feature-engine" in caps["components"]

    def test_stream_reports_resolved_feature_backend(self, tmp_path):
        native = _native.load_kernel() is not None
        backend = "vector-native" if native else "scalar"
        out = tmp_path / "report.json"
        code = main([
            "stream", "--ids", "kitsune", "--dataset", "mirai",
            "--scale", "0.03", "--feature-backend", backend,
            "--json", str(out), "--quiet",
        ])
        assert code == 0
        notes = json.loads(out.read_text())["notes"]
        assert notes["feature_backend"] == backend
        assert notes["ensemble_backend"] == "batched-einsum"

    def test_sharded_stream_reports_resolved_feature_backend(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "stream", "--ids", "kitsune", "--dataset", "mirai",
            "--scale", "0.03", "--feature-backend", "auto",
            "--workers", "1", "--checkpoint-every", "500",
            "--json", str(out), "--quiet",
        ])
        assert code == 0
        notes = json.loads(out.read_text())["notes"]
        assert notes["sharded"] is True
        assert notes["feature_backend"] == backends.resolve(
            backends.FEATURE_ENGINE, "auto"
        ).name
        assert notes["ensemble_backend"] == "batched-einsum"

    def test_stream_feature_backend_rejected_for_flow_ids(self, capsys):
        code = main([
            "stream", "--ids", "slips", "--dataset", "mirai",
            "--scale", "0.03", "--feature-backend", "scalar", "--quiet",
        ])
        assert code == 2
        assert "packet-level" in capsys.readouterr().err

    def test_stream_unavailable_backend_is_an_error(
        self, capsys, monkeypatch,
    ):
        if _native.load_kernel() is not None:
            monkeypatch.setattr(_native, "_cached_kernel", None)
            monkeypatch.setattr(
                _native, "_unavailable_reason", "forced off for test",
            )
        code = main([
            "stream", "--ids", "kitsune", "--dataset", "mirai",
            "--scale", "0.03", "--feature-backend", "vector-native",
            "--quiet",
        ])
        assert code == 2
        assert "unavailable" in capsys.readouterr().err

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
    def test_ingest_backends_always_available(self):
        names = [
            spec.name
            for spec in backends.available_backends(backends.INGEST)
        ]
        assert names == ["packet-objects", "columnar-mmap"]

    def test_auto_prefers_columnar(self):
        assert backends.resolve(backends.INGEST).name == "columnar-mmap"
        assert backends.default_ingest_backend() == "columnar-mmap"

    def test_explicit_names_resolve(self):
        for name in ("packet-objects", "columnar-mmap"):
            assert backends.resolve(backends.INGEST, name).name == name
