"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tables_defaults(self):
        args = build_parser().parse_args(["tables"])
        assert args.which == "all"

    def test_evaluate_rejects_unknown_ids(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "Zeek", "Mirai"])

    def test_table4_sweep_defaults(self):
        args = build_parser().parse_args(["table4-sweep"])
        assert args.seeds == 3
        assert args.seed == 0
        assert args.jobs == 1
        assert args.cache_max_mb is None

    def test_table4_sweep_rejects_zero_seeds(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table4-sweep", "--seeds", "0"])

    def test_cache_gc_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "gc"])

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_profile_defaults(self):
        args = vars(build_parser().parse_args(["profile"]))
        del args["func"]
        assert args == {
            "command": "profile", "dataset": "Mirai", "seed": 0,
            "scale": 0.2, "packets": None, "json": None,
        }


class TestCommands:
    def test_tables_prints_inventories(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Kitsune" in out
        assert "KDD-Cup99" in out

    def test_tables_single(self, capsys):
        assert main(["tables", "--which", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Table III" not in out

    def test_generate_with_pcap(self, capsys, tmp_path):
        path = tmp_path / "out.pcap"
        assert main(["generate", "Mirai", "--scale", "0.05",
                     "--output", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Mirai" in out
        assert path.exists()

    def test_generate_unknown_dataset(self):
        with pytest.raises(KeyError):
            main(["generate", "NoSuchSet"])

    def test_evaluate_cell(self, capsys):
        assert main(["evaluate", "Slips", "Mirai", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "threshold" in out

    def test_evaluate_unknown_dataset_errors(self, capsys):
        assert main(["evaluate", "Slips", "NoSuchSet"]) == 2
        assert "error" in capsys.readouterr().err

    def test_profile_packet_path(self, capsys, tmp_path):
        report = tmp_path / "profile.json"
        assert main(["profile", "--dataset", "mirai", "--scale", "0.03",
                     "--packets", "300", "--json", str(report)]) == 0
        out = capsys.readouterr().out
        stages = ["net.decode", "features.extract", "ml.train",
                  "ml.execute"]
        for stage in stages + ["total"]:
            assert stage in out
        import json

        payload = json.loads(report.read_text())
        assert payload["packets"] == 300
        assert [s["stage"] for s in payload["stages"]] == stages
        assert all(s["seconds"] > 0 for s in payload["stages"])
        assert payload["ensemble_backend"] == "batched-einsum"

    def test_profile_unknown_dataset_errors(self, capsys):
        assert main(["profile", "--dataset", "NoSuchSet"]) == 2
        assert "error" in capsys.readouterr().err

    def test_table4_restricted(self, capsys):
        assert main(["table4", "--scale", "0.05", "--ids", "Slips",
                     "--datasets", "Mirai"]) == 0
        out = capsys.readouterr().out
        assert "IDS: Slips" in out
        assert "Average:" in out

    def test_table4_sweep_renders_std_columns(self, capsys, tmp_path):
        argv = ["table4-sweep", "--seeds", "2", "--scale", "0.05",
                "--ids", "Slips", "--datasets", "Mirai",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "IDS: Slips" in out
        assert "±" in out
        assert "Average:" in out
        # Warm rerun: every cell is a whole-cell cache hit.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 whole-cell" in out

    def test_evaluate_single_seed_honours_cache_dir(self, capsys, tmp_path):
        argv = ["evaluate", "Slips", "Mirai", "--scale", "0.05",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "results").exists()  # cell was stored
        assert main(argv) == 0  # warm: served from the result cache
        assert capsys.readouterr().out == first

    def test_evaluate_multi_seed(self, capsys):
        assert main(["evaluate", "Slips", "Mirai", "--scale", "0.05",
                     "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "seed 0:" in out
        assert "seed 1:" in out
        assert "±" in out

    def test_cache_stats_and_gc(self, capsys, tmp_path):
        assert main(["table4-sweep", "--seeds", "2", "--scale", "0.05",
                     "--ids", "Slips", "--datasets", "Mirai",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "results" in out and "datasets" in out and "total" in out
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-mb", "0", "--datasets-max-mb", "0"]) == 0
        out = capsys.readouterr().out
        assert "results: removed" in out
        assert "datasets: removed" in out

    def test_cache_gc_without_budget_errors(self, capsys, tmp_path):
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 2
        assert "max-mb" in capsys.readouterr().err
