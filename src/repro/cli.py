"""Command-line interface for the reproduction pipeline.

Eight subcommands mirror the artefacts a user actually wants:

* ``repro-cli tables`` — print the static inventories (Tables I-III);
* ``repro-cli generate`` — synthesise a dataset and write it to pcap;
* ``repro-cli evaluate`` — run one IDS x dataset cell (optionally
  across several seeds) and print metrics;
* ``repro-cli table4`` — run the full (or restricted) Table IV matrix;
* ``repro-cli table4-sweep`` — run the matrix across N seeds (and
  optionally a scale grid) and print the mean±std view of every cell;
* ``repro-cli stream`` — run an IDS *online* over a live packet stream
  (synthetic dataset replay or a pcap file), with sliding-window
  metrics, alert episodes and a JSON report;
* ``repro-cli profile`` — time the live Kitsune packet path stage by
  stage (net.decode → features.extract → ml.train → ml.execute), with
  a JSON export;
* ``repro-cli cache`` — inspect (``stats``) or LRU-trim (``gc``) an
  on-disk cache directory.

Usage::

    python -m repro.cli table4 --scale 0.2 --ids DNN Slips
    python -m repro.cli table4-sweep --seeds 3 --scale 0.1 --jobs 2
    python -m repro.cli stream --ids kitsune --dataset mirai --window 10s

See ``docs/CLI.md`` for the full reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.core.report import render_table1, render_table2, render_table3

    which = args.which
    if which in ("1", "all"):
        print("Table I — IDSs investigated\n")
        print(render_table1())
        print()
    if which in ("2", "all"):
        print("Table II — datasets used\n")
        print(render_table2())
        print()
    if which in ("3", "all"):
        print("Table III — datasets excluded\n")
        print(render_table3())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import generate_dataset

    dataset = generate_dataset(args.dataset, seed=args.seed, scale=args.scale)
    print(f"{dataset.name}: {len(dataset)} packets, "
          f"{dataset.attack_prevalence:.1%} attack, "
          f"{dataset.duration:.0f}s")
    if args.output:
        count = dataset.to_pcap(args.output)
        print(f"wrote {count} packets to {args.output} "
              f"(labels are not part of the pcap format)")
    counts = dataset.attack_type_counts()
    for family, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"  {family:24s} {count:8d} packets")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core.experiment import EXPERIMENT_MATRIX, run_experiment

    key = (args.ids, args.dataset)
    if key not in EXPERIMENT_MATRIX:
        known = sorted({k[0] for k in EXPERIMENT_MATRIX})
        print(f"error: no experiment for {key}; IDSs: {', '.join(known)}",
              file=sys.stderr)
        return 2
    if args.seeds > 1:
        return _evaluate_sweep(args)
    config = replace(EXPERIMENT_MATRIX[key], seed=args.seed, scale=args.scale)
    if args.cache_dir is not None or args.jobs > 1:
        # Honour the engine knobs even for a single seed: a cached cell
        # is reused, a fresh one is stored for later runs.
        from repro.runner import ExperimentEngine
        from repro.runner.scheduling import plan_configs

        engine = ExperimentEngine(jobs=args.jobs, cache_dir=args.cache_dir)
        result = engine.run(plan_configs([config]))[key]
    else:
        result = run_experiment(config)
    m = result.metrics
    print(f"{args.ids} on {args.dataset} (seed={args.seed}, "
          f"scale={args.scale}):")
    print(f"  accuracy  {m.accuracy:.4f}")
    print(f"  precision {m.precision:.4f}")
    print(f"  recall    {m.recall:.4f}")
    print(f"  f1        {m.f1:.4f}")
    print(f"  threshold {result.threshold:.6f} "
          f"({config.threshold_strategy})")
    for key_, value in sorted(result.notes.items()):
        print(f"  note: {key_} = {value}")
    if args.json:
        _write_json(args.json, {
            "ids": args.ids, "dataset": args.dataset,
            "seed": args.seed, "scale": args.scale,
            "accuracy": m.accuracy, "precision": m.precision,
            "recall": m.recall, "f1": m.f1,
            "threshold": result.threshold,
        })
    return 0


def _evaluate_sweep(args: argparse.Namespace) -> int:
    """One Table IV cell across several seeds: per-seed rows + mean±std."""
    from repro.runner import ExperimentEngine
    from repro.runner.sweep import METRIC_NAMES, sweep_cell

    seeds = tuple(range(args.seed, args.seed + args.seeds))
    engine = ExperimentEngine(jobs=args.jobs, cache_dir=args.cache_dir)
    cell = sweep_cell(args.ids, args.dataset, seeds=seeds, scale=args.scale,
                      engine=engine)
    print(f"{args.ids} on {args.dataset} "
          f"(seeds {seeds[0]}..{seeds[-1]}, scale={args.scale}):")
    for seed, m in cell.per_seed():
        print(f"  seed {seed}: acc={m.accuracy:.4f} prec={m.precision:.4f} "
              f"rec={m.recall:.4f} f1={m.f1:.4f}")
    for metric in METRIC_NAMES:
        print(f"  {metric:9s} {cell.distribution(metric).format()}")
    if args.json:
        from repro.core.export import cell_sweep_to_dict

        payload = cell_sweep_to_dict(cell)
        payload["scale"] = args.scale
        _write_json(args.json, payload)
    return 0


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote JSON report to {path}")


def _cmd_table4(args: argparse.Namespace) -> int:
    from repro.core.experiment import DATASET_ORDER
    from repro.core.pipeline import IDSAnalysisPipeline
    from repro.core.report import render_shape_checks, render_table4
    from repro.runner import ExperimentEngine, ProgressReporter

    ids_names = tuple(args.ids)
    dataset_names = tuple(args.datasets or DATASET_ORDER)
    reporter = ProgressReporter(len(ids_names) * len(dataset_names))
    engine = ExperimentEngine(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        retries=args.retries,
        result_cache_bytes=_mb_to_bytes(args.cache_max_mb),
        progress=reporter.cell_done,
    )
    pipeline = IDSAnalysisPipeline(
        seed=args.seed,
        scale=args.scale,
        ids_names=ids_names,
        dataset_names=dataset_names,
        engine=engine,
    )
    pipeline.run_all(verbose=True)
    print()
    if pipeline.telemetry is not None:
        print(pipeline.telemetry.summary())
        print()
    print(render_table4(pipeline))
    if set(pipeline.ids_names) == {"Kitsune", "HELAD", "DNN", "Slips"} and (
        set(pipeline.dataset_names) == set(DATASET_ORDER)
    ):
        print()
        print(render_shape_checks(pipeline))
    return 0


def _cmd_table4_sweep(args: argparse.Namespace) -> int:
    from repro.core.experiment import DATASET_ORDER
    from repro.core.report import render_table4_sweep
    from repro.runner import ExperimentEngine, ProgressReporter
    from repro.runner.sweep import sweep_matrix, sweep_scale_grid

    ids_names = tuple(args.ids)
    dataset_names = tuple(args.datasets or DATASET_ORDER)
    seeds = tuple(range(args.seed, args.seed + args.seeds))
    scales = args.scales or [args.scale]
    reporter = ProgressReporter(
        len(ids_names) * len(dataset_names) * len(seeds) * len(scales)
    )
    engine = ExperimentEngine(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        retries=args.retries,
        result_cache_bytes=_mb_to_bytes(args.cache_max_mb),
        progress=reporter.cell_done,
    )
    if args.scales:
        sweeps = sweep_scale_grid(
            ids_names, dataset_names, seeds=seeds, scales=scales,
            engine=engine,
        )
    else:
        sweeps = [sweep_matrix(
            ids_names, dataset_names, seeds=seeds, scale=args.scale,
            engine=engine,
        )]
    print()
    if sweeps[-1].telemetry is not None:
        print(sweeps[-1].telemetry.summary())
    for sweep in sweeps:
        print()
        if len(sweeps) > 1:
            print(f"=== scale {sweep.scale} ===")
        print(render_table4_sweep(sweep))
    if args.json:
        from repro.core.export import sweep_to_dict

        if len(sweeps) == 1:
            _write_json(args.json, sweep_to_dict(sweeps[0]))
        else:
            _write_json(args.json, {
                "scales": [sweep_to_dict(sweep) for sweep in sweeps],
            })
    return 0


def _parse_duration(value: str) -> float:
    """A duration like ``10s``, ``2m``, ``0.5h`` or plain seconds."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0}
    factor = units.get(value[-1:].lower())
    digits = value[:-1] if factor else value
    try:
        seconds = float(digits) * (factor or 1.0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid duration {value!r} (use e.g. 10s, 2m, 0.5h)"
        ) from None
    if seconds <= 0:
        raise argparse.ArgumentTypeError("duration must be positive")
    return seconds


def _parse_scales(value: str) -> list[float]:
    """A comma-separated scale grid: ``0.1,0.5,1.0``."""
    try:
        scales = [float(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid scale list {value!r} (use e.g. 0.1,0.5,1.0)"
        ) from None
    if not scales or any(scale <= 0 for scale in scales):
        raise argparse.ArgumentTypeError("scales must be positive floats")
    return scales


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.stream import (
        DatasetSource,
        PcapReplaySource,
        build_streaming_detector,
        canonical_ids_name,
        stream_capture,
        stream_capture_sharded,
        stream_experiment,
    )

    try:
        ids_name = canonical_ids_name(args.ids)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def live_window(snapshot) -> None:
        if not args.quiet:
            print(snapshot.describe())

    sharded = args.workers is not None

    exporter = None
    if args.metrics_out:
        from repro import obs

        exporter = obs.SnapshotExporter(
            args.metrics_out,
            interval_seconds=args.metrics_interval,
            source="stream-sharded" if sharded else "stream",
        )

    def run_sharded(source, detector, threshold, warmup_packets):
        return stream_capture_sharded(
            source,
            detector,
            workers=args.workers,
            warmup_packets=warmup_packets,
            threshold=threshold,
            window_seconds=args.window,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            pace=args.pace,
            on_window=live_window,
            exporter=exporter,
        )

    if args.pcap:
        if args.threshold is None:
            print("error: --pcap streams are unlabelled; pass an explicit "
                  "--threshold", file=sys.stderr)
            return 2
        train_packets = (args.train_packets
                         if args.train_packets is not None else 1000)
        detector = build_streaming_detector(
            ids_name, seed=args.seed, batch_size=args.batch,
            schema=args.schema, labelled=False,
            warmup_packets=train_packets,
        )
        try:
            if sharded:
                report = run_sharded(PcapReplaySource(args.pcap), detector,
                                     args.threshold, train_packets)
            else:
                report = stream_capture(
                    PcapReplaySource(args.pcap),
                    detector,
                    warmup_packets=train_packets,
                    threshold=args.threshold,
                    window_seconds=args.window,
                    on_window=live_window,
                    exporter=exporter,
                )
        except ValueError as error:
            # e.g. a supervised IDS over an unlabelled capture, or a
            # flow IDS in sharded mode.
            print(f"error: {error}", file=sys.stderr)
            return 2
    elif sharded:
        # Sharded mode streams the labelled synthetic replay through
        # the live capture path (train-on-prefix), like pcap mode but
        # with ground truth for metrics and post-hoc thresholds.
        from repro.datasets.registry import canonical_dataset_name

        try:
            dataset_name = canonical_dataset_name(args.dataset)
        except KeyError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        source = DatasetSource(dataset_name, seed=args.seed,
                               scale=args.scale)
        if args.train_packets is not None:
            train_packets = args.train_packets
        else:
            # Mirror the batch split's arithmetic (train_fraction of
            # the stream, capped like max_train_packets) so small
            # scales still leave a test stream to score.
            from repro.core.experiment import ExperimentConfig

            defaults = ExperimentConfig(ids_name=ids_name,
                                        dataset_name=dataset_name)
            n_packets = len(source.dataset.packets)
            train_packets = int(n_packets * defaults.train_fraction)
            # Kitsune's minimum combined grace is 200 packets; give the
            # warmup at least that when the stream affords it.
            train_packets = max(train_packets, min(200, n_packets // 2))
            if defaults.max_train_packets:
                train_packets = min(train_packets,
                                    defaults.max_train_packets)
        detector = build_streaming_detector(
            ids_name, seed=args.seed, batch_size=args.batch,
            schema=args.schema, labelled=True,
            warmup_packets=train_packets,
        )
        try:
            report = run_sharded(source, detector, args.threshold,
                                 train_packets)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        from repro.core.experiment import EXPERIMENT_MATRIX, ExperimentConfig
        from repro.datasets.registry import canonical_dataset_name

        try:
            dataset_name = canonical_dataset_name(args.dataset)
        except KeyError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        base = EXPERIMENT_MATRIX.get((ids_name, dataset_name))
        if base is None:
            # Off-matrix pairing: evaluate with the config defaults.
            base = ExperimentConfig(ids_name=ids_name, dataset_name=dataset_name)
        config = replace(base, seed=args.seed, scale=args.scale,
                         schema=args.schema)
        report = stream_experiment(
            config,
            batch_size=args.batch,
            window_seconds=args.window,
            threshold=args.threshold,
            on_window=live_window,
            exporter=exporter,
        )
    if exporter is not None:
        exporter.close()
    print()
    print(report.render_summary())
    if exporter is not None:
        print(f"obs: metric snapshots written to {exporter.path}")
    if args.json:
        _write_json(args.json, report.to_dict())
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro import obs

    if len(args.files) > 2:
        print("error: obs-report takes one file (render) or two (diff)",
              file=sys.stderr)
        return 2
    try:
        loaded = [obs.read_snapshots(path) for path in args.files]
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for path, snapshots in zip(args.files, loaded):
        if not snapshots:
            print(f"error: {path}: no snapshots", file=sys.stderr)
            return 2
    if len(loaded) == 2:
        print(obs.diff_snapshots(loaded[0][-1], loaded[1][-1]))
        return 0
    snapshots = loaded[0] if args.all else [loaded[0][-1]]
    render = obs.render_prometheus if args.prom else obs.render_snapshot
    for i, snapshot in enumerate(snapshots):
        if i:
            print()
        print(render(snapshot))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.profiling import profile_packet_path
    from repro.datasets.registry import canonical_dataset_name

    try:
        dataset_name = canonical_dataset_name(args.dataset)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    profile = profile_packet_path(
        dataset_name,
        seed=args.seed,
        scale=args.scale,
        max_packets=args.packets,
    )
    print(profile.render())
    if args.json:
        _write_json(args.json, profile.to_dict())
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro.features import _native
    from repro.features.netstat import NetStat

    caps = {
        "cpu_count": os.cpu_count() or 1,
        "native_kernel": _native.load_kernel() is not None,
        "native_kernel_reason": _native.unavailable_reason(),
        "feature_backend": NetStat().backend,
    }
    native = "available" if caps["native_kernel"] else "unavailable"
    if caps["native_kernel_reason"]:
        native += f" ({caps['native_kernel_reason']})"
    print(f"host: {caps['cpu_count']} cpu(s); native kernel {native}")
    print(f"feature engine: {caps['feature_backend']} "
          "(REPRO_DISABLE_NATIVE=1 runs the scalar engine)")
    if args.json:
        _write_json(args.json, caps)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runner import cache_dir_stats, gc_cache_dir

    if args.cache_command == "stats":
        stats = cache_dir_stats(args.cache_dir)
        total_files = total_bytes = 0
        for namespace, (files, size) in sorted(stats.items()):
            print(f"{namespace:9s} {files:6d} entries  {size / 1e6:10.2f} MB")
            total_files += files
            total_bytes += size
        print(f"{'total':9s} {total_files:6d} entries  "
              f"{total_bytes / 1e6:10.2f} MB")
        return 0
    # gc: LRU-trim the results namespace (and optionally datasets).
    reports = gc_cache_dir(
        args.cache_dir,
        max_result_bytes=_mb_to_bytes(args.max_mb),
        max_dataset_bytes=_mb_to_bytes(args.datasets_max_mb),
    )
    if not reports:
        print("nothing to do: pass --max-mb and/or --datasets-max-mb",
              file=sys.stderr)
        return 2
    for report in reports:
        print(report.describe())
    return 0


def _mb_to_bytes(mb: float | None) -> int | None:
    return None if mb is None else int(mb * 1_000_000)


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _non_negative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


def _non_negative_float(value: str) -> float:
    parsed = float(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


def _positive_float(value: str) -> float:
    parsed = float(value)
    if not parsed > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {parsed}")
    return parsed


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """The execution-engine knobs every matrix-running command shares."""
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for cell dispatch (default 1)")
    parser.add_argument("--cache-dir",
                        help="on-disk cache for datasets and finished cells; "
                             "use a fresh directory after code changes")
    parser.add_argument("--retries", type=_non_negative_int, default=0,
                        help="extra attempts per failing cell")
    parser.add_argument("--cache-max-mb", type=_non_negative_float,
                        help="LRU byte budget for the on-disk result cache, "
                             "enforced after every stored cell")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="Reproduction pipeline for 'Expectations Versus "
                    "Reality' (DSN 2025).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="print Tables I-III")
    p_tables.add_argument("--which", choices=("1", "2", "3", "all"),
                          default="all")
    p_tables.set_defaults(func=_cmd_tables)

    p_gen = sub.add_parser("generate", help="synthesise a dataset")
    p_gen.add_argument("dataset")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--scale", type=float, default=0.1)
    p_gen.add_argument("--output", help="pcap output path")
    p_gen.set_defaults(func=_cmd_generate)

    p_eval = sub.add_parser("evaluate", help="run one Table IV cell")
    p_eval.add_argument("ids", choices=("Kitsune", "HELAD", "DNN", "Slips"))
    p_eval.add_argument("dataset")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--scale", type=float, default=0.2)
    p_eval.add_argument("--seeds", type=_positive_int, default=1,
                        help="sweep N consecutive seeds starting at --seed "
                             "and report mean±std (default 1: single run)")
    p_eval.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for a multi-seed sweep")
    p_eval.add_argument("--cache-dir",
                        help="on-disk cache reused across sweep runs")
    p_eval.add_argument("--json",
                        help="write the result (or the multi-seed sweep "
                             "distributions) to this path as JSON")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_t4 = sub.add_parser("table4", help="run the Table IV matrix")
    p_t4.add_argument("--seed", type=int, default=0)
    p_t4.add_argument("--scale", type=float, default=0.35)
    p_t4.add_argument("--ids", nargs="+",
                      default=["Kitsune", "HELAD", "DNN", "Slips"])
    p_t4.add_argument("--datasets", nargs="+")
    _add_engine_args(p_t4)
    p_t4.set_defaults(func=_cmd_table4)

    p_sweep = sub.add_parser(
        "table4-sweep",
        help="run the Table IV matrix across N seeds; report mean±std",
    )
    p_sweep.add_argument("--seed", type=int, default=0,
                         help="first seed of the sweep (default 0)")
    p_sweep.add_argument("--seeds", type=_positive_int, default=3,
                         help="number of consecutive seeds (default 3)")
    p_sweep.add_argument("--scale", type=float, default=0.35)
    p_sweep.add_argument("--ids", nargs="+",
                         default=["Kitsune", "HELAD", "DNN", "Slips"])
    p_sweep.add_argument("--datasets", nargs="+")
    p_sweep.add_argument("--scales", type=_parse_scales,
                         help="comma-separated scale grid (e.g. "
                              "0.1,0.5,1.0); renders one mean±std table "
                              "per scale and overrides --scale")
    p_sweep.add_argument("--json",
                         help="write the sweep distributions to this "
                              "path as JSON (a list of per-scale sweeps "
                              "when --scales is given)")
    _add_engine_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_table4_sweep)

    p_stream = sub.add_parser(
        "stream",
        help="run an IDS online over a live packet stream",
    )
    p_stream.add_argument("--ids", default="Kitsune",
                          help="IDS to run (case-insensitive: kitsune, "
                               "helad, dnn, slips)")
    p_stream.add_argument("--dataset", default="Mirai",
                          help="synthetic dataset to replay "
                               "(case-insensitive)")
    p_stream.add_argument("--pcap",
                          help="replay a capture file instead of a "
                               "synthetic dataset, decoded through mmap "
                               "(unlabelled: requires --threshold)")
    p_stream.add_argument("--seed", type=int, default=0)
    p_stream.add_argument("--scale", type=float, default=0.2,
                          help="dataset generation scale (dataset mode)")
    p_stream.add_argument("--window", type=_parse_duration, default=10.0,
                          help="metrics window width (e.g. 10s, 2m; "
                               "default 10s)")
    p_stream.add_argument("--batch", type=_positive_int, default=256,
                          help="micro-batch size for online scoring "
                               "(a pure throughput knob: scores are "
                               "bit-identical at any batch size; "
                               "packet IDSs score each micro-batch in "
                               "one score_batch call, flow IDSs in one "
                               "feature-matrix call)")
    p_stream.add_argument("--threshold", type=float,
                          help="fixed alert threshold; default derives "
                               "the batch pipeline's standardized "
                               "threshold post hoc (dataset mode only)")
    p_stream.add_argument("--train-packets", type=_non_negative_int,
                          default=None,
                          help="warmup prefix length for the live-capture "
                               "paths (pcap, or dataset with --workers). "
                               "Default: 1000 in pcap mode; in sharded "
                               "dataset mode the batch split's fraction "
                               "of the stream, so small scales still "
                               "leave packets to score")
    p_stream.add_argument("--schema", choices=("netflow", "cicflow"),
                          default="netflow",
                          help="flow feature schema for flow-level IDSs")
    p_stream.add_argument("--workers", type=_positive_int,
                          help="shard the stream across N detector worker "
                               "processes (flow-consistent channel "
                               "sharding, merged order-stable sink; "
                               "packet IDSs only). With --pcap, "
                               "--workers 1 is bit-identical to the "
                               "in-process path; in dataset mode it "
                               "streams the raw dataset, warming up on "
                               "its first --train-packets, not the "
                               "adapted batch-parity cell")
    p_stream.add_argument("--checkpoint-every", type=_positive_int,
                          default=5000,
                          help="sharded mode: checkpoint each worker's "
                               "live detector every N shard packets "
                               "(crash-resume granularity; default 5000)")
    p_stream.add_argument("--checkpoint-dir",
                          help="sharded mode: keep checkpoints under this "
                               "directory (default: scratch dir, removed "
                               "after a clean run)")
    p_stream.add_argument("--pace", type=_positive_float,
                          help="sharded mode: replay at this multiple of "
                               "capture time (1.0 = wall-clock pacing; "
                               "default: as fast as possible)")
    p_stream.add_argument("--metrics-out",
                          help="export periodic obs metric snapshots to "
                               "this JSONL file (enables the obs layer "
                               "for the run; inspect with repro-cli "
                               "obs-report)")
    p_stream.add_argument("--metrics-interval", type=_parse_duration,
                          default=5.0,
                          help="minimum time between metric snapshots "
                               "(e.g. 2s, 1m; default 5s). A final "
                               "snapshot is always written at end of "
                               "run")
    p_stream.add_argument("--json", help="write the stream report to "
                                         "this path as JSON")
    p_stream.add_argument("--quiet", action="store_true",
                          help="suppress per-window live output")
    p_stream.set_defaults(func=_cmd_stream)

    p_profile = sub.add_parser(
        "profile",
        help="time the live Kitsune packet path stage by stage "
             "(net.decode, features.extract, ml.train, ml.execute)",
    )
    p_profile.add_argument("--dataset", default="Mirai",
                           help="synthetic dataset to replay "
                                "(case-insensitive)")
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument("--scale", type=float, default=0.2,
                           help="dataset generation scale (default 0.2)")
    p_profile.add_argument("--packets", type=_positive_int,
                           help="cap the replay at this many packets")
    p_profile.add_argument("--json", help="write the profile to this "
                                          "path as JSON")
    p_profile.set_defaults(func=_cmd_profile)

    p_backends = sub.add_parser(
        "backends",
        help="report what this host decides: CPU count, whether the "
             "native AfterImage kernel loads, and the feature engine "
             "that runs",
    )
    p_backends.add_argument("--json",
                            help="write the capability report to this "
                                 "path as JSON")
    p_backends.set_defaults(func=_cmd_backends)

    p_obs = sub.add_parser(
        "obs-report",
        help="pretty-print or diff obs metric snapshot files "
             "(the JSONL written by stream --metrics-out)",
    )
    p_obs.add_argument("files", nargs="+",
                       help="one snapshot file to render (the last "
                            "snapshot by default), or two files to "
                            "diff (last snapshot of each)")
    p_obs.add_argument("--all", action="store_true",
                       help="render every snapshot in the file, not "
                            "just the last one")
    p_obs.add_argument("--prom", action="store_true",
                       help="emit Prometheus text exposition instead "
                            "of the human-readable report")
    p_obs.set_defaults(func=_cmd_obs_report)

    p_cache = sub.add_parser("cache",
                             help="inspect or trim an on-disk cache")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_stats = cache_sub.add_parser("stats", help="per-namespace entry "
                                                 "counts and sizes")
    p_stats.add_argument("--cache-dir", required=True)
    p_stats.set_defaults(func=_cmd_cache)
    p_gc = cache_sub.add_parser(
        "gc", help="LRU-evict entries down to a byte budget")
    p_gc.add_argument("--cache-dir", required=True)
    p_gc.add_argument("--max-mb", type=_non_negative_float,
                      help="byte budget for the results namespace (MB)")
    p_gc.add_argument("--datasets-max-mb", type=_non_negative_float,
                      help="byte budget for the datasets namespace (MB)")
    p_gc.set_defaults(func=_cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
