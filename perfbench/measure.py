"""Timed runs of one benchmark workload, in a fresh process.

Reads the plan :mod:`inputs` wrote, repeats the workload's unit of
work for about ``--seconds`` seconds, checks every output against the
plan's references, and prints one JSON result as its last line.
Timings are scaled to reference-host seconds by the reference work of
:mod:`hostspeed`, run between the phases of every pass.
With ``--trace 1`` it instead makes one pass with tracing off and one
traced pass, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import inputs
from hostspeed import HostSpeed
from tracing import (
    PER_LAYER,
    FlowShare,
    Span,
    Tracer,
    layer_metrics,
    self_times,
)

#: Passes every timed run makes, however long each takes: enough for a
#: median, few enough that a ~10 s Table IV pass keeps runs short.
MIN_PASSES = {"live-mirai": 3, "sharded-cicids": 3, "table4-iot": 2}

#: Per-pass figures the run describes on the line before its result.
PASS_FIELDS = ("setup_s", "capture_s", "session_s", "capture_pps",
               "setup_raw_s", "capture_raw_s", "session_raw_s")
#: Stamps and counts a pass records besides its checks.
PASS_STAMPS = ("started", "built", "warm", "fits", "end", "items")

END_TO_END_UNITS = {
    "capture_pps": "1/s",
    "setup_s": "s",
    "table4_s": "s",
    "peak_rss_mb": "MB",
}


# -- spans ------------------------------------------------------------------

def install_probes(tracer: Tracer, workload: str,
                   host: HostSpeed | None = None) -> None:
    """The few spans an untraced run needs for its own metrics: the
    live warmup (set-up time, start of capture) and each IDS fit.
    With ``host``, a pass samples the host's speed at its boundaries:
    a live session after its warmup, Table IV after every cell."""
    import repro.runner.engine as engine
    from repro.stream.detector import PacketStreamDetector

    between = None if host is None else lambda *_call: host.sample()
    if workload in inputs.LIVE:
        tracer.wrap(PacketStreamDetector, "warmup", "stream.warmup",
                    after=between)
    else:
        _wrap_ids(tracer, fit=True, score=False)
        if between is not None:
            tracer.wrap(engine, "run_experiment", "runner.cell",
                        after=between)


def _wrap_ids(tracer: Tracer, *, fit: bool, score: bool) -> None:
    from repro.ids.dnn.dnn import DNNClassifierIDS
    from repro.ids.helad.helad import HELAD
    from repro.ids.kitsune.kitsune import Kitsune
    from repro.ids.slips.slips import SlipsIDS

    for cls, scoring in ((Kitsune, "score_batch"), (HELAD, "score_batch"),
                         (DNNClassifierIDS, "anomaly_scores"),
                         (SlipsIDS, "anomaly_scores")):
        def attrs(args, name=cls.name):
            return {"ids": name}

        if fit:
            tracer.wrap(cls, "fit", "ids.fit", attrs=attrs)
        if score:
            tracer.wrap(cls, scoring, "ids.score", attrs=attrs)


def install_layers(tracer: Tracer, workload: str, flows: FlowShare,
                   worker_dir: Path) -> None:
    """Spans at every layer boundary the workload crosses."""
    import repro.core.experiment as experiment
    import repro.datasets.registry as registry
    import repro.stream.sharded as sharded
    from repro.features.netstat import NetStat
    from repro.flows.assembler import FlowAssembler
    from repro.ids.kitsune.kitnet import KitNET
    from repro.net.columnar import ColumnarPcapReader, ColumnBatch
    from repro.stream.detector import PacketStreamDetector

    install_probes(tracer, workload)

    def decoded(span, batch) -> None:
        span.attrs["batches"] = 1

    def extracted(span, args, result) -> None:
        span.attrs["rows"] = len(result)
        batch = args[1]
        if not isinstance(batch, ColumnBatch):
            batch = ColumnBatch.from_packets(batch)
        flows.add(batch.flow_table()[1], len(batch))

    tracer.wrap_iter(ColumnarPcapReader, "__iter__", "net.decode",
                     after=decoded)
    tracer.wrap(NetStat, "extract_all", "features.extract", after=extracted)
    tracer.wrap(NetStat, "update", "features.extract",
                after=lambda span, args, result: span.attrs.update(rows=1))
    tracer.wrap(KitNET, "process_batch", "ml.process_batch",
                attrs=lambda args: {"rows": len(args[1])})
    # The probes already span every fit on table4-iot.
    _wrap_ids(tracer, fit=workload in inputs.LIVE, score=True)
    tracer.wrap(PacketStreamDetector, "process_columns",
                "stream.process_columns")
    tracer.wrap(PacketStreamDetector, "finish", "stream.finish")
    tracer.wrap(sharded, "shard_ids_for_batch", "shard.dispatch")
    tracer.wrap(ColumnBatch, "take", "shard.dispatch")
    tracer.wrap(FlowAssembler, "assemble", "flows.assemble",
                after=lambda span, args, result: span.attrs.update(
                    flows=len(result)))
    tracer.wrap(registry, "generate_dataset_uncached", "datasets.generate",
                after=lambda span, args, result: span.attrs.update(
                    packets=len(result.packets)))
    tracer.wrap(experiment, "prepare_packet_experiment", "core.adapt")
    tracer.wrap(experiment, "prepare_flow_experiment", "core.adapt")
    tracer.wrap(experiment, "standard_threshold", "core.threshold")

    original_worker = sharded._worker_main

    def traced_worker(*args, **kwargs):
        # Forked shard worker: record its own spans and flow keys, and
        # hand them back through a file read after the run.
        tracer.fork_child()
        flows.seen, flows.rows = set(), 0
        try:
            return original_worker(*args, **kwargs)
        finally:
            (worker_dir / f"worker-{os.getpid()}.json").write_text(
                json.dumps({"spans": tracer.to_list(),
                            "flow_keys": list(flows.seen),
                            "flow_rows": flows.rows}))

    tracer.patch(sharded, "_worker_main", traced_worker)


# -- live workloads ---------------------------------------------------------

def live_pass(plan: dict, tracer: Tracer) -> dict:
    """One session: build, warm up, capture; its stamps and checks."""
    from repro.stream import PcapReplaySource, stream_capture
    from repro.stream.sharded import stream_capture_sharded

    reference = plan["reference"]
    source = PcapReplaySource(inputs.ROOT / plan["input"]["pcap"])
    sharded = plan["workload"] == "sharded-cicids"
    started = time.perf_counter()
    detector = inputs.build_detector(plan["seed"])
    built = time.perf_counter()
    with tracer.span("stream.capture") as capture:
        common = dict(warmup_packets=inputs.WARMUP_PACKETS,
                      threshold=reference["threshold"],
                      ingest_backend=inputs.INGEST_BACKEND)
        if sharded:
            report = stream_capture_sharded(source, detector, workers=1,
                                            **common)
        else:
            report = stream_capture(source, detector, **common)
    warm = [s for s in tracer.spans if s.name == "stream.warmup"][-1]
    notes = report.notes
    problems = []
    if report.n_scored != reference["scored"]:
        problems.append(f"scored {report.n_scored} packets, "
                        f"expected {reference['scored']}")
    if notes["coverage_digest"] != reference["coverage_digest"]:
        problems.append("coverage digest differs from the capture's")
    if not np.isfinite(report.scores).all():
        problems.append("non-finite scores")
    score_digest = notes["merged_score_digest" if sharded else "score_digest"]
    if score_digest != reference["score_digest"]:
        problems.append("score digest differs from the packet-objects "
                        "reference")
    for key, expected in (("feature_backend", inputs.FEATURE_BACKEND),
                          ("ensemble_backend", inputs.ENSEMBLE_BACKEND),
                          ("ingest_backend", inputs.INGEST_BACKEND)):
        if notes.get(key) != expected:
            problems.append(f"{key} resolved to {notes.get(key)!r}")
    return {
        "attempted": reference["scored"],
        "scored": report.n_scored,
        "items": report.n_scored,
        "problems": problems,
        "started": started,
        "built": built,
        "warm": (warm.start, warm.end),
        "end": capture.end,
        "report": report,
    }


def live_layers(spans: list, result: dict) -> dict:
    metrics = layer_metrics(spans)
    report = result["report"]
    capture = [s for s in spans if s.name == "stream.capture"][-1]
    finished = max(s.end for s in spans if s.name == "stream.finish")
    metrics["stream.post_s"] = capture.end - finished
    metrics["stream.scores"] = report.n_scored
    workers = report.notes.get("workers")
    if workers:
        busy = sum(w["busy_seconds"] for w in workers)
        metrics["shard.worker_busy_s"] = busy
        metrics["shard.worker_idle_frac"] = (
            1.0 - busy / (len(workers) * result["capture_s"]))
        metrics["shard.checkpoints"] = sum(
            w["checkpoints_written"] for w in workers)
        metrics["shard.send_stalls"] = report.notes["send_stalls"]
        metrics["shard.retained_peak"] = max(
            w["retained_peak"] for w in workers)
    return metrics


# -- table4-iot -------------------------------------------------------------

def table4_pass(plan: dict, tracer: Tracer) -> dict:
    """One serial Table IV IoT matrix; its stamps, checks on every cell."""
    from repro.runner.engine import ExperimentEngine

    reference = plan["reference"]["cells"]
    engine = ExperimentEngine(jobs=1, cache_dir=None)
    first_span = len(tracer.spans)
    started = time.perf_counter()
    results = engine.run_matrix(inputs.TABLE4_IDS, inputs.TABLE4_DATASETS,
                                seed=plan["seed"], scale=inputs.TABLE4_SCALE)
    ended = time.perf_counter()
    problems = []
    for (ids, dataset), result in results.items():
        expected = reference[f"{ids}/{dataset}"]
        if result.metrics.f1 != expected["f1"]:
            problems.append(f"{ids}/{dataset}: F1 {result.metrics.f1} != "
                            f"{expected['f1']}")
        if inputs.digest(result.scores) != expected["score_digest"]:
            problems.append(f"{ids}/{dataset}: score digest differs")
        if not np.isfinite(result.scores).all():
            problems.append(f"{ids}/{dataset}: non-finite scores")
        if ids in ("Kitsune", "HELAD"):
            backend = result.notes.get("feature_backend")
            if backend != inputs.FEATURE_BACKEND:
                problems.append(f"{ids}/{dataset}: feature backend "
                                f"{backend!r}")
        if ids == "Kitsune":
            backend = result.notes.get("ensemble_backend")
            if backend != inputs.ENSEMBLE_BACKEND:
                problems.append(f"{ids}/{dataset}: ensemble backend "
                                f"{backend!r}")
    missing = set(reference) - {f"{i}/{d}" for i, d in results}
    problems.extend(f"{cell}: no result" for cell in sorted(missing))
    fits = [s for s in tracer.spans[first_span:] if s.name == "ids.fit"]
    scored = sum(int(r.scores.size) for r in results.values())
    return {
        "attempted": len(reference),
        "scored": len(results),
        "items": scored,
        "problems": problems,
        "started": started,
        "fits": [(s.start, s.end) for s in fits],
        "end": ended,
        "telemetry": engine.last_telemetry,
    }


def table4_layers(spans: list, result: dict) -> dict:
    metrics = layer_metrics(spans)
    cells = result["telemetry"].cells
    metrics["runner.cells"] = len(cells)
    metrics["runner.cells_failed"] = sum(c.status == "failed" for c in cells)
    metrics["runner.retries"] = sum(max(0, c.attempts - 1) for c in cells)
    metrics["runner.overhead_s"] = result["session_s"] - sum(
        c.wall_seconds for c in cells)
    return metrics


# -- entry point ------------------------------------------------------------

def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _one_pass(plan: dict, tracer: Tracer) -> dict:
    run = table4_pass if plan["workload"] == "table4-iot" else live_pass
    try:
        return run(plan, tracer)
    finally:
        tracer.restore()


def _elapsed(start: float, end: float) -> float:
    return end - start


def phase_times(result: dict, duration=_elapsed) -> dict:
    """A pass's set-up, capture and session times and capture rate,
    each interval measured by ``duration(start, end)``.

    Live: set-up is the detector build plus the warmup, the capture
    runs from the end of the warmup to the return of the capture call,
    and the session from the build to that return. Table IV: set-up is
    the sum of the cells' fits; capture and session are the matrix.
    """
    if "warm" in result:
        warm_start, warm_end = result["warm"]
        setup = (duration(result["started"], result["built"])
                 + duration(warm_start, warm_end))
        capture = duration(warm_end, result["end"])
    else:
        setup = sum(duration(start, end) for start, end in result["fits"])
        capture = duration(result["started"], result["end"])
    return {
        "setup_s": setup,
        "capture_s": capture,
        "session_s": duration(result["started"], result["end"]),
        "capture_pps": result["items"] / capture,
    }


def timed_passes(plan: dict, seconds: float
                 ) -> tuple[list[dict], float, list[float]]:
    """The workload's :data:`MIN_PASSES`, then more while another
    still fits in ``seconds``; also the peak RSS of the first pass and
    the seconds of every host-speed sample.

    Each pass reports its times in reference-host seconds, and the
    same times unscaled with a ``_raw`` suffix. The first pass is what
    one session in a fresh process costs. Later passes repeat it and
    would only add the allocator's drift to the process peak, so the
    memory metric is read after the first.
    """
    passes = []
    peak_rss_mb = 0.0
    host = HostSpeed()
    started = time.perf_counter()
    host.sample()
    while True:
        tracer = Tracer()
        install_probes(tracer, plan["workload"], host)
        result = _one_pass(plan, tracer)
        if not passes:
            peak_rss_mb = _peak_rss_mb()
        host.sample()
        raw = phase_times(result, host.raw)
        result.update(phase_times(result, host.scaled))
        result.update({f"{key[:-2]}_raw_s": raw[key]
                       for key in ("setup_s", "capture_s", "session_s")})
        for key in ("report", "telemetry", *PASS_STAMPS):
            result.pop(key, None)
        passes.append(result)
        elapsed = time.perf_counter() - started
        if (len(passes) >= MIN_PASSES[plan["workload"]]
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            return passes, peak_rss_mb, host.seconds()


def traced_passes(plan: dict) -> tuple[list[dict], dict, list]:
    """One pass with probes only, then one fully traced pass."""
    workload = plan["workload"]
    tracer = Tracer()
    install_probes(tracer, workload)
    plain = _one_pass(plan, tracer)
    plain.update(phase_times(plain))
    worker_dir = inputs.CACHE / "traces" / f"workers-{os.getpid()}"
    worker_dir.mkdir(parents=True, exist_ok=True)
    flows = FlowShare()
    tracer = Tracer()
    install_layers(tracer, workload, flows, worker_dir)
    traced = _one_pass(plan, tracer)
    traced.update(phase_times(traced))
    spans = list(tracer.spans)
    for path in sorted(worker_dir.glob("worker-*.json")):
        worker = json.loads(path.read_text())
        spans.extend(Span.from_dict(item) for item in worker["spans"])
        flows.add(map(tuple, worker["flow_keys"]), worker["flow_rows"])
    shutil.rmtree(worker_dir)
    if workload == "table4-iot":
        metrics = table4_layers(spans, traced)
    else:
        metrics = live_layers(spans, traced)
    # Same work on both passes: the time ratio is the rate ratio.
    overhead = traced["capture_s"] / plain["capture_s"] - 1.0
    metrics["features.new_flow_frac"] = flows.fraction
    metrics["trace.overhead_frac"] = overhead
    return [plain, traced], metrics, spans


def _span_summary(spans: list) -> dict:
    """Calls, total and self seconds per span name: where time went."""
    own = self_times(spans)
    summary: dict = {}
    for span in spans:
        row = summary.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own[span.id]
    return summary


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    plan = json.loads(args.plan.read_text())

    from repro.features import _native

    # Loads the kernel compiled while inputs were prepared; no timed
    # pass pays a compile.
    if _native.load_kernel() is None:
        raise SystemExit("native AfterImage kernel unavailable")
    # Imports stay out of the timed passes.
    import repro.runner.engine  # noqa: F401
    import repro.stream.sharded  # noqa: F401
    from repro.ids.registry import evaluated_ids_factories

    evaluated_ids_factories()

    samples: list[float] = []
    if args.trace:
        passes, layers, spans = traced_passes(plan)
        metrics = {name: _metric(layers[name], unit)
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        passes, peak_rss_mb, samples = timed_passes(plan, args.seconds)
        median = {
            key: statistics.median(p[key] for p in passes)
            for key in ("capture_pps", "setup_s", "session_s")
        }
        values = {
            "capture_pps": median["capture_pps"],
            "setup_s": median["setup_s"],
            "table4_s": median["session_s"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: _metric(values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
    problems = [text for p in passes for text in p["problems"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = (attempted if problems
              else sum(p["attempted"] - p["scored"] for p in passes))
    info = {
        "workload": plan["workload"],
        "seed": plan["seed"],
        "input": plan["input"],
        "passes": [{key: p[key] for key in PASS_FIELDS if key in p}
                   for p in passes],
        "host_reference_s": samples,
        "problems": problems,
    }
    if args.trace:
        info["per_layer"] = {name: m["value"] for name, m in metrics.items()}
        info["spans"] = _span_summary(spans)
        stem = inputs.CACHE / "traces" / f"{plan['workload']}-seed{plan['seed']}"
        stem.with_name(f"{stem.name}.json").write_text(
            json.dumps(info, indent=1, sort_keys=True))
        stem.with_name(f"{stem.name}.spans.json").write_text(
            json.dumps([span.to_dict() for span in spans]))
    for text in problems:
        print(f"check failed: {text}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True, default=str))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
