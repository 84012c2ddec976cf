"""Run one workload of the RDF-OLAP benchmark and print its result.

Usage (from the root of a checkout)::

    python3 olapbench/run.py --workload navigate --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
(from a run with every layer entry point wrapped).  Each run also appends a
full record (both metric sets, provenance, counts) to ``--record``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (name, unit, better) of every end-to-end metric, reported by every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cold_answer_ms", "ms", "lower"),
    ("ops_per_s", "op/s", "higher"),
    ("read_ms_p50", "ms", "lower"),
    ("read_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric, reported by every workload.
PER_LAYER = (
    ("rdf.statistics.refresh_ms", "ms/op", "lower"),
    ("rdf.statistics.refreshes", "count", "lower"),
    ("rdf.statistics.sync_refreshes", "count", "lower"),
    ("rdf.graph.mutations", "count", "higher"),
    ("bgp.solve_ms", "ms/op", "lower"),
    ("bgp.solves", "count", "lower"),
    ("bgp.index_refresh_ms", "ms/op", "lower"),
    ("bgp.index_drops", "count", "lower"),
    ("analytics.evaluate_ms", "ms/op", "lower"),
    ("analytics.evaluations", "count", "lower"),
    ("analytics.materialize_ms", "ms", "lower"),
    ("olap.session.open_ms", "ms", "lower"),
    ("olap.session.opens", "count", "lower"),
    ("olap.planner.plan_ms", "ms/op", "lower"),
    ("olap.planner.candidates", "count", "lower"),
    ("olap.planner.chosen.cached", "count", "higher"),
    ("olap.planner.chosen.rewrite", "count", "higher"),
    ("olap.planner.chosen.compat", "count", "higher"),
    ("olap.planner.chosen.rollup", "count", "higher"),
    ("olap.planner.chosen.refresh", "count", "higher"),
    ("olap.planner.chosen.scratch", "count", "lower"),
    ("olap.rewriting.ms", "ms/op", "lower"),
    ("olap.rewriting.calls", "count", "higher"),
    ("olap.cache.hits", "count", "higher"),
    ("olap.cache.misses", "count", "lower"),
    ("olap.cache.evictions", "count", "lower"),
    ("olap.cache.hit_ratio", "ratio", "higher"),
    ("olap.cache.lookup_ms", "ms/op", "lower"),
    ("olap.maintenance.refresh_ms", "ms/op", "lower"),
    ("olap.maintenance.refreshes", "count", "higher"),
    ("olap.maintenance.price_ms", "ms/op", "lower"),
    ("storage.save_ms", "ms/op", "lower"),
    ("storage.saves", "count", "lower"),
    ("storage.bytes_written", "bytes", "lower"),
    ("storage.load_ms", "ms/op", "lower"),
    ("serving.publish_ms", "ms/op", "lower"),
    ("serving.publishes", "count", "higher"),
    ("serving.wait_ms_p50", "ms", "lower"),
    ("serving.wait_ms_p90", "ms", "lower"),
    ("serving.exec_ms_p50", "ms", "lower"),
    ("serving.sessions_opened", "count", "lower"),
    ("serving.cold_reads", "count", "lower"),
    ("ingest.flush_ms", "ms/op", "lower"),
    ("ingest.batches", "count", "higher"),
    ("ingest.applied", "count", "higher"),
    ("ingest.coalesced", "count", "higher"),
    ("ingest.scheduler_ms", "ms/op", "lower"),
    ("ingest.eager_refreshes", "count", "higher"),
    ("ingest.lazy_marks", "count", "lower"),
    ("ingest.invalidations", "count", "lower"),
)

MEASURED = ("timed", "cold")


def layer_metrics(tracer, run) -> dict:
    """The per-layer metrics of a traced run, over its measured phases."""
    summary = tracer.summary(MEASURED)
    operations = max(1, len(run.ops))

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def per_op(name):
        return summary.get(name, {}).get("total_ms", 0.0) / operations

    def per_call(name, phases=MEASURED):
        entry = tracer.summary(phases).get(name)
        return entry["total_ms"] / entry["calls"] if entry and entry["calls"] else 0.0

    def counter(name):
        return tracer.counter_total(name, MEASURED)

    hits, misses = counter("olap.cache.hits"), counter("olap.cache.misses")
    plans = counter("olap.planner.plans")
    refreshes = calls("rdf.statistics.refresh")
    values = {
        "rdf.statistics.refresh_ms": per_op("rdf.statistics.refresh"),
        "rdf.statistics.refreshes": refreshes,
        "rdf.statistics.sync_refreshes": refreshes
        - tracer.spans_under("rdf.statistics.refresh", "olap.session.open", MEASURED),
        "rdf.graph.mutations": counter("rdf.graph.mutations"),
        "bgp.solve_ms": per_op("bgp.solve"),
        "bgp.solves": calls("bgp.solve"),
        "bgp.index_refresh_ms": per_op("bgp.index_refresh"),
        "bgp.index_drops": counter("bgp.index_drops"),
        "analytics.evaluate_ms": per_op("analytics.evaluate"),
        "analytics.evaluations": calls("analytics.evaluate"),
        "analytics.materialize_ms": per_call("analytics.materialize", ("setup",)),
        "olap.session.open_ms": per_call("olap.session.open"),
        "olap.session.opens": calls("olap.session.open"),
        "olap.planner.plan_ms": per_op("olap.planner.plan"),
        "olap.planner.candidates": counter("olap.planner.candidates") / plans if plans else 0.0,
        "olap.rewriting.ms": per_op("olap.rewriting"),
        "olap.rewriting.calls": calls("olap.rewriting"),
        "olap.cache.hits": hits,
        "olap.cache.misses": misses,
        "olap.cache.evictions": counter("olap.cache.evictions"),
        "olap.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "olap.cache.lookup_ms": per_op("olap.cache.lookup"),
        "olap.maintenance.refresh_ms": per_op("olap.maintenance.refresh"),
        "olap.maintenance.refreshes": calls("olap.maintenance.refresh"),
        "olap.maintenance.price_ms": per_op("olap.maintenance.price"),
        "storage.save_ms": per_op("storage.save"),
        "storage.saves": calls("storage.save"),
        "storage.bytes_written": counter("storage.bytes_written"),
        "storage.load_ms": per_op("storage.load"),
        "serving.publish_ms": per_op("serving.publish"),
        "serving.publishes": counter("serving.publishes"),
        "serving.sessions_opened": tracer.spans_under("olap.session.open", "serving.query", MEASURED),
        "ingest.flush_ms": per_op("ingest.flush"),
        "ingest.scheduler_ms": per_op("ingest.scheduler"),
    }
    for category in ("cached", "rewrite", "compat", "rollup", "refresh", "scratch"):
        values["olap.planner.chosen." + category] = counter("olap.planner.chosen." + category)
    for name, _, _ in PER_LAYER:
        values.setdefault(name, run.layer_data.get(name, 0))
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("navigate", "update_read", "serve_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        default=os.path.join(".bench_out", "records.jsonl"),
        help="JSON-lines file the run record is appended to (relative to the checkout)",
    )
    parser.add_argument(
        "--inject-delay",
        default=None,
        metavar="LAYER:MS",
        help="sleep MS milliseconds before every call of LAYER's entry point (comparison test)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"olapbench: no engine source under {source}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    try:
        import workloads
        from records import TooFewSamples, append_record, provenance
        from tracing import Tracer, install_delay, install_probes
    except ImportError as exc:
        print(f"olapbench: cannot import the engine from {ROOT}/src: {exc}", file=sys.stderr)
        return 2

    restore = []
    if args.inject_delay:
        layer, _, milliseconds = args.inject_delay.rpartition(":")
        install_delay(layer, float(milliseconds), restore)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_probes(tracer)
    started = time.perf_counter()
    try:
        run = workloads.Run(args.seed, args.seconds, tracer)
    except workloads.InputMismatch as exc:
        print(f"olapbench: {exc}", file=sys.stderr)
        return 3
    workdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.workload == "navigate":
            timeline = workloads.navigate(run)
        elif args.workload == "update_read":
            timeline = workloads.update_read(run)
        else:
            timeline = workloads.serve_mixed(run, workdir)
    except TooFewSamples as exc:
        errors = sum(1 for op in run.ops if op[3] is not None)
        if not errors:
            print(f"olapbench: the run is too short to report its percentiles: {exc}", file=sys.stderr)
            return 4
        # The engine raised so often that too few operations completed to
        # report the metrics: report the failed operations instead.
        for message in run.messages[:20]:
            print(message)
        print(json.dumps({"correct": False, "attempted": len(run.ops), "failed": errors, "metrics": {}}))
        return 5
    run.metrics["peak_rss_mb"] = run.peak_rss_mb
    if tracer is not None:
        tracer.uninstall()
        layer = layer_metrics(tracer, run)
        tracer.write(
            os.path.join(workdir, f"trace-{args.workload}-seed{args.seed}.jsonl"),
            {"workload": args.workload, "seed": args.seed},
        )
    gc.collect()
    measured = time.perf_counter()
    run.verify(timeline)
    print(
        f"olapbench: {args.workload} seed {args.seed}: {time.perf_counter() - started:.1f} s in all, "
        f"{time.perf_counter() - measured:.1f} s checking {len(run.cells)} distinct cubes",
        file=sys.stderr,
    )
    for message in run.messages[:20]:
        print(message)
    attempted = len(run.ops)
    failed = run.failed()
    correct = failed == 0
    end_to_end = {name: run.metrics[name] for name, _, _ in END_TO_END}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inject_delay": args.inject_delay,
        "triples": len(run.base),
        "digest": run.digest,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "end_to_end": end_to_end,
        "extra": run.extra,
        "wall_s": time.perf_counter() - started,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    record.update(provenance(ROOT, run.extra.get("engine")))
    if tracer is not None:
        record["per_layer"] = layer
    append_record(os.path.join(ROOT, args.record), record)
    if tracer is not None:
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit, _ in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    for owner, attribute, original in restore:
        setattr(owner, attribute, original)
    return 0


if __name__ == "__main__":
    sys.exit(main())
