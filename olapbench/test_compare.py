"""Tests of the benchmark's comparison and of its declared metrics.

``test_injected_delay_is_attributed`` slows one layer from the benchmark
side — 20 ms before every ``OLAPRewriter.answer`` call — and checks that
the comparison calls the metric the layer map names (``read_ms_p90`` on
``navigate``) worse beyond its bound, while ``update_read``, where the
rewriter is idle, is not called worse on any metric.  It runs 12 short
benchmark runs, a few minutes in all::

    python3 -m pytest olapbench/test_compare.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
from records import read_records  # noqa: E402

SEEDS = (1, 2, 3)
DELAY = "olap.rewriting:20"


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_reported_metrics():
    spec = _spec()
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == ["navigate", "update_read", "serve_mixed"]
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def test_verdicts():
    assert compare.verdict([10, 10.5, 11], [10, 10.2, 10.9], 0.1, "lower")["verdict"] == "within-bound"
    assert compare.verdict([10, 10.5, 11], [14, 14.5, 15], 0.1, "lower")["verdict"] == "worse"
    assert compare.verdict([10, 10.5, 11], [14, 14.5, 15], 0.1, "higher")["verdict"] == "within-bound"
    assert compare.verdict([10, 20, 30], [10, 20, 30], 0.1, "lower")["verdict"] == "unresolved"
    assert compare.verdict([10, 20, 30], [40, 60, 80], 0.1, "lower")["verdict"] == "worse"
    assert compare.verdict([10, 20, 30], [25, 60, 80], 0.1, "lower")["verdict"] == "unresolved"
    assert compare.verdict([40, 60, 80], [10, 20, 30], 0.1, "higher")["verdict"] == "worse"
    assert compare.verdict([10, 10.5], [10, 10.5], 0.1, "lower")["verdict"] == "unresolved"


def _runs(tmp_path, workload, delay, seconds):
    path = tmp_path / f"{workload}-{'delayed' if delay else 'base'}.jsonl"
    for seed in SEEDS:
        command = [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
            "--record", str(path),
        ]
        if delay:
            command += ["--inject-delay", delay]
        finished = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert finished.returncode == 0, finished.stderr[-2000:]
        result = json.loads(finished.stdout.strip().splitlines()[-1])
        assert result["failed"] == 0
    return read_records([str(path)])


def test_injected_delay_is_attributed(tmp_path):
    spec = _spec()
    report = {}
    for workload in ("navigate", "update_read"):
        base = _runs(tmp_path, workload, None, 10)
        delayed = _runs(tmp_path, workload, DELAY, 10)
        report.update(compare.compare(base, delayed, spec))
    print(compare.render(report))
    assert report["navigate"]["read_ms_p90"]["verdict"] == "worse"
    assert all(row["verdict"] != "worse" for row in report["update_read"].values())
