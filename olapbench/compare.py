"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 olapbench/compare.py BASE.jsonl NEW.jsonl [--bounds BENCHMARK.json]

Each file holds run records as ``olapbench/run.py`` appends them (one JSON
object per line); only untraced runs count.  For every workload present in
both sets and every end-to-end metric of ``BENCHMARK.json`` it reports the
median and quartiles of each set and one verdict:

* ``worse`` — the new median is worse than the base median by more than
  the bound (in the metric's ``better`` direction), and either both
  spreads (interquartile range over median) are within the bound or every
  new run reads worse than every base run;
* ``unresolved`` — fewer than three runs on a side, or otherwise a side
  whose spread exceeds the bound: the noise is too large to call;
* ``within-bound`` — otherwise (an improvement is within bound too).

The exit code is 1 when any verdict is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from records import quartiles, read_records  # noqa: E402

MIN_RUNS = 3


def _values(records: List[Dict], workload: str, metric: str) -> List[float]:
    return [
        float(record["end_to_end"][metric])
        for record in records
        if record["workload"] == workload and not record.get("trace") and metric in record["end_to_end"]
    ]


def verdict(base: List[float], new: List[float], bound: float, better: str) -> Dict[str, object]:
    result: Dict[str, object] = {"base_runs": len(base), "new_runs": len(new)}
    if len(base) < MIN_RUNS or len(new) < MIN_RUNS:
        result["verdict"] = "unresolved"
        return result
    for label, values in (("base", base), ("new", new)):
        q1, median, q3 = quartiles(values)
        result[label] = {"q1": q1, "median": median, "q3": q3, "spread": (q3 - q1) / median}
    change = (result["new"]["median"] - result["base"]["median"]) / result["base"]["median"]
    worse_by = change if better == "lower" else -change
    result["change"] = change
    noisy = result["base"]["spread"] > bound or result["new"]["spread"] > bound
    separated = min(new) > max(base) if better == "lower" else max(new) < min(base)
    if worse_by > bound and (separated or not noisy):
        result["verdict"] = "worse"
    elif noisy:
        result["verdict"] = "unresolved"
    else:
        result["verdict"] = "within-bound"
    return result


def compare(base_records: List[Dict], new_records: List[Dict], spec: Dict) -> Dict[str, Dict[str, Dict]]:
    workloads = [w["name"] for w in spec["workloads"]]
    report: Dict[str, Dict[str, Dict]] = {}
    for workload in workloads:
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = _values(base_records, workload, name)
            new = _values(new_records, workload, name)
            if not base and not new:
                continue
            rows[name] = verdict(base, new, metric["bound"], metric["better"])
            rows[name]["bound"] = metric["bound"]
        if rows:
            report[workload] = rows
    return report


def render(report: Dict[str, Dict[str, Dict]]) -> str:
    lines = []
    for workload, rows in report.items():
        lines.append(f"{workload}")
        for name, row in rows.items():
            if "base" not in row:
                lines.append(f"  {name:16s} {row['verdict']:>12s}  ({row['base_runs']} vs {row['new_runs']} runs)")
                continue
            base, new = row["base"], row["new"]
            lines.append(
                f"  {name:16s} {row['verdict']:>12s}  "
                f"base {base['median']:10.4g} [{base['q1']:.4g}, {base['q3']:.4g}]  "
                f"new {new['median']:10.4g} [{new['q1']:.4g}, {new['q3']:.4g}]  "
                f"change {row['change']:+.1%} (bound {row['bound']:.0%})"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of olapbench runs.")
    parser.add_argument("base", help="run records of the baseline (JSON lines)")
    parser.add_argument("new", help="run records to judge (JSON lines)")
    parser.add_argument("--bounds", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.bounds, encoding="utf-8") as handle:
        spec = json.load(handle)
    report = compare(read_records([args.base]), read_records([args.new]), spec)
    print(render(report))
    worse = any(row["verdict"] == "worse" for rows in report.values() for row in rows.values())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
