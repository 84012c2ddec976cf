"""Run records: percentiles, provenance stamps and the append-only record file."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
from typing import Dict, Iterable, List, Optional, Sequence


class TooFewSamples(ValueError):
    """A percentile was asked of a sample with fewer than 10 values beyond it."""


#: Every reported percentile has at least this many samples beyond it.
MIN_TAIL = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1), linearly interpolated between ranks."""
    ordered = sorted(values)
    count = len(ordered)
    if count - math.ceil(q * count) < MIN_TAIL:
        raise TooFewSamples(f"{count} samples cannot support a p{round(q * 100)}")
    position = q * (count - 1)
    low = math.floor(position)
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def commit_of(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: str, engine: str) -> Dict[str, object]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:  # pragma: no cover - the columnar engine needs numpy
        numpy_version = None
    return {
        "commit": commit_of(root),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "engine": engine,
    }


def append_record(path: str, record: Dict[str, object]) -> None:
    """Append one run record (one JSON line); earlier records are kept."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_records(paths: Iterable[str]) -> List[Dict[str, object]]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    return records
