"""Span tracing of the engine's layers, installed from outside the program.

With ``--trace 1`` the benchmark wraps the public entry points of each
layer (see :func:`_probe_targets`) so that every call records one span: name,
start, end, the enclosing span and the id of the benchmark operation that
caused it.  Nothing under ``src/`` changes; with ``--trace 0`` nothing is
wrapped at all.  Spans stay in memory and are written out when the run
ends.  A span's self time is its duration minus the time its child spans
cover.

The same wrapping mechanism injects a fixed delay into one layer
(``--inject-delay``), which is how the comparison is tested.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from typing import Dict, List, Optional, Tuple

_SPAN: contextvars.ContextVar = contextvars.ContextVar("olapbench_span", default=None)
_OP: contextvars.ContextVar = contextvars.ContextVar("olapbench_op", default=None)


def _probe_targets() -> List[Tuple[str, object, str]]:
    """``(span name, owner, attribute)`` of every wrapped entry point."""
    import repro.analytics.instance as instance_module
    import repro.storage.snapshot as snapshot_module
    from repro.analytics.evaluator import AnalyticalQueryEvaluator
    from repro.bgp.evaluator import BGPEvaluator, ColumnarTripleIndex
    from repro.ingest.scheduler import RefreshScheduler
    from repro.ingest.stream import StreamIngestor
    from repro.olap.cache import ResultCache
    from repro.olap.maintenance import DeltaMaintainer
    from repro.olap.planner import OLAPPlanner
    from repro.olap.rewriting import OLAPRewriter
    from repro.olap.session import OLAPSession
    from repro.rdf.graph import Graph
    from repro.rdf.statistics import GraphStatistics
    from repro.serving.generations import GenerationManager
    from repro.serving.service import OLAPService

    return [
        ("rdf.statistics.refresh", GraphStatistics, "refresh"),
        ("rdf.graph.add", Graph, "add"),
        ("rdf.graph.remove", Graph, "remove"),
        ("bgp.solve", BGPEvaluator, "evaluate_ids"),
        ("bgp.solve", BGPEvaluator, "evaluate"),
        ("bgp.index_refresh", ColumnarTripleIndex, "refresh"),
        ("analytics.evaluate", AnalyticalQueryEvaluator, "evaluate"),
        ("analytics.materialize", instance_module, "materialize_instance"),
        ("olap.session.open", OLAPSession, "__init__"),
        ("olap.planner.plan", OLAPPlanner, "plan"),
        ("olap.rewriting", OLAPRewriter, "answer"),
        ("olap.cache.lookup", ResultCache, "get"),
        ("olap.cache.put", ResultCache, "put"),
        ("olap.maintenance.refresh", DeltaMaintainer, "refresh"),
        ("olap.maintenance.price", DeltaMaintainer, "price_refresh"),
        ("storage.save", snapshot_module, "save_snapshot"),
        ("storage.load", snapshot_module, "load_snapshot"),
        ("serving.publish", GenerationManager, "publish"),
        ("serving.query", OLAPService, "query"),
        ("serving.update", OLAPService, "update"),
        ("ingest.flush", StreamIngestor, "flush"),
        ("ingest.scheduler", RefreshScheduler, "after_batch"),
    ]


#: Chosen-plan categories, keyed by the prefix of ``Plan.chosen.strategy``.
PLAN_CATEGORIES = (
    ("cached", "cached"),
    ("rewrite", "rewrite"),
    ("compat", "compat"),
    ("rollup-from-cached", "rollup"),
    ("refresh-cached", "refresh"),
    ("scratch", "scratch"),
    ("parallel", "scratch"),
)


def plan_category(strategy: str) -> str:
    for prefix, category in PLAN_CATEGORIES:
        if strategy.startswith(prefix):
            return category
    return "scratch"


class Tracer:
    """Spans and counters of one run, grouped by benchmark phase."""

    def __init__(self) -> None:
        #: ``(id, name, start, end, parent id, op id, phase)``.
        self.spans: List[Tuple] = []
        self.counters: Dict[str, Dict[str, float]] = {}
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        bucket = self.counters.setdefault(self.phase, {})
        bucket[name] = bucket.get(name, 0) + amount

    def _enter(self):
        span_id = next(self._ids)
        token = _SPAN.set(span_id)
        return span_id, token, time.perf_counter()

    def _exit(self, name: str, span_id: int, token, start: float) -> None:
        end = time.perf_counter()
        _SPAN.reset(token)
        self.spans.append((span_id, name, start, end, _SPAN.get(), _OP.get(), self.phase))

    @staticmethod
    def operation(op_id: int):
        """Attribute the spans of the current context to benchmark operation ``op_id``."""
        return _OP.set(op_id)

    # -- wrapping --------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        original = owner.__dict__[attribute]
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def wrap(self, name: str, owner, attribute: str, before=None, after=None, record=None) -> None:
        """Record a span ``name`` around every call of ``owner.attribute``.

        ``before(args)`` runs first and its value reaches
        ``after(state, args, result)``; ``record(args)``, when given,
        decides per call whether a span is recorded at all.
        """
        original = owner.__dict__[attribute]
        tracer = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                state = before(args) if before else None
                span_id, token, start = tracer._enter()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._exit(name, span_id, token, start)
                if after:
                    after(state, args, result)
                return result

            self._patch(owner, attribute, async_wrapper)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if record is not None and not record(args):
                return original(*args, **kwargs)
            state = before(args) if before else None
            span_id, token, start = tracer._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(name, span_id, token, start)
            if after:
                after(state, args, result)
            return result

        self._patch(owner, attribute, wrapper)

    def wrap_counter(self, name: str, owner, attribute: str) -> None:
        """Count the calls of ``owner.attribute`` that return a true value."""
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if result:
                tracer.count(name)
            return result

        self._patch(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- summaries -------------------------------------------------------

    def summary(self, phases) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total ms and self ms over ``phases``.

        A span nested directly in a span of the same name (a re-entrant
        layer, e.g. ``evaluate`` calling ``evaluate_ids``) counts once, as
        part of the outer call.
        """
        phases = set(phases)
        names = {span[0]: span[1] for span in self.spans}
        child_ms: Dict[int, float] = {}
        for span_id, name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ms[parent] = child_ms.get(parent, 0.0) + (end - start) * 1e3
        result: Dict[str, Dict[str, float]] = {}
        for span_id, name, start, end, parent, _, phase in self.spans:
            if phase not in phases:
                continue
            duration = (end - start) * 1e3
            entry = result.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["self_ms"] += duration - child_ms.get(span_id, 0.0)
            if parent is not None and names.get(parent) == name:
                continue
            entry["calls"] += 1
            entry["total_ms"] += duration
        return result

    def counter_total(self, name: str, phases) -> float:
        return sum(self.counters.get(phase, {}).get(name, 0) for phase in phases)

    def spans_under(self, name: str, ancestor: str, phases) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        phases = set(phases)
        by_id = {span[0]: span for span in self.spans}
        total = 0
        for span in self.spans:
            if span[1] != name or span[6] not in phases:
                continue
            parent = span[4]
            while parent is not None:
                enclosing = by_id.get(parent)
                if enclosing is None:
                    break
                if enclosing[1] == ancestor:
                    total += 1
                    break
                parent = enclosing[4]
        return total

    def write(self, path: str, extra: Optional[Dict] = None) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            header = {"summary": self.summary({"setup", "timed", "cold"}), "counters": self.counters}
            header.update(extra or {})
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, name, start, end, parent, op, phase in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ms": round((start - origin) * 1e3, 4),
                            "end_ms": round((end - origin) * 1e3, 4),
                            "parent": parent,
                            "op": op,
                            "phase": phase,
                        }
                    )
                    + "\n"
                )


def install_probes(tracer: Tracer) -> None:
    """Wrap every layer entry point of :data:`_probe_targets`."""
    for name, owner, attribute in _probe_targets():
        if name.startswith("rdf.graph."):
            tracer.wrap_counter("rdf.graph.mutations", owner, attribute)
        elif name == "bgp.index_refresh":
            # Only calls that find the graph changed drop the arrays; the
            # common no-op call is not a span.
            def drops(args) -> bool:
                index = args[0]
                dropping = index._version != index._graph.version
                if dropping:
                    tracer.count("bgp.index_drops")
                return dropping

            tracer.wrap(name, owner, attribute, record=drops)
        elif name == "olap.planner.plan":

            def planned(state, args, plan) -> None:
                tracer.count("olap.planner.plans")
                tracer.count("olap.planner.candidates", len(plan.candidates))
                tracer.count("olap.planner.chosen." + plan_category(plan.chosen.strategy))

            tracer.wrap(name, owner, attribute, after=planned)
        elif name == "olap.cache.lookup":

            def looked_up(state, args, entry) -> None:
                tracer.count("olap.cache.hits" if entry is not None else "olap.cache.misses")

            tracer.wrap(name, owner, attribute, after=looked_up)
        elif name == "olap.cache.put":

            def put(state, args, result) -> None:
                tracer.count("olap.cache.evictions", args[0].stats.evictions - state)

            tracer.wrap(name, owner, attribute, before=lambda args: args[0].stats.evictions, after=put)
        elif name == "storage.save":

            def saved(state, args, result) -> None:
                tracer.count("storage.bytes_written", os.path.getsize(args[1]))

            tracer.wrap(name, owner, attribute, after=saved)
        elif name == "serving.publish":

            def published(state, args, generation) -> None:
                if generation.version != state:
                    tracer.count("serving.publishes")

            tracer.wrap(name, owner, attribute, before=lambda args: args[0].current.version, after=published)
        else:
            tracer.wrap(name, owner, attribute)


def with_context(loop):
    """Make ``loop.run_in_executor`` carry the caller's context into the worker.

    The serving layer runs sessions on its executor threads; copying the
    context there (as :func:`asyncio.to_thread` does) keeps span parents
    and operation ids attached to the work they cause.
    """
    original = loop.run_in_executor

    def run_in_executor(executor, func, *args):
        return original(executor, contextvars.copy_context().run, func, *args)

    loop.run_in_executor = run_in_executor
    return loop


def install_delay(layer: str, milliseconds: float, restore: List) -> None:
    """Sleep ``milliseconds`` before every call of one layer's entry point."""
    owner, attribute = next(
        (owner, attribute) for name, owner, attribute in _probe_targets() if name == layer
    )
    original = owner.__dict__[attribute]
    seconds = milliseconds / 1e3

    @functools.wraps(original)
    def delayed(*args, **kwargs):
        time.sleep(seconds)
        return original(*args, **kwargs)

    restore.append((owner, attribute, original))
    setattr(owner, attribute, delayed)
