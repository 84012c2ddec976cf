"""The benchmark's three workloads over the blogger scenario at 10^5 triples.

* ``navigate`` — one analyst session walks SLICE / DICE / DRILL-OUT /
  DRILL-IN / ROLL-UP / DRILL-DOWN over the ``Q_sites`` (count) and
  ``Q_words`` (avg) cubes, and opens fresh sessions for a root cube at
  even intervals during the walk.
* ``update_read`` — one session keeps warmed cubes; each cycle streams a
  small batch through ``StreamIngestor`` with the ``auto``
  ``RefreshScheduler`` and reads every warmed cube back.
* ``serve_mixed`` — two tenant clients against an ``OLAPService`` in the
  snapshot-spool publish mode; every tenth operation of each is an update.

Every workload draws its operations from ``--seed`` alone; the generated
instance is the same for every seed and is pinned by its digest.  The
served cubes are recorded (as fingerprints plus one copy of each distinct
content) and checked against :mod:`olapbench.reference` after the timed
phases.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import os
import random
import shutil
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import repro.analytics.instance as instance_module
from repro.datagen.blogger import (
    BloggerConfig,
    blogger_base_graph,
    blogger_schema,
    sites_per_blogger_query,
    words_per_blogger_query,
)
from repro.ingest.scheduler import RefreshScheduler
from repro.ingest.stream import StreamIngestor
from repro.olap.hierarchy import DimensionHierarchy
from repro.olap.operations import Dice, DrillDown, DrillIn, DrillOut, RollUp, Slice
from repro.olap.session import OLAPSession
from repro.rdf.namespaces import EX, RDF
from repro.rdf.terms import Literal
from repro.rdf.triples import Triple
from repro.serving.service import OLAPService

from reference import (
    AGE_BANDS,
    CubeState,
    ReferenceStore,
    describe_difference,
    fingerprint,
    normalize_cells,
    plain,
    plain_triple,
    same_cells,
)
from records import percentile, peak_rss_mb
from tracing import Tracer, with_context

#: The instance: ``BloggerConfig(bloggers=6000)`` with the generator's own seed.
BLOGGERS = 6000
EXPECTED_TRIPLES = 105291
EXPECTED_DIGEST = "4773ca8a838cecc1071590ec8c796dac04a6594f44da65341b13a107bfc8e3b8"

SETUP_REPEATS = 3
COLD_REPEATS = 5

_TYPE = RDF.term("type")
AGE_HIERARCHY = DimensionHierarchy.banded(AGE_BANDS, name="age_bands")


def _median_ms(samples: List[float]) -> Optional[float]:
    """The p50 in ms, or None below the 20 samples a reported p50 needs."""
    return percentile(samples, 0.5) * 1e3 if len(samples) >= 20 else None


class InputMismatch(RuntimeError):
    """The generated instance is not the one the benchmark is defined on."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def instance_digest(graph) -> str:
    lines = sorted(f"{t.subject.n3()} {t.predicate.n3()} {t.object.n3()}" for t in graph)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def generate_inputs():
    base = blogger_base_graph(BloggerConfig(bloggers=BLOGGERS))
    digest = instance_digest(base)
    if len(base) != EXPECTED_TRIPLES or digest != EXPECTED_DIGEST:
        raise InputMismatch(
            f"generated {len(base)} triples with digest {digest}; the benchmark is "
            f"defined on {EXPECTED_TRIPLES} triples with digest {EXPECTED_DIGEST}"
        )
    return base, blogger_schema(), digest


# ---------------------------------------------------------------------------
# one run: operations, served cubes and their check
# ---------------------------------------------------------------------------


class Run:
    """Everything one run records: timings, served cubes, failures."""

    def __init__(self, seed: int, seconds: float, tracer: Optional[Tracer]):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.base, self.schema, self.digest = generate_inputs()
        self.roots = {
            "sites": sites_per_blogger_query(self.schema),
            "words": words_per_blogger_query(self.schema),
        }
        #: Per operation: (kind, served key or None, latency seconds, error or None).
        self.ops: List[Tuple[str, Optional[Tuple], float, Optional[str]]] = []
        #: (state, version, fingerprint) -> normalized cells, first served copy.
        self.cells: Dict[Tuple, Dict] = {}
        #: Property checks: ("restrict", origin key, result key, position, allowed)
        #: and ("undo", cube before ROLL-UP, cube after DRILL-DOWN).
        self.properties: set = set()
        self.bad_keys: set = set()
        self.messages: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.extra: Dict[str, float] = {}
        self.layer_data: Dict[str, float] = {}
        self.cold_samples: List[float] = []
        self.peak_rss_mb = 0.0

    # -- phases ----------------------------------------------------------

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name
        if name == "timed":
            # What set-up built stays alive for the whole run; keep it out of
            # the cyclic collector so that a full collection over the
            # instance does not land on a random operation of the timed phase.
            gc.collect()
            gc.freeze()

    def operation(self, op_id: int) -> None:
        if self.tracer is not None:
            self.tracer.operation(op_id)

    def timed_setup(self, open_fn: Callable, close_fn: Callable):
        """Median of ``SETUP_REPEATS`` set-ups: materialize the instance and open."""
        self.phase("setup")
        times = []
        instance = opened = None
        for _ in range(SETUP_REPEATS):
            if opened is not None:
                close_fn(opened)
                instance = opened = None
            gc.collect()
            started = time.perf_counter()
            instance = instance_module.materialize_instance(
                self.schema, self.base, name="blogger_instance"
            )
            opened = open_fn(instance)
            times.append(time.perf_counter() - started)
        self.metrics["setup_s"] = statistics.median(times)
        self.extra["setup_s_samples"] = times
        return instance, opened

    # -- recording ---------------------------------------------------------

    def served(self, state: CubeState, version, cells: Dict) -> Tuple:
        normalized = normalize_cells(cells)
        key = (state, version, fingerprint(normalized))
        if key not in self.cells:
            self.cells[key] = normalized
        return key

    def record(self, kind: str, key: Optional[Tuple], latency: float, error: Optional[str] = None) -> None:
        self.ops.append((kind, key, latency, error))
        if error is not None:
            self.messages.append(f"operation {len(self.ops) - 1} ({kind}) raised: {error}")

    def latencies(self, kind: str) -> List[float]:
        return [op[2] for op in self.ops if op[0] == kind and op[3] is None]

    # -- checking ----------------------------------------------------------

    def verify(self, timeline: List[Tuple[object, Optional[List]]]) -> None:
        """Check every distinct served (cube, version) and every property.

        ``timeline`` lists ``(version, mutations)`` in application order;
        the first entry is the initial version with ``None``.
        """
        store = ReferenceStore(plain_triple(triple) for triple in self.base)
        by_version: Dict[object, List[Tuple]] = defaultdict(list)
        for key in self.cells:
            by_version[key[1]].append(key)
        known = {version for version, _ in timeline}
        for version, keys in by_version.items():
            if version not in known:
                for key in keys:
                    self.fail(key, f"served at graph version {version}, which was never published")
        for version, mutations in timeline:
            if mutations is not None:
                store.apply(mutations)
            for key in by_version.get(version, ()):
                expected = store.answer(key[0])
                served = self.cells[key]
                if not same_cells(served, expected):
                    self.fail(
                        key,
                        f"{key[0].describe()} at v{version}: {describe_difference(served, expected)}",
                    )
        for check in self.properties:
            if check[0] == "restrict":
                _, origin, result, position, allowed = check
                wanted = {
                    cell: value for cell, value in self.cells[origin].items() if cell[position] in allowed
                }
                if not same_cells(self.cells[result], wanted):
                    self.fail(result, f"SLICE/DICE of {origin[0].describe()} is not its restricted cells")
            else:
                _, before, after = check
                if not same_cells(self.cells[before], self.cells[after]):
                    self.fail(after, f"ROLL-UP then DRILL-DOWN of {before[0].describe()} changed its cells")

    def fail(self, key: Tuple, message: str) -> None:
        self.bad_keys.add(key)
        self.messages.append("MISMATCH " + message)

    def failed(self) -> int:
        return sum(1 for op in self.ops if op[3] is not None or op[1] in self.bad_keys)

    # -- end-to-end metrics --------------------------------------------------

    def read_metrics(self, reads: List[float]) -> None:
        self.metrics["read_ms_p50"] = percentile(reads, 0.50) * 1e3
        self.metrics["read_ms_p90"] = percentile(reads, 0.90) * 1e3
        self.extra["reads"] = len(reads)
        if len(reads) >= 1000:
            self.extra["read_ms_p99"] = percentile(reads, 0.99) * 1e3

    def cold_answer(self, instance, query, state: CubeState, version) -> None:
        """One ``cold_answer_ms`` sample: a fresh session plus its first root cube."""
        gc.collect()
        gc.freeze()
        self.operation(len(self.ops))
        error = key = None
        started = time.perf_counter()
        try:
            session = OLAPSession(instance, self.schema)
            cube = session.execute(query)
        except Exception as exc:  # counted as a failed operation
            error = repr(exc)
        latency = time.perf_counter() - started
        if error is None:
            key = self.served(state, version, cube.cells())
            session.close()
            self.cold_samples.append(latency)
        self.record("cold", key, latency, error)
        samples = self.cold_samples
        self.metrics["cold_answer_ms"] = statistics.median(samples) * 1e3 if samples else float("nan")
        self.extra["cold_answer_ms_samples"] = [sample * 1e3 for sample in samples]

    def cold_answers(self, instance, query, state: CubeState, version) -> None:
        self.phase("cold")
        for _ in range(COLD_REPEATS):
            self.cold_answer(instance, query, state, version)


# ---------------------------------------------------------------------------
# navigate
# ---------------------------------------------------------------------------

AGES = [Literal(age) for age in range(18, 58)]
CITIES = [EX.term(f"city/{name}") for name in ("Madrid", "NY", "Kyoto", "Paris", "Berlin", "Lisbon", "Oslo", "Rome")]
DOMAINS = {"dage": AGES, "dcity": CITIES}
AGE_RANGES = [(18, 29), (30, 44), (45, 57), (25, 39), (35, 50)]
CITY_SETS = [(0, 1), (0, 1, 2, 3), (2, 5, 7), (1, 3, 4, 6), (4, 5)]

#: The walk's episodes: each starts at a root cube (sites, then words, in
#: turn) and applies one of these operation sequences, in rotation.  The
#: seed draws the values — Zipf-skewed, so a hot set of states recurs while
#: far more distinct states are visited than the result cache holds.
EPISODES = (
    (("drill-out", "dage"), ("drill-in", "dage"), ("slice", "dcity")),
    (("roll-up", "dage"), ("dice", "dcity"), ("drill-down", "dage")),
    (("dice", "dage"), ("drill-out", "dcity"), ("slice", "dage")),
    (("slice", "dcity"), ("roll-up", "dage"), ("drill-down", "dage"), ("drill-out", "dcity")),
)


def _skewed(rng: random.Random, items: List, exponent: float = 0.6):
    """Pick from ``items`` with Zipf weights in list order (a stable hot set)."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(items))]
    return rng.choices(items, weights=weights)[0]


def _walk():
    """Endless ``(kind, dimension or root)`` steps of the episode rotation."""
    episode = 0
    while True:
        yield "execute", ("sites", "words")[(episode // len(EPISODES)) % 2]
        yield from EPISODES[episode % len(EPISODES)]
        episode += 1


def _operation(rng: random.Random, kind: str, dim: str, state: CubeState, stack: List):
    """The engine operation for one step and the cube state it leads to."""
    current = state.restriction(dim)
    if kind == "slice":
        term = _skewed(rng, [term for term in DOMAINS[dim] if current is None or plain(term) in current])
        return Slice(dim, term), state.restrict(dim, {plain(term)})
    if kind == "dice" and dim == "dage":
        low, high = _skewed(rng, AGE_RANGES)
        return Dice({dim: (Literal(low), Literal(high))}), state.restrict(dim, range(low, high + 1))
    if kind == "dice":
        members = [CITIES[index] for index in _skewed(rng, CITY_SETS)]
        return Dice({dim: members}), state.restrict(dim, {plain(term) for term in members})
    if kind == "drill-out":
        return DrillOut(dim), state.drill_out(dim)
    if kind == "drill-in":
        return DrillIn(dim), state.drill_in(dim)
    if kind == "roll-up":
        return RollUp(dim, AGE_HIERARCHY), state.roll_up()
    return DrillDown(dim), stack[-1][1]


def navigate(run: Run) -> List:
    instance, session = run.timed_setup(lambda graph: OLAPSession(graph, run.schema), lambda s: s.close())
    rng = random.Random(run.seed)
    for query in run.roots.values():
        session.execute(query)
    query = state = key = None
    stack: List[Tuple] = []
    steps = _walk()
    run.phase("timed")
    walk_start = time.perf_counter()
    deadline = walk_start + run.seconds
    # The fresh sessions are spread evenly over the walk, so that their
    # samples do not all fall in one stretch of the host's speed.
    cold_due = [walk_start + (index + 0.5) * run.seconds / COLD_REPEATS for index in range(COLD_REPEATS)]
    while time.perf_counter() < deadline:
        if cold_due and time.perf_counter() >= cold_due[0]:
            cold_due.pop(0)
            run.cold_answer(instance, run.roots["sites"], CubeState("sites"), 0)
            continue
        kind, target = next(steps)
        if kind == "execute":
            operation, new_state = None, CubeState(target)
        elif query is None:
            continue  # the episode's root failed; skip to the next episode
        else:
            operation, new_state = _operation(rng, kind, target, state, stack)
        run.operation(len(run.ops))
        started = time.perf_counter()
        try:
            if operation is None:
                cube = session.execute(run.roots[target])
            else:
                cube = session.transform(query, operation)
        except Exception as exc:  # counted as a failed operation
            run.record("read", None, time.perf_counter() - started, repr(exc))
            query = None
            continue
        latency = time.perf_counter() - started
        new_key = run.served(new_state, 0, cube.cells())
        run.record("read", new_key, latency)
        if kind in ("slice", "dice"):
            run.properties.add(
                ("restrict", key, new_key, state.dims.index(target), new_state.restriction(target))
            )
        elif kind == "roll-up":
            stack.append((key, state))
        elif kind == "drill-down":
            run.properties.add(("undo", stack.pop()[0], new_key))
        elif kind == "execute":
            stack = []
        query, state, key = cube.query, new_state, new_key
    walk = run.latencies("read")
    run.read_metrics(walk)
    run.metrics["ops_per_s"] = len(walk) / sum(walk)
    run.extra["distinct_states"] = len({key[0] for key in run.cells})
    run.extra["engine"] = session.engine
    for _ in cold_due:
        run.cold_answer(instance, run.roots["sites"], CubeState("sites"), 0)
    run.peak_rss_mb = peak_rss_mb()
    session.close()
    return [(0, None)]


# ---------------------------------------------------------------------------
# update_read
# ---------------------------------------------------------------------------

#: Batches come in rounds of three (two touch the warmed cubes, one does
#: not) and a run always completes whole rounds, so the mix is the same in
#: every run.  At least seven rounds run, past the deadline if need be, so
#: that the write p50 has 10 samples beyond it (the read p90 needs 13 cycles
#: of 8 reads).
ROUND = 3
MIN_CYCLES = 21


def _update_read_cubes(run: Run):
    """The warmed cubes: (state, query) pairs, all well within the cache."""
    cubes = []
    for base in ("sites", "words"):
        root, state = run.roots[base], CubeState(base)
        cubes += [
            (state, root),
            (state.drill_out("dage"), DrillOut("dage").apply(root)),
            (state.drill_out("dcity"), DrillOut("dcity").apply(root)),
            (state.drill_out("dage").drill_out("dcity"), DrillOut(["dage", "dcity"]).apply(root)),
        ]
    return cubes


class BatchSource:
    """Seeded batches of mutations over the blogger instance.

    Removals come from seeded shuffles of existing triples, additions use
    fresh post IRIs, so no batch depends on what an earlier batch did and
    every batch is the same work whatever the run length.
    """

    def __init__(self, base, rng: random.Random, label: str, keep: Callable[[int], bool] = lambda index: True):
        self.rng = rng
        self.label = label
        bloggers = sorted(
            {t.subject for t in base.triples(predicate=_TYPE, object=EX.Blogger)}, key=lambda term: term.value
        )
        self.bloggers = [b for index, b in enumerate(bloggers) if keep(index)]
        mine = set(self.bloggers)
        self.sites = sorted({t.object for t in base.triples(predicate=EX.postedOn)}, key=lambda term: term.value)
        self.wrote = sorted(
            (t for t in base.triples(predicate=EX.wrotePost) if t.subject in mine),
            key=lambda t: (t.subject.value, t.object.value),
        )
        self.names = sorted(
            (t for t in base.triples(predicate=EX.identifiedBy) if t.subject in mine),
            key=lambda t: (t.subject.value, t.object.lexical),
        )
        rng.shuffle(self.wrote)
        rng.shuffle(self.names)
        self.count = 0

    def new_post(self) -> List[Tuple[int, Triple]]:
        blogger = self.rng.choice(self.bloggers)
        post = EX.term(f"post/bench-{self.label}-{self.count}")
        self.count += 1
        return [
            (1, Triple(blogger, EX.wrotePost, post)),
            (1, Triple(post, _TYPE, EX.BlogPost)),
            (1, Triple(post, EX.postedOn, self.rng.choice(self.sites))),
            (1, Triple(post, EX.hasWordCount, Literal(self.rng.randrange(50, 2000)))),
        ]

    def drop_post(self) -> List[Tuple[int, Triple]]:
        return [(-1, self.wrote.pop())]

    def acquaintance(self) -> Triple:
        first, second = self.rng.sample(self.bloggers, 2)
        return Triple(first, EX.acquaintedWith, second)

    def unrelated(self) -> List[Tuple[int, Triple]]:
        """Mutations no warmed cube reads: names and acquaintances."""
        transient = self.acquaintance()
        return [
            (-1, self.names.pop()),
            (1, self.acquaintance()),
            (1, transient),
            (-1, transient),
        ]

    def cycle_batch(self, index: int) -> List[Tuple[int, Triple]]:
        """Two of every three batches touch the warmed cubes."""
        if index % ROUND == ROUND - 1:
            return self.unrelated()
        transient = self.acquaintance()
        return self.new_post() + self.drop_post() + [(1, transient), (-1, transient)]


def update_read(run: Run) -> List:
    instance, session = run.timed_setup(lambda graph: OLAPSession(graph, run.schema), lambda s: s.close())
    cubes = _update_read_cubes(run)
    for _, query in cubes:
        session.execute(query)
        session.execute(query)
    scheduler = RefreshScheduler(sessions=[session])
    ingestor = StreamIngestor(instance, scheduler=scheduler)
    run.extra["engine"] = session.engine
    source = BatchSource(run.base, random.Random(run.seed), "ur")
    timeline: List[Tuple[object, Optional[List]]] = [(0, None)]
    writes: List[float] = []
    write_to_read: List[float] = []
    run.phase("timed")
    deadline = time.perf_counter() + run.seconds
    cycle = 0
    while time.perf_counter() < deadline or cycle < MIN_CYCLES or cycle % ROUND:
        batch = source.cycle_batch(cycle)
        cycle += 1
        run.operation(len(run.ops))
        started = time.perf_counter()
        try:
            for sign, triple in batch:
                if sign > 0:
                    ingestor.add(triple)
                else:
                    ingestor.remove(triple)
            ingestor.drain()
        except Exception as exc:
            # The reference cannot follow a batch the engine applied in part.
            run.record("write", None, time.perf_counter() - started, repr(exc))
            break
        written = time.perf_counter()
        run.record("write", None, written - started)
        writes.append(written - started)
        timeline.append((cycle, [(sign, plain_triple(triple)) for sign, triple in batch]))
        for state, query in cubes:
            run.operation(len(run.ops))
            begun = time.perf_counter()
            try:
                cube = session.execute(query)
            except Exception as exc:
                run.record("read", None, time.perf_counter() - begun, repr(exc))
                continue
            latency = time.perf_counter() - begun
            run.record("read", run.served(state, cycle, cube.cells()), latency)
        write_to_read.append(time.perf_counter() - started)
    run.read_metrics(run.latencies("read"))
    busy = [op[2] for op in run.ops if op[3] is None]
    run.metrics["ops_per_s"] = len(busy) / sum(busy)
    run.extra["write_ms_p50"] = _median_ms(writes)
    run.extra["write_to_read_ms_p50"] = _median_ms(write_to_read)
    run.extra["cycles"] = cycle
    run.cold_answers(instance, run.roots["sites"], CubeState("sites"), timeline[-1][0])
    run.peak_rss_mb = peak_rss_mb()
    run.layer_data.update(
        {
            "ingest.batches": ingestor.stats.batches,
            "ingest.applied": ingestor.stats.applied_adds + ingestor.stats.applied_removes,
            "ingest.coalesced": ingestor.stats.coalesced,
            "ingest.eager_refreshes": scheduler.stats.eager_refreshes,
            "ingest.lazy_marks": scheduler.stats.lazy_marks,
            "ingest.invalidations": scheduler.stats.invalidations,
        }
    )
    ingestor.close()
    session.close()
    return timeline


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------

CLIENTS = 2
#: One execution slot: with two, the two clients' engine work contends for
#: the interpreter lock on two threads and a run settles into one of two
#: throughput regimes (read p50 ~14 or ~19 ms) that the seed does not decide;
#: with one, the work is serialised and the waiting shows at admission.
SLOTS = 1
#: Every tenth operation of each client is an update (10% writes).
WRITE_EVERY = 10
#: New tenants timed for ``cold_answer_ms``; a first cube on a mapped
#: generation takes ~12 ms, so more samples than the heap workloads' five.
FRESH_TENANTS = 15


def serve_mixed(run: Run, workdir: str) -> List:
    loop = asyncio.new_event_loop()
    if run.tracer is not None:
        with_context(loop)
    spools: List[str] = []

    def open_service(graph):
        spool = os.path.join(workdir, f"spool-{os.getpid()}-{len(spools)}")
        spools.append(spool)
        return OLAPService(graph, run.schema, max_concurrency=SLOTS, spool_dir=spool)

    def close_service(service) -> None:
        loop.run_until_complete(service.aclose())

    try:
        _, service = run.timed_setup(open_service, close_service)
        timeline = _serve(run, loop, service)
        close_service(service)
    finally:
        loop.close()
        for spool in spools:
            shutil.rmtree(spool, ignore_errors=True)
    return timeline


def _serve(run: Run, loop, service: OLAPService) -> List:
    # Three cube shapes, each read sliced to one city: a tenant rarely reads
    # the same cube twice within one generation, so reads exercise the
    # per-generation sessions rather than their result caches.
    sites = run.roots["sites"]
    bases = [
        (CubeState("sites"), sites),
        (CubeState("words"), run.roots["words"]),
        (CubeState("sites").drill_out("dage"), DrillOut("dage").apply(sites)),
    ]
    shapes = [
        (state.restrict("dcity", {plain(city)}), Slice("dcity", city).apply(query))
        for state, query in bases
        for city in CITIES
    ]
    initial = service.current_version
    applied: List[Tuple[int, List]] = []
    #: Per read: latency, admission wait and execution seconds, strategy.
    reads: List[Tuple[float, float, float, str]] = []
    writes: List[float] = []

    async def client(index: int, deadline: float) -> None:
        rng = random.Random(f"{run.seed}-{index}")
        source = BatchSource(run.base, random.Random(f"{run.seed}-batches-{index}"), f"sm{index}",
                             keep=lambda position: position % CLIENTS == index)
        tenant = f"tenant-{index}"
        count = 0
        while time.perf_counter() < deadline:
            run.operation(len(run.ops))
            count += 1
            if count % WRITE_EVERY == 0:
                batch = source.new_post() + source.drop_post()
                started = time.perf_counter()
                try:
                    result = await service.update(
                        add=[t for sign, t in batch if sign > 0], remove=[t for sign, t in batch if sign < 0]
                    )
                except Exception as exc:
                    run.record("write", None, time.perf_counter() - started, repr(exc))
                    continue
                latency = time.perf_counter() - started
                run.record("write", None, latency)
                writes.append(latency)
                applied.append((result.version, [(sign, plain_triple(t)) for sign, t in batch]))
                continue
            state, query = rng.choice(shapes)
            started = time.perf_counter()
            try:
                served = await service.query(tenant, query)
            except Exception as exc:
                run.record("read", None, time.perf_counter() - started, repr(exc))
                continue
            latency = time.perf_counter() - started
            reads.append((latency, served.waited_seconds, served.seconds, served.strategy))
            run.record("read", run.served(state, served.graph_version, served.cube.cells()), latency)

    async def drive() -> float:
        started = time.perf_counter()
        deadline = started + run.seconds
        await asyncio.gather(*(client(index, deadline) for index in range(CLIENTS)))
        return time.perf_counter() - started

    async def fresh_tenants() -> List[float]:
        """``cold_answer_ms``: new tenants' first root cube on the idle service."""
        samples = []
        for index in range(FRESH_TENANTS):
            gc.collect()
            gc.freeze()
            tenant = f"fresh-{index}"
            run.operation(len(run.ops))
            started = time.perf_counter()
            try:
                served = await service.query(tenant, sites)
            except Exception as exc:
                run.record("cold", None, time.perf_counter() - started, repr(exc))
                continue
            latency = time.perf_counter() - started
            samples.append(latency)
            run.record("cold", run.served(CubeState("sites"), served.graph_version, served.cube.cells()), latency)
            run.extra["engine"] = service.tenant(tenant).sessions[served.graph_version].engine
        return samples

    run.phase("timed")
    wall = loop.run_until_complete(drive())
    completed = sum(1 for op in run.ops if op[3] is None)
    run.metrics["ops_per_s"] = completed / wall
    run.read_metrics([read[0] for read in reads])
    run.phase("cold")
    cold = loop.run_until_complete(fresh_tenants())
    run.metrics["cold_answer_ms"] = statistics.median(cold) * 1e3 if cold else float("nan")
    run.extra["cold_answer_ms_samples"] = [sample * 1e3 for sample in cold]
    run.extra["write_ms_p50"] = _median_ms(writes)
    run.extra["writes"] = len(writes)
    run.peak_rss_mb = peak_rss_mb()
    run.layer_data.update(
        {
            "serving.wait_ms_p50": percentile([read[1] for read in reads], 0.5) * 1e3,
            "serving.wait_ms_p90": percentile([read[1] for read in reads], 0.9) * 1e3,
            "serving.exec_ms_p50": percentile([read[2] for read in reads], 0.5) * 1e3,
            "serving.cold_reads": sum(1 for read in reads if read[3].startswith("scratch")),
        }
    )
    timeline: List[Tuple[object, Optional[List]]] = [(initial, None)]
    timeline.extend(sorted(applied, key=lambda item: item[0]))
    return timeline
