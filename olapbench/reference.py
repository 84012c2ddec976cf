"""Independent reference for every cube the benchmark serves.

The reference evaluates the paper's Definition 1 over a plain set of
triples.  It imports nothing from ``repro.bgp``, ``repro.algebra``,
``repro.analytics`` or ``repro.olap``: terms are turned into plain Python
values (IRIs into ``"<...>"`` strings, ``xsd:integer`` literals into ints),
the classifier and measure bodies are written out below as triple patterns,
and a small nested-loop matcher evaluates them.  The same deltas the
workload applies to the engine are applied here, so a cube served at graph
version ``v`` is compared with Definition 1 evaluated at ``v``.

Definition 1, for ``Q = <c(x, d1..dn), m(x, v), agg>``: the classifier is
evaluated with set semantics over its head ``(x, d1..dn)`` after Σ, the
measure with bag semantics (one value per embedding).  Each cell
``(d1..dn)`` aggregates the union of the measure bags of its facts; a fact
with an empty bag contributes nothing.  A ROLL-UP replaces the rolled
dimension's values by their band before the set-semantics projection, with
the Σ in force before the roll applied to the finer values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.rdf.terms import IRI, BlankNode, Literal

XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"


def ex(local: str) -> str:
    return f"<http://example.org/{local}>"


#: ``c(x, dage, dcity)`` of the paper's Example 1 (both cubes share it).
CLASSIFIER = (
    ("?x", RDF_TYPE, ex("Blogger")),
    ("?x", ex("hasAge"), "?dage"),
    ("?x", ex("livesIn"), "?dcity"),
)
CLASSIFIER_HEAD = ("?x", "?dage", "?dcity")

#: Measure bodies and aggregates of the two root cubes.
MEASURES = {
    "sites": (
        (
            ("?x", RDF_TYPE, ex("Blogger")),
            ("?x", ex("wrotePost"), "?p"),
            ("?p", ex("postedOn"), "?v"),
        ),
        "count",
    ),
    "words": (
        (
            ("?x", RDF_TYPE, ex("Blogger")),
            ("?x", ex("wrotePost"), "?p"),
            ("?p", ex("hasWordCount"), "?v"),
        ),
        "avg",
    ),
}

#: The banded age hierarchy ROLL-UP uses: (low, high, label), inclusive.
AGE_BANDS = ((18, 29, "age18-29"), (30, 44, "age30-44"), (45, 200, "age45+"))


def age_band(age: int) -> str:
    for low, high, label in AGE_BANDS:
        if low <= age <= high:
            return label
    raise ValueError(f"age {age!r} is outside every band")


_PLAIN: Dict[object, object] = {}


def plain(term) -> object:
    """The plain value of an engine term (hierarchy labels pass through)."""
    try:
        return _PLAIN[term]
    except KeyError:
        pass
    except TypeError:
        return term
    if isinstance(term, IRI):
        value: object = "<" + term.value + ">"
    elif isinstance(term, Literal):
        if term.datatype == XSD_INTEGER:
            value = int(term.lexical)
        elif term.language:
            value = f'"{term.lexical}"@{term.language}'
        else:
            value = f'"{term.lexical}"^^<{term.datatype}>'
    elif isinstance(term, BlankNode):
        value = "_:" + term.label
    else:
        value = term
    _PLAIN[term] = value
    return value


def plain_triple(triple) -> Tuple[object, object, object]:
    subject, predicate, object_ = triple
    return plain(subject), plain(predicate), plain(object_)


# ---------------------------------------------------------------------------
# cube states
# ---------------------------------------------------------------------------

Restriction = FrozenSet[object]
Sigma = Tuple[Tuple[str, Restriction], ...]


@dataclass(frozen=True)
class CubeState:
    """A plain description of one cube, kept alongside the engine's query.

    ``sigma`` maps a dimension to its allowed plain values (absent: no
    restriction).  ``rolled`` is None, or the Σ that was in force when
    ``dage`` was rolled up through :data:`AGE_BANDS`; while rolled, ``sigma``
    restricts the band-level values.
    """

    base: str
    dims: Tuple[str, ...] = ("dage", "dcity")
    sigma: Sigma = ()
    rolled: Optional[Sigma] = None

    def restriction(self, dim: str) -> Optional[Restriction]:
        return dict(self.sigma).get(dim)

    def restrict(self, dim: str, allowed: Iterable[object]) -> "CubeState":
        allowed = frozenset(allowed)
        current = self.restriction(dim)
        if current is not None:
            allowed = allowed & current
        sigma = dict(self.sigma)
        sigma[dim] = allowed
        return replace(self, sigma=tuple(sorted(sigma.items(), key=lambda item: item[0])))

    def drill_out(self, dim: str) -> "CubeState":
        dims = tuple(name for name in self.dims if name != dim)
        sigma = tuple(item for item in self.sigma if item[0] != dim)
        return replace(self, dims=dims, sigma=sigma)

    def drill_in(self, dim: str) -> "CubeState":
        return replace(self, dims=self.dims + (dim,))

    def roll_up(self) -> "CubeState":
        """Roll ``dage`` up: its Σ moves to the finer level, the others stay."""
        sigma = tuple(item for item in self.sigma if item[0] != "dage")
        return replace(self, sigma=sigma, rolled=self.sigma)

    def describe(self) -> str:
        parts = [self.base, "(" + ",".join(self.dims) + ")"]
        for dim, allowed in self.sigma:
            parts.append(f"{dim}∈{{{len(allowed)}}}")
        if self.rolled is not None:
            parts.append("rolled(dage)")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# the plain triple store and Definition 1
# ---------------------------------------------------------------------------


class ReferenceStore:
    """A plain triple set with two indexes, mutated by the workload's deltas.

    Definition 1 is evaluated fact by fact: for every fact ``x`` the store
    keeps its classifier tuples and, per cube, its measure bag ``q(x)``,
    each computed by evaluating the body with ``x`` bound.  A delta only
    re-derives the facts it can reach: those with an embedding that uses a
    mutated triple, before or after the change.
    """

    def __init__(self, triples: Iterable[Tuple[object, object, object]]):
        self._by_subject: Dict[object, Dict[object, set]] = {}
        self._by_object: Dict[object, Dict[object, set]] = {}
        for triple in triples:
            self.add(triple)
        self._bodies = {"classifier": (CLASSIFIER, CLASSIFIER_HEAD[1:])}
        for base, (body, _) in MEASURES.items():
            self._bodies[base] = (body, ("?v",))
        #: body name -> fact -> tuples of the head after ``x`` (bag).
        self._per_fact: Dict[str, Dict[object, List[Tuple]]] = {}
        for name, (body, head) in self._bodies.items():
            per_fact: Dict[object, List[Tuple]] = {}
            for row in self.embeddings(body, ("?x",) + head):
                per_fact.setdefault(row[0], []).append(row[1:])
            self._per_fact[name] = per_fact
        self.version = 0
        self._answers: Dict[CubeState, Dict[Tuple, float]] = {}

    def add(self, triple) -> None:
        subject, predicate, object_ = triple
        self._by_subject.setdefault(predicate, {}).setdefault(subject, set()).add(object_)
        self._by_object.setdefault(predicate, {}).setdefault(object_, set()).add(subject)

    def remove(self, triple) -> None:
        subject, predicate, object_ = triple
        objects = self._by_subject.get(predicate, {}).get(subject)
        if not objects or object_ not in objects:
            return
        objects.discard(object_)
        if not objects:
            del self._by_subject[predicate][subject]
        subjects = self._by_object[predicate][object_]
        subjects.discard(subject)
        if not subjects:
            del self._by_object[predicate][object_]

    def apply(self, mutations: Iterable[Tuple[int, Tuple]]) -> None:
        """Apply ``(sign, plain triple)`` mutations in order; one new version."""
        mutations = list(mutations)
        reached = self._reached(triple for _, triple in mutations)
        for sign, triple in mutations:
            if sign > 0:
                self.add(triple)
            else:
                self.remove(triple)
        reached |= self._reached(triple for _, triple in mutations)
        for name, (body, head) in self._bodies.items():
            per_fact = self._per_fact[name]
            for fact in reached:
                rows = self.embeddings(body, head, {"?x": fact})
                if rows:
                    per_fact[fact] = rows
                else:
                    per_fact.pop(fact, None)
        self.version += 1
        self._answers.clear()

    def _reached(self, triples) -> set:
        """Facts with an embedding, in the current state, that uses one of ``triples``."""
        facts = set()
        for triple in triples:
            for body, _ in self._bodies.values():
                for pattern in body:
                    binding = _unify(pattern, triple)
                    if binding is not None:
                        facts.update(row[0] for row in self.embeddings(body, ("?x",), binding))
        return facts

    # -- BGP matching ---------------------------------------------------

    def embeddings(self, patterns, head, binding: Optional[Dict[str, object]] = None) -> List[Tuple]:
        """Every embedding of the body extending ``binding``, projected on ``head`` (a bag).

        Patterns are joined greedily, most-bound first; each partial
        embedding is a tuple of the variables in order of first binding.
        """
        variables: List[str] = list(binding or {})
        rows: List[Tuple] = [tuple((binding or {}).values())]
        remaining = list(patterns)

        def bound(term) -> bool:
            return not (isinstance(term, str) and term.startswith("?")) or term in variables

        while remaining:
            pattern = max(remaining, key=lambda p: bound(p[0]) + bound(p[2]))
            remaining.remove(pattern)
            subject, predicate, object_ = pattern

            def slot(term):
                if isinstance(term, str) and term.startswith("?"):
                    if term in variables:
                        return "bound", variables.index(term)
                    variables.append(term)
                    return "new", None
                return "const", term

            s_kind, s_value = slot(subject)
            o_kind, o_value = slot(object_)
            by_subject = self._by_subject.get(predicate, {})
            by_object = self._by_object.get(predicate, {})
            extended: List[Tuple] = []
            if s_kind != "new":
                for row in rows:
                    s = row[s_value] if s_kind == "bound" else s_value
                    objects = by_subject.get(s, ())
                    if o_kind == "new":
                        extended.extend(row + (o,) for o in objects)
                    elif (row[o_value] if o_kind == "bound" else o_value) in objects:
                        extended.append(row)
            elif o_kind != "new":
                for row in rows:
                    o = row[o_value] if o_kind == "bound" else o_value
                    extended.extend(row + (s,) for s in by_object.get(o, ()))
            else:
                for row in rows:
                    for s, objects in by_subject.items():
                        extended.extend(row + (s, o) for o in objects)
            rows = extended
        positions = [variables.index(variable) for variable in head]
        return [tuple(row[position] for position in positions) for row in rows]

    # -- Definition 1 ---------------------------------------------------

    def answer(self, state: CubeState) -> Dict[Tuple, float]:
        """``ans(Q)`` of ``state`` at the store's current version."""
        if state in self._answers:
            return self._answers[state]
        bags = self._per_fact[state.base]
        aggregate = MEASURES[state.base][1]
        position = {"dage": 0, "dcity": 1}
        finer, coarse = (state.sigma, ()) if state.rolled is None else (state.rolled, state.sigma)
        finer = [(position[dim], allowed) for dim, allowed in finer]
        coarse = [(position[dim], allowed) for dim, allowed in coarse]
        cell_positions = [position[dim] for dim in state.dims]
        groups: Dict[Tuple, List[object]] = {}
        for fact, rows in self._per_fact["classifier"].items():
            bag = bags.get(fact)
            if not bag:
                continue  # an empty bag contributes nothing
            cells = set()
            for row in rows:
                if any(row[index] not in allowed for index, allowed in finer):
                    continue
                if state.rolled is not None:
                    row = (age_band(row[0]), row[1])
                    if any(row[index] not in allowed for index, allowed in coarse):
                        continue
                cells.add(tuple(row[index] for index in cell_positions))
            for cell in cells:  # set semantics over (x, d1..dn)
                groups.setdefault(cell, []).extend(value for (value,) in bag)
        if aggregate == "count":
            answer = {cell: float(len(values)) for cell, values in groups.items()}
        else:
            answer = {cell: sum(values) / len(values) for cell, values in groups.items()}
        self._answers[state] = answer
        return answer


def _unify(pattern, triple) -> Optional[Dict[str, object]]:
    """The binding that maps ``pattern`` onto ``triple``, or None."""
    binding: Dict[str, object] = {}
    for term, value in zip(pattern, triple):
        if isinstance(term, str) and term.startswith("?"):
            if binding.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return binding


# ---------------------------------------------------------------------------
# comparing served cubes
# ---------------------------------------------------------------------------


def normalize_cells(cells: Dict[Tuple, object]) -> Dict[Tuple, float]:
    """Plain keys and float measures of an engine cube's cells."""
    return {tuple(plain(value) for value in key): float(measure) for key, measure in cells.items()}


def fingerprint(cells: Dict[Tuple, float]) -> int:
    """Order-free digest of normalized cells (measures to 9 significant digits)."""
    return hash(frozenset((key, float(f"{value:.9g}")) for key, value in cells.items()))


def same_cells(left: Dict[Tuple, float], right: Dict[Tuple, float], tolerance: float = 1e-9) -> bool:
    if left.keys() != right.keys():
        return False
    for key, value in left.items():
        other = right[key]
        if abs(value - other) > tolerance * max(1.0, abs(other)):
            return False
    return True


def describe_difference(served: Dict[Tuple, float], expected: Dict[Tuple, float]) -> str:
    missing = [key for key in expected if key not in served]
    extra = [key for key in served if key not in expected]
    wrong = [
        (key, served[key], expected[key])
        for key in served
        if key in expected and not same_cells({key: served[key]}, {key: expected[key]})
    ]
    return (
        f"{len(served)} cells served, {len(expected)} expected; "
        f"missing {missing[:3]}, extra {extra[:3]}, wrong {wrong[:3]}"
    )
