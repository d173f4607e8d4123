"""Forbidden families in three guises: explicit pattern lists, adjacency
characterizations, and black-box oracles over streamed subgraphs."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable

from .errors import BadParams, PreconditionViolated, TooLarge
from .graph import Graph
from .meters import MemoryMeter
from .streams import EDGE, PASS_END, StreamHandle

CANONICAL_LIMIT = 8


@dataclass(frozen=True)
class PatternGraph:
    """A forbidden pattern; matched as an induced subgraph."""

    graph: Graph
    name: str = ""

    def __post_init__(self):
        if self.graph.n < 1:
            raise BadParams("pattern must have at least one vertex")

    @property
    def h(self) -> int:
        return self.graph.n


def canonical_form(g: Graph) -> tuple:
    """Canonical edge list by exhaustive relabeling; only for small graphs."""
    if g.n > CANONICAL_LIMIT:
        raise TooLarge(f"canonical form limited to {CANONICAL_LIMIT} vertices")
    best = None
    for perm in permutations(range(g.n)):
        relabeled = tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges)
        )
        if best is None or relabeled < best:
            best = relabeled
    return (g.n, best)


def _dedup_key(g: Graph) -> tuple:
    # exact up to the canonicalization limit; label-sensitive beyond it
    if g.n <= CANONICAL_LIMIT:
        return canonical_form(g)
    return (g.n, tuple(g.sorted_edges()))


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    return canonical_form(a) == canonical_form(b)


@dataclass(frozen=True)
class ExplicitFamily:
    """Finite forbidden family, deduplicated up to isomorphism."""

    members: tuple[PatternGraph, ...]

    @property
    def q(self) -> int:
        return len(self.members)

    @property
    def nu(self) -> int:
        return max((p.h for p in self.members), default=0)

    @staticmethod
    def from_graphs(graphs: Iterable[Graph | PatternGraph], names: Iterable[str] | None = None) -> "ExplicitFamily":
        patterns = []
        names = list(names) if names is not None else None
        for i, g in enumerate(graphs):
            if isinstance(g, PatternGraph):
                patterns.append(g)
            else:
                patterns.append(PatternGraph(g, names[i] if names else ""))
        seen = {}
        for p in patterns:
            key = _dedup_key(p.graph)
            if key not in seen:
                seen[key] = p
        ordered = sorted(seen.values(), key=lambda p: _dedup_key(p.graph))
        return ExplicitFamily(tuple(ordered))


def is_induced_subgraph(g: Graph, pattern: PatternGraph | Graph) -> bool:
    """True iff some injective map embeds the pattern into g preserving both
    edges and non-edges."""
    h = pattern.graph if isinstance(pattern, PatternGraph) else pattern
    if h.n > g.n:
        return False

    order = sorted(range(h.n), key=lambda v: -h.degree(v))
    assigned: dict[int, int] = {}
    used: set[int] = set()

    def extend(depth: int) -> bool:
        if depth == h.n:
            return True
        hv = order[depth]
        for gv in range(g.n):
            if gv in used:
                continue
            ok = True
            for prev in order[:depth]:
                if h.has_edge(hv, prev) != g.has_edge(gv, assigned[prev]):
                    ok = False
                    break
            if ok:
                assigned[hv] = gv
                used.add(gv)
                if extend(depth + 1):
                    return True
                used.discard(gv)
                del assigned[hv]
        return False

    return extend(0)


def vertex_minimal_members(f: ExplicitFamily) -> ExplicitFamily:
    """Members none of whose proper induced subgraphs is itself a member."""
    keep = []
    for p in f.members:
        smaller = [q for q in f.members if q.h < p.h]
        if not any(is_induced_subgraph(p.graph, q) for q in smaller):
            keep.append(p)
    return ExplicitFamily(tuple(keep))


@dataclass
class AdjacencyCharacterization:
    """User-supplied constants (c_pi, p) describing the family; not derivable
    from a finite member list, so they are echoed into reports rather than
    verified."""

    c_pi: int
    p: Callable[[int], int]
    connected_only: bool = False
    p_label: str = ""

    def __post_init__(self):
        if self.c_pi < 0:
            raise BadParams("c_pi must be non-negative")

    def p_of(self, K: int) -> int:
        """p(K), after checking that p(1..K) is non-decreasing and p(K) >= 1."""
        value = int(self.p(K))
        values = [int(self.p(k)) for k in range(1, K)] + [value]
        if any(a > b for a, b in zip(values, values[1:])):
            raise BadParams(f"p must be non-decreasing on 1..{K}")
        if value < 1:
            raise BadParams(f"p({K}) = {value} must be >= 1")
        return value


def parse_pfun(expr: str) -> Callable[[int], int]:
    """Parse a closed-form p as '<b>', 'K', 'a*K', or 'a*K+b'."""
    text = expr.replace(" ", "")
    try:
        if "K" not in text:
            b = int(text)
            return lambda K, _b=b: _b
        head, _, tail = text.partition("K")
        a = 1
        if head:
            if not head.endswith("*"):
                raise ValueError
            a = int(head[:-1]) if head[:-1] else 1
        b = 0
        if tail:
            b = int(tail)
        return lambda K, _a=a, _b=b: _a * K + _b
    except ValueError as exc:
        raise BadParams(f"cannot parse p function {expr!r}") from exc


def bounded_members(f: ExplicitFamily, char: AdjacencyCharacterization, K: int) -> ExplicitFamily:
    """Members small enough to occur next to a size-K cover: h <= (c_pi + 1) * K.

    Requires every member connected with at least one edge."""
    if not char.connected_only:
        raise PreconditionViolated("characterization must be declared connected-only")
    for p in f.members:
        if p.graph.m < 1:
            raise PreconditionViolated(f"member {p.name or p.h} is edgeless")
        if not p.graph.is_connected():
            raise PreconditionViolated(f"member {p.name or p.h} is disconnected")
    bound = (char.c_pi + 1) * K
    return ExplicitFamily(tuple(p for p in f.members if p.h <= bound))


ORACLE_MEMBERSHIP = "a1"
ORACLE_FREENESS = "a2"


class StreamOracle:
    """Family-backed reference oracle; buffers one pass of its input stream,
    charging each vertex and edge one word on first sight.

    Kind 'a1' answers whether the streamed graph is isomorphic to some family
    member; kind 'a2' answers whether it is free of induced occurrences of
    every member.
    """

    __slots__ = ("kind", "family", "declared_passes")

    def __init__(self, kind: str, family: ExplicitFamily):
        if kind not in (ORACLE_MEMBERSHIP, ORACLE_FREENESS):
            raise BadParams(f"unknown oracle kind {kind!r}")
        self.kind = kind
        self.family = family
        self.declared_passes = 1

    def answer(self, handle: StreamHandle, meter: MemoryMeter | None = None) -> bool:
        meter = meter if meter is not None else MemoryMeter()
        vertices: set[int] = set()
        edges: set[tuple[int, int]] = set()

        def consume(events):
            for kind, u, v in events:
                if kind == PASS_END:
                    continue
                if u not in vertices:
                    meter.allocate(1)
                    vertices.add(u)
                if kind == EDGE:
                    if v not in vertices:
                        meter.allocate(1)
                        vertices.add(v)
                    if (u, v) not in edges:
                        meter.allocate(1)
                        edges.add((u, v))

        try:
            handle.run_pass(consume)
            labels = sorted(vertices)
            index = {v: i for i, v in enumerate(labels)}
            g = Graph(len(labels), [(index[u], index[v]) for u, v in edges])
            if self.kind == ORACLE_MEMBERSHIP:
                return any(are_isomorphic(g, p.graph) for p in self.family.members)
            return not any(is_induced_subgraph(g, p) for p in self.family.members)
        finally:
            meter.release(len(vertices) + len(edges))


def family_oracle(f: ExplicitFamily, kind: str) -> StreamOracle:
    return StreamOracle(kind, f)
