"""Forbidden families in three guises: explicit pattern lists, adjacency
characterizations, and black-box oracles over streamed subgraphs."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable

from .errors import BadParams, PreconditionViolated, TooLarge
from .graph import Graph
from .meters import MemoryMeter
from .streams import EA, KeptStream, StreamHandle

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
    def from_graphs(graphs: Iterable[Graph | PatternGraph]) -> "ExplicitFamily":
        patterns = [g if isinstance(g, PatternGraph) else PatternGraph(g) for g in graphs]
        # the first of each isomorphism class is kept: keyed by canonical form
        # up to CANONICAL_LIMIT vertices, compared by `are_isomorphic` beyond
        small: dict[tuple, PatternGraph] = {}
        large: list[PatternGraph] = []
        for p in patterns:
            if p.h <= CANONICAL_LIMIT:
                small.setdefault(canonical_form(p.graph), p)
            elif not any(are_isomorphic(q.graph, p.graph) for q in large):
                large.append(p)
        ordered = [p for _, p in sorted(small.items(), key=lambda item: item[0])]
        ordered += sorted(large, key=lambda p: (p.h, tuple(p.graph.sorted_edges())))
        return ExplicitFamily(tuple(ordered))


Plan = tuple[tuple[tuple[int, int], ...], ...]


def _placement_plan(h: Graph) -> Plan:
    """Pattern vertices by decreasing degree, each with a (depth, flip) pair
    per already-placed vertex: flip 0 for a neighbour, -1 (which complements
    a mask under xor) for a non-neighbour."""
    order = sorted(range(h.n), key=lambda v: -h.degree(v))
    return tuple(
        tuple((d, 0 if h.has_edge(v, order[d]) else -1) for d in range(i))
        for i, v in enumerate(order)
    )


def _embeds(adj: list[int], plan: Plan) -> list[int] | None:
    """Bitset search for an induced embedding of the planned pattern into the
    graph whose vertex i has neighbour mask adj[i]; the images in plan
    order, or None.  A pattern vertex's candidates are the unused vertices
    adjacent to the images of its placed neighbours and non-adjacent to the
    images of its placed non-neighbours; the lowest one is tried first."""
    k = len(plan)
    if k > len(adj):
        return None
    image = [0] * k
    image_adj = [0] * k

    def place(depth: int, unused: int) -> bool:
        if depth == k:
            return True
        cand = unused
        for d, flip in plan[depth]:
            cand &= image_adj[d] ^ flip
        while cand:
            low = cand & -cand
            v = image[depth] = low.bit_length() - 1
            image_adj[depth] = adj[v]
            if place(depth + 1, unused ^ low):
                return True
            cand ^= low
        return False

    return image if place(0, (1 << len(adj)) - 1) else None


def induced_copy(g: Graph, pattern: PatternGraph | Graph) -> tuple[int, ...] | None:
    """The vertices of one induced copy of the pattern in g, ascending: an
    injective map that preserves both edges and non-edges.  None when there
    is no copy."""
    h = pattern.graph if isinstance(pattern, PatternGraph) else pattern
    image = _embeds([sum(1 << w for w in g.neighbors(v)) for v in range(g.n)],
                    _placement_plan(h))
    return None if image is None else tuple(sorted(image))


def is_induced_subgraph(g: Graph, pattern: PatternGraph | Graph) -> bool:
    """True iff g holds an induced copy of the pattern."""
    return induced_copy(g, pattern) is not None


def are_isomorphic(a: Graph, b: Graph) -> bool:
    """Between graphs of equal order, an induced embedding is an isomorphism."""
    return a.n == b.n and a.m == b.m and is_induced_subgraph(a, b)


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
# The oracle's verdict cache keeps graphs whose neighbour masks fit in one
# 64-bit word, and is emptied when it holds CACHE_ENTRIES of them.
CACHE_VERTICES = 64
CACHE_ENTRIES = 1024


class StreamOracle:
    """Family-backed reference oracle; buffers one pass of its input stream,
    charging each vertex and edge one word on first sight.

    Kind 'a1' answers whether the streamed graph is isomorphic to some family
    member; kind 'a2' answers whether it is free of induced occurrences of
    every member.  It reads the (kept) blocks inside its one pass and keeps
    exactly what that pass shows: on EA, no vertex without a kept neighbour.

    The verdict on a buffered graph of at most CACHE_VERTICES vertices is
    cached, keyed by its neighbour masks in arrival order: what the pass
    showed, from which n and m follow.  The cache is simulator machinery,
    free like the matcher: the lookup comes after the counted pass and its
    charges, so it never changes an answer, a pass or a charge; it only
    skips a repeated search.
    """

    __slots__ = ("kind", "family", "declared_passes", "_plans", "_verdicts")

    def __init__(self, kind: str, family: ExplicitFamily):
        if kind not in (ORACLE_MEMBERSHIP, ORACLE_FREENESS):
            raise BadParams(f"unknown oracle kind {kind!r}")
        self.kind = kind
        self.family = family
        self.declared_passes = 1
        self._plans = tuple((p.graph.n, p.graph.m, _placement_plan(p.graph))
                            for p in family.members)
        self._verdicts: dict[tuple[int, ...], bool] = {}

    def answer(self, handle: StreamHandle | KeptStream,
               meter: MemoryMeter | None = None) -> bool:
        meter = meter if meter is not None else MemoryMeter()
        if isinstance(handle, KeptStream):
            kept, (handle, keep) = handle.vertices(), handle
        else:  # a whole handle keeps every vertex, in stream order
            kept = keep = handle.blocks.keys()
        blocks = handle.blocks
        adj: list[int] = []
        charged = 0

        def buffer():
            nonlocal charged
            bit_of: dict[int, int] = {}
            isolated_shown = handle.model != EA
            for v in kept:
                nbrs = blocks[v]
                if isolated_shown or not keep.isdisjoint(nbrs):
                    meter.allocate(1)
                    charged += 1
                    bit_of[v] = len(adj)
                    mask = 0
                    for w in nbrs:  # each kept edge is found at its later endpoint
                        if w in bit_of:
                            meter.allocate(1)
                            charged += 1
                            i = bit_of[w]
                            mask |= 1 << i
                            adj[i] |= 1 << len(adj)
                    adj.append(mask)

        try:
            handle.run_pass(buffer)
            if len(adj) > CACHE_VERTICES:
                return self._decide(adj, charged - len(adj))
            key = tuple(adj)
            verdict = self._verdicts.get(key)
            if verdict is None:
                if len(self._verdicts) >= CACHE_ENTRIES:
                    self._verdicts.clear()
                verdict = self._verdicts[key] = self._decide(adj, charged - len(adj))
            return verdict
        finally:
            meter.release(charged)

    def _decide(self, adj: list[int], m: int) -> bool:
        """The verdict on the graph of neighbour masks `adj` with m edges."""
        n = len(adj)
        if self.kind == ORACLE_MEMBERSHIP:
            return any(pn == n and pm == m and _embeds(adj, plan) is not None
                       for pn, pm, plan in self._plans)
        return all(_embeds(adj, plan) is None for _, _, plan in self._plans)


def family_oracle(f: ExplicitFamily, kind: str) -> StreamOracle:
    return StreamOracle(kind, f)
