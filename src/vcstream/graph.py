"""Immutable simple undirected graphs with dense 0..n-1 vertex ids."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .errors import DuplicateEdge, InvalidCover, ParseError

Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph: one ascending neighbour tuple per vertex; the
    edge set (u < v) and per-vertex frozensets are built on first use.  The
    constructor checks every edge, a file's too: range, self-loop, duplicate."""

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ParseError("negative vertex count")
        edges = edges if isinstance(edges, (list, tuple)) else list(edges)  # read twice if bad
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                break
            adj[u].append(v)
            adj[v].append(u)
        if sum(map(len, map(set, adj))) != 2 * len(edges):  # a break, or a neighbour twice:
            seen: set[Edge] = set()  # name the first bad edge in `edges`' order
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise ParseError(f"vertex id out of range: ({u},{v})")
                if u == v:
                    raise ParseError(f"self-loop at {u}")
                e = (u, v) if u < v else (v, u)
                if e in seen:
                    raise DuplicateEdge(f"duplicate edge {e}")
                seen.add(e)
        for nbrs in adj:
            nbrs.sort()
        self.n, self.m, self.nbrs = n, len(edges), tuple(map(tuple, adj))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.sorted_edges())

    @cached_property
    def _adj(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, self.nbrs))

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.nbrs[v])

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and v in self._adj[u]

    def sorted_edges(self) -> list[Edge]:
        return [(u, v) for u, nbrs in enumerate(self.nbrs) for v in nbrs if u < v]

    def is_cover(self, members: Iterable[int]) -> bool:
        s = set(members)
        return all(u in s or s.issuperset(nbrs) for u, nbrs in enumerate(self.nbrs))

    def induced(self, keep: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on `keep`, relabeled densely; returns (graph, old ids)."""
        old = tuple(sorted(set(keep)))
        index = {v: i for i, v in enumerate(old)}
        edges = [
            (index[u], index[v]) for u, v in self.edges if u in index and v in index
        ]
        return Graph(len(old), edges), old

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in self.nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.nbrs == other.nbrs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.nbrs))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class VertexCover:
    """Ordered vertex subset meeting every edge of its associated graph."""

    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))

    @property
    def K(self) -> int:
        return len(self.members)

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @staticmethod
    def validated(g: Graph, members: Iterable[int]) -> "VertexCover":
        cover = VertexCover(tuple(members))
        for v in cover.members:
            if not 0 <= v < g.n:
                raise InvalidCover(f"cover vertex {v} out of range")
        s = cover.member_set()
        for u, nbrs in enumerate(g.nbrs):  # an outside vertex sees only members
            if u not in s and not s.issuperset(nbrs):
                v = next(w for w in nbrs if w not in s)  # (u, v) is the smallest uncovered edge
                raise InvalidCover(f"edge ({u},{v}) not covered")
        return cover


def empty_graph(n: int) -> Graph:
    return Graph(n)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParseError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and `leaves` leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def require_cover(g: Graph, cover: VertexCover) -> None:
    if not g.is_cover(cover.members):
        raise InvalidCover("X does not cover the graph")


def minimum_vertex_cover(g: Graph) -> tuple[int, ...]:
    """Lexicographically first minimum vertex cover, by exhaustive search."""
    for size in range(g.n + 1):
        for cand in combinations(range(g.n), size):
            if g.is_cover(cand):
                return cand
    return tuple(range(g.n))
