"""Immutable simple undirected graphs with dense 0..n-1 vertex ids, and
vertex covers.  Edges come as (u, v) pairs or as two id columns, as the
`.vcs` reader gives them; in canonical order, as a sorted file lists them,
they are checked by a few whole-list passes over the columns; a cover by a
degree sum."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from operator import lt
from typing import Iterable, NamedTuple

from .errors import DuplicateEdge, InvalidCover, ParseError

Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class EdgeColumns(NamedTuple):
    """Edges as two equal-length id columns: edge i is (us[i], vs[i])."""

    us: list[int]
    vs: list[int]


def _ascending(us: list[int], vs: list[int], n: int) -> bool:
    """True when the edges (us[i], vs[i]) are pairs u < v in strictly
    ascending order with ids in 0..n-1, as a canonical file lists them: then
    no edge is a self-loop or a repeat, and every id lies between the first u
    and the largest v.  Consecutive pairs are compared through two `zip`s,
    which reuse their tuples, so no tuple is kept per edge."""
    try:
        return not us or (us[0] >= 0 and all(map(lt, us, vs))
                          and all(map(lt, zip(us, vs), zip(islice(us, 1, None), islice(vs, 1, None))))
                          and max(vs) < n)
    except TypeError:  # ids of mixed types: checked one by one
        return False


class Graph:
    """Simple undirected graph: one ascending neighbour tuple per vertex; the
    edge set (u < v) and per-vertex frozensets are built on first use.  The
    constructor takes (u, v) pairs or `EdgeColumns`, and checks every edge, a
    file's too: range, self-loop, duplicate.  Edges in canonical order
    (ascending, u < v) are checked by a few C-level passes over the two id
    columns; any other order is checked edge by edge, in that order."""

    def __init__(self, n: int, edges: Iterable[Edge] | EdgeColumns = ()):
        if n < 0:
            raise ParseError("negative vertex count")
        if type(edges) is EdgeColumns:
            us, vs = edges
        else:
            edges = edges if isinstance(edges, (list, tuple)) else list(edges)  # read twice
            us = [u for u, _ in edges]
            vs = [v for _, v in edges]
        adj: list[list[int]] = [[] for _ in range(n)]
        if _ascending(us, vs, n):  # no sort: w's edges (u, w), u < w, precede its (w, v)
            for u, v in zip(us, vs):
                adj[u].append(v)
                adj[v].append(u)
        else:
            for u, v in zip(us, vs):
                if u == v or not (0 <= u < n and 0 <= v < n):
                    break
                adj[u].append(v)
                adj[v].append(u)
            if sum(map(len, map(set, adj))) != 2 * len(us):  # a break, or a neighbour twice:
                seen: set[Edge] = set()  # name the first bad edge in the edges' order
                for u, v in zip(us, vs):
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
        self.n, self.m, self.nbrs = n, len(us), tuple(map(tuple, adj))

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
        """Degree-sum test: X covers exactly when the edges it touches, its
        degrees less its inside edges counted once, are all m edges."""
        s = set(members)
        nbrs, n = self.nbrs, self.n
        touched2 = sum(2 * len(nbrs[x]) - len(s.intersection(nbrs[x])) for x in s if 0 <= x < n)
        return touched2 == 2 * self.m

    def induced(self, keep: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on `keep`, relabeled densely in order (so its edges
        come out ascending off the neighbour tuples); returns (graph, old ids)."""
        old = tuple(sorted(set(keep)))
        index = {v: i for i, v in enumerate(old)}
        nbrs = self.nbrs
        edges = [(i, index[v]) for i, u in enumerate(old) for v in nbrs[u] if u < v and v in index]
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
        if not g.is_cover(cover.members):  # name the smallest uncovered edge, u < v
            s = cover.member_set()
            u, v = next((u, v) for u, nbrs in enumerate(g.nbrs) if u not in s
                        for v in nbrs if v not in s)
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
