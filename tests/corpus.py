"""Shared small-graph corpora and cover enumeration for the test suite.

The graph atlas (everything up to 7 vertices, one representative per
isomorphism class) is the exhaustive ground set; covers are enumerated
directly.
"""

from __future__ import annotations

import functools
from itertools import combinations

import networkx as nx
from hypothesis import strategies as st
from networkx.generators.atlas import graph_atlas_g

from vcstream.graph import Graph, VertexCover


def from_networkx(nxg) -> Graph:
    nodes = sorted(nxg.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), [(index[u], index[v]) for u, v in nxg.edges()])


@functools.lru_cache(maxsize=None)
def _atlas():
    return tuple(graph_atlas_g())


@functools.lru_cache(maxsize=None)
def atlas_graphs(min_n: int = 2, max_n: int = 6, connected: bool = True) -> tuple[Graph, ...]:
    out = []
    for nxg in _atlas():
        n = nxg.number_of_nodes()
        if n < min_n or n > max_n:
            continue
        if connected and not (n > 0 and nx.is_connected(nxg)):
            continue
        out.append(from_networkx(nxg))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def disconnected_sample(max_n: int = 6, step: int = 6) -> tuple[Graph, ...]:
    """Every step-th disconnected graph with at least one edge."""
    picked = []
    idx = 0
    for nxg in _atlas():
        n = nxg.number_of_nodes()
        if n < 2 or n > max_n or nxg.number_of_edges() == 0:
            continue
        if nx.is_connected(nxg):
            continue
        if idx % step == 0:
            picked.append(from_networkx(nxg))
        idx += 1
    return tuple(picked)


def all_covers(g: Graph, max_k: int) -> list[tuple[int, ...]]:
    """Every valid vertex cover of size at most max_k, ascending by size."""
    found = []
    for size in range(min(max_k, g.n) + 1):
        for cand in combinations(range(g.n), size):
            if g.is_cover(cand):
                found.append(cand)
    return found


def minimum_cover(g: Graph) -> tuple[int, ...]:
    for size in range(g.n + 1):
        for cand in combinations(range(g.n), size):
            if g.is_cover(cand):
                return cand
    return tuple(range(g.n))


@st.composite
def planted_covers(draw, max_n=40, max_k=5):
    """A graph covered by K drawn vertices, in a shuffled order; outside
    vertices take their cover masks from a small pool, so masks repeat."""
    n = draw(st.integers(1, max_n))
    cover = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(max_k, n),
                          unique=True))
    rnd = draw(st.randoms(use_true_random=False))
    pool = draw(st.lists(st.integers(0, (1 << len(cover)) - 1), min_size=1, max_size=4))
    edges = [(a, b) for i, a in enumerate(cover) for b in cover[i + 1:] if rnd.random() < 0.5]
    for v in range(n):
        if v not in cover:
            mask = rnd.choice(pool)
            edges += [(c, v) for i, c in enumerate(cover) if mask >> i & 1]
    g = Graph(n, edges)
    return g, VertexCover.validated(g, cover), draw(st.permutations(range(n)))
