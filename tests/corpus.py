"""Shared small-graph corpora and cover enumeration for the test suite.

The graph atlas (everything up to 7 vertices, one representative per
isomorphism class) is the exhaustive ground set; covers are enumerated
directly.  `reference_view` is the per-block form that a class index groups,
built from the graph alone.  `BAD_INSTANCES` is the table of bad `.vcs` texts that the parser
and the CLI tests share.
"""

from __future__ import annotations

import functools
from itertools import combinations

import networkx as nx
from hypothesis import strategies as st
from networkx.generators.atlas import graph_atlas_g

from vcstream.errors import DuplicateEdge, InvalidCover, ParseError
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


def reference_view(g: Graph, order, members) -> tuple[tuple[int, int, int, tuple[int, ...]], ...]:
    """The per-block reference for a class index of `members`, recomputed
    from the graph: one (v, bit, mask, nbrs) per vertex of `order`, in that
    order, with v's own bit (0 outside `members`), N(v) & members as bits
    over the sorted members, and v's neighbours by stream position.  Where
    `order` is a substream's, N(v) is taken inside it."""
    pos = {v: i for i, v in enumerate(order)}
    ranked = sorted(members)
    out = []
    for v in order:
        nbrs = [w for w in g.neighbors(v) if w in pos]
        mask = sum(1 << i for i, x in enumerate(ranked) if x in nbrs)
        bit = 1 << ranked.index(v) if v in members else 0
        out.append((v, bit, mask, tuple(sorted(nbrs, key=pos.__getitem__))))
    return tuple(out)


@st.composite
def planted_covers(draw, max_n=40, max_k=5, masks=(1, 4)):
    """A graph covered by K drawn vertices, in a shuffled order; outside
    vertices take their cover masks from a pool of `masks` (least, most)
    drawn masks, so masks repeat."""
    n = draw(st.integers(1, max_n))
    cover = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(max_k, n),
                          unique=True))
    rnd = draw(st.randoms(use_true_random=False))
    pool = draw(st.lists(st.integers(0, (1 << len(cover)) - 1), min_size=masks[0],
                         max_size=masks[1]))
    edges = [(a, b) for i, a in enumerate(cover) for b in cover[i + 1:] if rnd.random() < 0.5]
    for v in range(n):
        if v not in cover:
            mask = rnd.choice(pool)
            edges += [(c, v) for i, c in enumerate(cover) if mask >> i & 1]
    g = Graph(n, edges)
    return g, VertexCover.validated(g, cover), draw(st.permutations(range(n)))


@st.composite
def twin_classes(draw, max_n=40, max_k=5):
    """K cover vertices with random edges among them, one to three twin
    classes of 2 or 3 outside vertices that see the same one or two cover
    vertices, and isolated vertices up to n; ids and order are shuffled.
    Two twins and a cover vertex they both see induce a P3, so a solution
    that keeps that cover vertex deletes all but one twin of the class."""
    k = draw(st.integers(1, max_k))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [(a, b) for a in range(k) for b in range(a + 1, k) if rnd.random() < 0.25]
    n = k
    for _ in range(draw(st.integers(1, 3))):
        seen = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2, unique=True))
        size = draw(st.integers(2, 3))
        edges += [(c, v) for v in range(n, n + size) for c in seen]
        n += size
    n = draw(st.integers(n, max(n, max_n)))
    label = draw(st.permutations(range(n)))
    g = Graph(n, [(label[u], label[v]) for u, v in edges])
    return g, VertexCover.validated(g, label[:k]), draw(st.permutations(range(n)))


# Bad `.vcs` texts: (id, text, exception class from `parse_instance`, a
# fragment of its message).  Most are a spoiled copy of P3 0-1-2 with cover
# {1}; every one must make the CLI exit 3.
P3_HEAD = "p vcstream 3 2 1 1\n"
BAD_INSTANCES = [
    ("unknown_tag", P3_HEAD + "x 1\nq 0 1\ne 0 1\ne 1 2\n", ParseError,
     "unknown line tag 'q'"),
    ("missing_header", "x 1\ne 0 1\ne 1 2\n", ParseError, "missing 'p vcstream' header"),
    ("wrong_header_kind", "p wrong 1 0 0 0\nx\n", ParseError, "missing 'p vcstream' header"),
    ("header_five_fields", "p vcstream 3 2 1\nx 1\ne 0 1\ne 1 2\n", ParseError,
     "malformed header"),
    ("header_non_integer", "p vcstream 3 two 1 1\nx 1\ne 0 1\ne 1 2\n", ParseError,
     "non-integer header field"),
    ("edge_one_field", P3_HEAD + "x 1\ne 0\ne 1 2\n", ParseError, "malformed edge line"),
    ("edge_three_fields", P3_HEAD + "x 1\ne 0 1 2\ne 1 2\n", ParseError,
     "malformed edge line"),
    ("edge_non_integer", P3_HEAD + "x 1\ne 0 x\ne 1 2\n", ParseError, "malformed edge line"),
    ("self_loop", "p vcstream 3 1 1 1\nx 1\ne 2 2\n", ParseError, "self-loop at 2"),
    ("endpoint_negative", P3_HEAD + "x 1\ne -1 1\ne 1 2\n", ParseError,
     "vertex id out of range: (-1,1)"),
    ("endpoint_at_n", P3_HEAD + "x 1\ne 0 1\ne 1 3\n", ParseError,
     "vertex id out of range: (1,3)"),
    ("duplicate_edge", P3_HEAD + "x 1\ne 0 1\ne 0 1\n", DuplicateEdge, "duplicate edge (0, 1)"),
    ("duplicate_edge_reversed", P3_HEAD + "x 1\ne 0 1\ne 1 0\n", DuplicateEdge,
     "duplicate edge (0, 1)"),
    ("edge_count_mismatch", P3_HEAD + "x 1\ne 0 1\n", ParseError,
     "header declares 2 edges, found 1"),
    # the header's counts are checked before any edge
    ("duplicate_edge_and_count_mismatch", P3_HEAD + "x 1\ne 0 1\ne 1 0\ne 1 2\n",
     ParseError, "header declares 2 edges, found 3"),
    ("cover_count_mismatch", P3_HEAD + "x 1 2\ne 0 1\ne 1 2\n", ParseError,
     "header declares cover size 1, found 2"),
    ("missing_cover_line", P3_HEAD + "e 0 1\ne 1 2\n", ParseError, "missing cover line"),
    ("duplicate_cover_line", P3_HEAD + "x 1\nx 1\ne 0 1\ne 1 2\n", ParseError,
     "duplicate cover line"),
    ("cover_non_integer", P3_HEAD + "x one\ne 0 1\ne 1 2\n", ParseError,
     "malformed cover line"),
    ("repeated_cover_id", "p vcstream 3 2 2 1\nx 1 1\ne 0 1\ne 1 2\n", ParseError,
     "repeated cover vertex 1"),
    ("cover_id_out_of_range", P3_HEAD + "x 3\ne 0 1\ne 1 2\n", InvalidCover,
     "cover vertex 3 out of range"),
    ("uncovered_edge", P3_HEAD + "x 0\ne 0 1\ne 1 2\n", InvalidCover, "edge (1,2) not covered"),
    # of several uncovered edges, the smallest (u, v) is named
    ("uncovered_edges", "p vcstream 6 4 1 1\nx 0\ne 0 1\ne 4 5\ne 2 5\ne 2 3\n", InvalidCover,
     "edge (2,3) not covered"),
    ("negative_ell", "p vcstream 3 1 1 -1\nx 1\ne 0 1\n", ParseError,
     "budget must be non-negative"),
]
