from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcstream import graph
from vcstream.errors import DuplicateEdge, InvalidCover, ParseError
from vcstream.graph import (
    EdgeColumns,
    Graph,
    VertexCover,
    complete_graph,
    cycle_graph,
    empty_graph,
    minimum_vertex_cover,
    path_graph,
    star_graph,
)
from vcstream.instances import format_instance, parse_instance
from vcstream.solve_cvd import solve_cvd
from vcstream.streams import AL, make_stream


def test_basic_construction():
    g = Graph(3, [(0, 1), (2, 1)])
    assert g.m == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert g.neighbors(1) == {0, 2}


def test_self_loop_rejected():
    with pytest.raises(ParseError):
        Graph(3, [(2, 2)])


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        Graph(3, [(0, 1), (1, 0)])


def test_out_of_range_rejected():
    with pytest.raises(ParseError):
        Graph(2, [(0, 5)])


def test_cover_validation():
    g = path_graph(3)
    cover = VertexCover.validated(g, [1])
    assert cover.K == 1
    with pytest.raises(InvalidCover):
        VertexCover.validated(g, [0])
    with pytest.raises(InvalidCover):
        VertexCover.validated(g, [99])


def test_induced_relabels_densely():
    g = cycle_graph(5)
    sub, old = g.induced([0, 2, 3])
    assert old == (0, 2, 3)
    assert sub.n == 3
    assert sub.edges == frozenset({(1, 2)})  # only edge 2-3 survives


def _induced_from_edge_set(g, keep):
    """Reference for `Graph.induced`: the kept edges of the edge set, in set order."""
    old = tuple(sorted(set(keep)))
    index = {v: i for i, v in enumerate(old)}
    return Graph(len(old), [(index[u], index[v]) for u, v in g.edges
                            if u in index and v in index]), old


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_induced_matches_edge_set_walk(data):
    n = data.draw(st.integers(0, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    keep = data.draw(st.lists(st.integers(0, n - 1))) if n else []
    g = Graph(n, edges)
    sub, old = g.induced(keep)
    want, want_old = _induced_from_edge_set(Graph(n, edges), keep)
    assert old == want_old and sub.nbrs == want.nbrs and sub.m == want.m
    assert "edges" not in vars(g)  # read off the neighbour tuples, no edge set built


def test_constructors():
    assert path_graph(4).m == 3
    assert cycle_graph(4).m == 4
    assert complete_graph(4).m == 6
    assert star_graph(3).m == 3
    assert empty_graph(5).m == 0
    assert complete_graph(3).is_connected()
    assert not Graph(4, [(0, 1), (2, 3)]).is_connected()


def test_minimum_vertex_cover():
    assert minimum_vertex_cover(path_graph(3)) == (1,)
    assert len(minimum_vertex_cover(complete_graph(4))) == 3
    assert minimum_vertex_cover(empty_graph(3)) == ()


def test_adjacency_is_one_sorted_tuple_per_vertex():
    g = Graph(4, [(3, 0), (1, 0), (2, 1), (0, 2)])
    assert g.nbrs == ((1, 2, 3), (0, 2), (0, 1), (0,))
    assert g.m == 4 and g.sorted_edges() == [(0, 1), (0, 2), (0, 3), (1, 2)]
    assert g == Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])


def test_edges_read_twice_from_a_generator():
    # a bad edge is named by a second, ordered read of the edges
    with pytest.raises(DuplicateEdge, match=r"duplicate edge \(0, 1\)"):
        Graph(3, (e for e in [(0, 1), (1, 2), (1, 0), (2, 2)]))
    assert Graph(3, (e for e in [(0, 1), (1, 2)])).m == 2


def test_stream_path_builds_no_edge_set():
    """parse -> make_stream -> a solver reads only the neighbour tuples: the
    edge set and the frozensets are never built, and the identity-order
    blocks are the graph's own tuples."""
    g0 = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
    inst = parse_instance(format_instance(g0, VertexCover((0, 1, 2)), 2))
    h = make_stream(inst.graph, AL)
    solve_cvd(h, inst.cover, inst.ell)
    assert all(h.blocks[v] is inst.graph.nbrs[v] for v in range(6))
    assert "edges" not in vars(inst.graph) and "_adj" not in vars(inst.graph)


EDGE_ORDERS = ("canonical", "shuffled", "u_ge_v", "repeat", "v_at_n", "negative_u", "none")


@st.composite
def edge_lists(draw):
    """(n, edges, order): distinct edges u < v in ascending order, then
    shuffled and flipped, or spoiled at one drawn place (a pair with u >= v,
    a repeat, v = n, a negative u), or none at all; n may be 0."""
    n = draw(st.integers(0, 9))
    possible = list(combinations(range(n), 2))
    edges = sorted(draw(st.sets(st.sampled_from(possible)))) if possible else []
    order = draw(st.sampled_from(EDGE_ORDERS))
    at = draw(st.integers(0, len(edges)))
    u, v = edges[at] if at < len(edges) else (0, max(n - 1, 0))
    if order == "shuffled":
        edges = [e[::-1] if flip else e
                 for e, flip in zip(draw(st.permutations(edges)),
                                    draw(st.lists(st.booleans(), min_size=len(edges),
                                                  max_size=len(edges))))]
    elif order == "u_ge_v":
        edges[at:at + 1] = [draw(st.sampled_from([(v, u), (u, u), (v, v)]))]
    elif order == "repeat" and edges:
        edges.insert(at, draw(st.sampled_from(edges)))
    elif order == "v_at_n":
        edges[at:at + 1] = [(u, n)]
    elif order == "negative_u":
        edges[at:at + 1] = [(-1, v)]
    elif order == "none":
        edges = []
    return n, edges, order


def filed(n, edges):
    """Graph's `nbrs` and `m` on these edges as columns, or its error."""
    try:
        g = Graph(n, EdgeColumns([u for u, _ in edges], [v for _, v in edges]))
    except Exception as exc:
        return type(exc), str(exc)
    return g.nbrs, g.m


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_column_filing_matches_edge_by_edge(case):
    """The whole-list check and fill on two id columns against the
    edge-by-edge path on the same edges, forced by refusing every order."""
    n, edges, order = case
    if order in ("canonical", "none"):
        assert graph._ascending([u for u, _ in edges], [v for _, v in edges], n)
    with mock.patch.object(graph, "_ascending", lambda us, vs, n: False):
        one_by_one = filed(n, edges)
    assert filed(n, edges) == one_by_one
    try:
        g = Graph(n, edges)  # pairs, split into the columns
    except Exception as exc:
        assert (type(exc), str(exc)) == one_by_one
    else:
        assert (g.nbrs, g.m) == one_by_one
