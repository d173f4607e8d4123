import pytest

from vcstream.errors import DuplicateEdge, InvalidCover, ParseError
from vcstream.graph import (
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
