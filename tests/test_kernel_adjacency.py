import random
from math import comb

import pytest

from corpus import all_covers, atlas_graphs, disconnected_sample
from vcstream.brute import brute_min_deletion
from vcstream.errors import BadParams, InvalidCover, NotALModel
from vcstream.graph import VertexCover, path_graph, star_graph
from vcstream.instances import PlantedSpec, gen_planted
from vcstream.kernel_adjacency import (
    kernel_largest_induced,
    kernel_partition_q,
    kernel_pifree,
    mark_table_size,
    reduce_in_memory,
    reduce_str,
)
from vcstream.kernel_lowrank import incidence_pair_index
from vcstream.meters import MemoryMeter
from vcstream.properties import AdjacencyCharacterization, ExplicitFamily
from vcstream.streams import AL, EA, make_stream


def stream(g, order=None):
    return make_stream(g, AL, order)


def p3_char():
    return AdjacencyCharacterization(2, lambda k: 3, connected_only=True)


def test_star_marks_first_two_leaves():
    g = star_graph(3)
    X = VertexCover.validated(g, [0])
    out = reduce_str(stream(g), X, 2, 1)
    assert out.kept_vertices == (0, 1, 2)
    assert set(out.edges) == {(0, 1), (0, 2)}
    assert out.passes == 1


def test_r_zero_keeps_cover_only():
    for g in atlas_graphs(2, 5)[::4]:
        cover = all_covers(g, 4)[0] if all_covers(g, 4) else tuple(range(g.n))
        X = VertexCover.validated(g, cover)
        out = reduce_str(stream(g), X, 0, 1)
        assert set(out.kept_vertices) == set(X.members)


def test_p3_hand_execution():
    g = path_graph(3)
    X = VertexCover.validated(g, [1])
    h = stream(g, [0, 1, 2])
    out = reduce_str(h, X, 1, 1)
    assert out.kept_vertices == (0, 1)
    assert out.edges == ((0, 1),)
    assert h.pass_meter.passes == 1


def test_mark_table_size_formula():
    for K in range(5):
        for c in range(4):
            X = VertexCover(tuple(range(K)))
            assert len(incidence_pair_index(X, c)) == mark_table_size(K, c)
            assert mark_table_size(K, c) == sum(
                comb(K, i) * 2 ** i for i in range(c + 1)
            )


def test_c_zero_marks_first_r():
    g = star_graph(4)
    X = VertexCover.validated(g, [0])
    out = reduce_str(stream(g), X, 2, 0)
    assert out.kept_vertices == (0, 1, 2)


def test_errors():
    g = path_graph(3)
    X = VertexCover.validated(g, [1])
    with pytest.raises(NotALModel):
        reduce_str(make_stream(g, EA), X, 1, 1)
    with pytest.raises(BadParams):
        reduce_str(stream(g), X, -1, 0)
    other = VertexCover((0,))
    with pytest.raises(InvalidCover):
        reduce_str(stream(g), other, 1, 1)


def test_stream_matches_in_memory_marking():
    rng = random.Random(3)
    graphs = atlas_graphs(2, 6)[::3] + disconnected_sample()
    for g in graphs:
        covers = all_covers(g, 4)[:5]
        for cover in covers:
            X = VertexCover.validated(g, cover)
            orders = [tuple(range(g.n)), tuple(reversed(range(g.n)))]
            shuffled = list(range(g.n))
            rng.shuffle(shuffled)
            orders.append(tuple(shuffled))
            for order in orders:
                for r, c in ((1, 1), (2, 2), (3, 0)):
                    out = reduce_str(stream(g, order), X, r, c)
                    expected = reduce_in_memory(g, X, r, c, order)
                    assert out.kept_vertices == expected


def test_output_is_exact_induced_subgraph():
    for g in atlas_graphs(2, 6)[::5]:
        covers = all_covers(g, 3)
        if not covers:
            continue
        X = VertexCover.validated(g, covers[-1])
        out = reduce_str(stream(g), X, 2, 1)
        assert len(out.edges) == len(set(out.edges))  # no edge twice
        kept = set(out.kept_vertices)
        expected_edges = {e for e in g.edges if e[0] in kept and e[1] in kept}
        assert set(out.edges) == expected_edges


def test_size_bound_constant_one():
    for seed in range(3):
        g, X = gen_planted(PlantedSpec(60, 6, 0.3, seed))
        for r, c in ((1, 1), (2, 2), (4, 0)):
            out = reduce_str(stream(g), X, r, c)
            bound = X.K + r * mark_table_size(X.K, c)
            assert len(out.kept_vertices) <= bound


def test_meter_bound():
    for g in atlas_graphs(2, 6)[::6]:
        covers = all_covers(g, 4)
        if not covers:
            continue
        X = VertexCover.validated(g, covers[-1])
        meter = MemoryMeter()
        baseline = meter.live_words
        out = reduce_str(stream(g), X, 2, 2, meter)
        table = mark_table_size(X.K, 2)
        assert out.peak_words <= 2 * X.K + 4 * table + X.K + 2
        assert meter.live_words == baseline


def test_wrapper_delegation():
    g = star_graph(5)
    X = VertexCover.validated(g, [0])
    char = p3_char()
    # pifree: r = ell + p(K), c = c_pi
    ell = 1
    a = kernel_pifree(stream(g), X, ell, char)
    b = reduce_str(stream(g), X, ell + 3, 2)
    assert a.kept_vertices == b.kept_vertices and a.edges == b.edges

    a = kernel_largest_induced(stream(g), X, char)
    b = reduce_str(stream(g), X, 3, 2)
    assert a.kept_vertices == b.kept_vertices

    a = kernel_partition_q(stream(g), X, 2, char)
    b = reduce_str(stream(g), X, 6, 4)
    assert a.kept_vertices == b.kept_vertices
    with pytest.raises(BadParams):
        kernel_partition_q(stream(g), X, 0, char)


def test_answer_preservation_sample():
    char = p3_char()
    f = ExplicitFamily.from_graphs([path_graph(3)])
    for g in atlas_graphs(3, 6)[::4]:
        orig_size, _ = brute_min_deletion(g, f)
        for cover in all_covers(g, 3)[:4]:
            X = VertexCover.validated(g, cover)
            for ell in range(X.K + 1):
                out = kernel_pifree(stream(g), X, ell, char)
                kg, _ = out.kernel_graph()
                kern_size, _ = brute_min_deletion(kg, f)
                assert (kern_size <= ell) == (orig_size <= ell)
