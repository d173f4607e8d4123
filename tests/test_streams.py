import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import atlas_graphs
from vcstream.errors import BadPermutation, NotALModel
from vcstream.graph import Graph, complete_graph, empty_graph, path_graph
from vcstream.streams import (
    AL,
    EA,
    EDGE,
    PASS_END,
    VA,
    VERTEX_BEGIN,
    VERTEX_END,
    cover_bits,
    filtered_substream,
    make_stream,
)


def ev_tuples(handle):
    return [tuple(e) for e in handle.events()]


def test_al_events_match_convention():
    h = make_stream(path_graph(3), AL, [0, 1, 2])
    assert ev_tuples(h) == [
        ("begin", 0, None), ("edge", 0, 1), ("end", 0, None),
        ("begin", 1, None), ("edge", 0, 1), ("edge", 1, 2), ("end", 1, None),
        ("begin", 2, None), ("edge", 1, 2), ("end", 2, None),
        ("pass_end", None, None),
    ]


def test_ea_events_follow_order_positions():
    h = make_stream(path_graph(3), EA, [0, 1, 2])
    assert ev_tuples(h) == [("edge", 0, 1), ("edge", 1, 2), ("pass_end", None, None)]
    rev = make_stream(path_graph(3), EA, [2, 1, 0])
    assert ev_tuples(rev) == [("edge", 1, 2), ("edge", 0, 1), ("pass_end", None, None)]


def test_va_events_reversed_order():
    h = make_stream(path_graph(3), VA, [2, 1, 0])
    assert ev_tuples(h) == [
        ("begin", 2, None), ("end", 2, None),
        ("begin", 1, None), ("edge", 1, 2), ("end", 1, None),
        ("begin", 0, None), ("edge", 0, 1), ("end", 0, None),
        ("pass_end", None, None),
    ]


def test_bad_permutation():
    with pytest.raises(BadPermutation):
        make_stream(path_graph(3), AL, [0, 1, 1])
    with pytest.raises(BadPermutation):
        make_stream(path_graph(3), AL, [0, 1])


def test_run_pass_returns_consumer_result_and_counts():
    h = make_stream(path_graph(3), AL)
    total = h.run_pass(lambda evs: sum(1 for e in evs if e.kind == EDGE))
    assert total == 4  # each edge twice in AL
    assert h.pass_meter.passes == 1
    h.run_pass(lambda evs: None)
    assert h.pass_meter.passes == 2


def test_run_pass_counts_even_on_consumer_error():
    h = make_stream(path_graph(3), AL)

    def bad(evs):
        next(evs)
        raise ValueError("consumer blew up")

    with pytest.raises(ValueError):
        h.run_pass(bad)
    assert h.pass_meter.passes == 1


def test_edgeless_graph_al():
    h = make_stream(empty_graph(5), AL)
    kinds = [e.kind for e in h.events()]
    assert kinds.count(VERTEX_BEGIN) == 5
    assert kinds.count(VERTEX_END) == 5
    assert kinds.count(EDGE) == 0
    h.run_pass(lambda evs: list(evs))
    assert h.pass_meter.passes == 1


def _edge_counts(handle):
    counts = {}
    for ev in handle.events():
        if ev.kind == EDGE:
            counts[(ev.u, ev.v)] = counts.get((ev.u, ev.v), 0) + 1
    return counts


@pytest.mark.parametrize("model,expected", [(AL, 2), (EA, 1), (VA, 1)])
def test_edge_multiplicity_per_model(model, expected):
    rng = random.Random(7)
    for g in atlas_graphs(2, 6)[::5]:
        order = list(range(g.n))
        rng.shuffle(order)
        h = make_stream(g, model, order)
        counts = _edge_counts(h)
        assert set(counts) == set(g.edges)
        assert all(c == expected for c in counts.values())


def test_replay_determinism():
    for g in atlas_graphs(2, 6)[::7]:
        for model in (AL, EA, VA):
            h = make_stream(g, model, list(reversed(range(g.n))))
            first = list(h.events())
            second = list(h.events())
            assert first == second


def _induced_reference_events(g, model, order, keep_set):
    """Expected filtered stream: the induced subgraph streamed in the
    restricted order, mapped back to original ids."""
    sub, old = g.induced(keep_set)
    back = dict(enumerate(old))
    fwd = {v: i for i, v in back.items()}
    rest_order = [fwd[v] for v in order if v in fwd]
    out = []
    for ev in make_stream(sub, model, rest_order).events():
        if ev.kind == EDGE:
            u, v = back[ev.u], back[ev.v]
            out.append((EDGE, min(u, v), max(u, v)))
        elif ev.kind == PASS_END:
            out.append((PASS_END, None, None))
        else:
            out.append((ev.kind, back[ev.u], None))
    return out


@pytest.mark.parametrize("model", [AL, EA, VA])
def test_filtered_equals_induced_stream(model):
    rng = random.Random(11)
    for g in atlas_graphs(2, 5)[::3]:
        order = list(range(g.n))
        rng.shuffle(order)
        h = make_stream(g, model, order)
        for mask in range(1 << g.n):
            keep = {v for v in range(g.n) if mask >> v & 1}
            got = [tuple(e) for e in filtered_substream(h, keep.__contains__).events()]
            assert got == _induced_reference_events(g, model, order, keep)


def test_filtered_identity_and_example():
    g = complete_graph(3)
    h = make_stream(g, AL)
    assert ev_tuples(filtered_substream(h, lambda v: True)) == ev_tuples(h)
    sub = filtered_substream(h, {0, 2}.__contains__)
    assert [t for t in ev_tuples(sub) if t[0] == EDGE] == [(EDGE, 0, 2), (EDGE, 0, 2)]


def test_filtered_charges_parent_meter():
    h = make_stream(path_graph(4), AL)
    sub = filtered_substream(h, {0, 1}.__contains__)
    sub.run_pass(lambda evs: list(evs))
    assert h.pass_meter.passes == 1
    nested = filtered_substream(sub, {0}.__contains__)
    nested.run_pass(lambda evs: list(evs))
    assert h.pass_meter.passes == 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stream_laws_random(data):
    n = data.draw(st.integers(1, 7))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(possible)) if possible else st.just(set()))
    g = Graph(n, sorted(edges))
    order = data.draw(st.permutations(range(n)))
    for model, mult in ((AL, 2), (EA, 1), (VA, 1)):
        h = make_stream(g, model, order)
        counts = _edge_counts(h)
        assert set(counts) == set(g.edges)
        assert all(c == mult for c in counts.values())
        assert list(h.events())[-1].kind == PASS_END


def _reference_view(g, order, members):
    """The cover view recomputed from the graph: blocks in `order`, masks
    over the sorted members, neighbours by stream position."""
    pos = {v: i for i, v in enumerate(order)}
    ranked = sorted(members)
    out = []
    for v in order:
        mask = sum(1 << i for i, x in enumerate(ranked) if x in g.neighbors(v))
        bit = 1 << ranked.index(v) if v in members else 0
        out.append((v, bit, mask, tuple(sorted(g.neighbors(v), key=pos.__getitem__))))
    return tuple(out)


def test_cover_view_matches_graph():
    rng = random.Random(5)
    for g in atlas_graphs(2, 6)[::4]:
        for _ in range(3):
            order = list(range(g.n))
            rng.shuffle(order)
            h = make_stream(g, AL, order)
            for _ in range(3):
                members = rng.sample(range(g.n), rng.randint(0, g.n))
                assert h.cover_view(members) == _reference_view(g, order, members)
            assert h.pass_meter.passes == 0


def test_cover_view_keeps_only_last_members():
    h = make_stream(path_graph(4), AL)
    first = h.cover_view([1, 2])
    assert h.cover_view((2, 1)) is first
    assert h.cover_view([0]) is not first
    assert h.cover_view([1, 2]) == first
    assert cover_bits([2, 1]) == {1: 1, 2: 2}


@pytest.mark.parametrize("model", [EA, VA])
def test_cover_view_requires_al(model):
    h = make_stream(path_graph(3), model)
    with pytest.raises(NotALModel):
        h.cover_view([1])
    with pytest.raises(NotALModel):
        h.run_cover_pass([1], lambda view: None)
    assert h.pass_meter.passes == 0


def test_run_cover_pass_charges_one_pass():
    h = make_stream(path_graph(3), AL)
    assert h.run_cover_pass([1], lambda view: [m for _, _, m, _ in view]) == [1, 0, 1]
    assert h.pass_meter.passes == 1

    def bad(view):
        raise ValueError("consumer blew up")

    with pytest.raises(ValueError):
        h.run_cover_pass([1], bad)
    assert h.pass_meter.passes == 2


def test_cover_view_of_filtered_substream():
    rng = random.Random(3)
    for g in atlas_graphs(2, 5)[::3]:
        order = list(range(g.n))
        rng.shuffle(order)
        h = make_stream(g, AL, order)
        keep = set(rng.sample(range(g.n), rng.randint(0, g.n)))
        sub = filtered_substream(h, keep.__contains__)
        members = [v for v in range(g.n) if v % 2 == 0]
        sub_g, old = g.induced(keep)
        induced = Graph(g.n, [(old[u], old[v]) for u, v in sub_g.edges])
        expected = _reference_view(induced, [v for v in order if v in keep], members)
        assert sub.cover_view(members) == expected
        sub.run_cover_pass(members, lambda view: None)
        assert h.pass_meter.passes == 1
