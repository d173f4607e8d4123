import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import atlas_graphs, planted_covers, reference_view
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
    ClassIndex,
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
    total = h.run_pass(lambda: sum(map(len, h.blocks.values())))
    assert total == 4  # each edge twice in AL
    assert h.pass_meter.passes == 1
    h.run_pass(lambda: None)
    assert h.pass_meter.passes == 2


def test_run_pass_counts_even_on_consumer_error():
    h = make_stream(path_graph(3), AL)

    def bad():
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
    h.run_pass(lambda: None)
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
            got = [tuple(e) for e in filtered_substream(h, keep).events()]
            assert got == _induced_reference_events(g, model, order, keep)


def test_filtered_identity_and_example():
    g = complete_graph(3)
    h = make_stream(g, AL)
    assert ev_tuples(filtered_substream(h, range(g.n))) == ev_tuples(h)
    sub = filtered_substream(h, {0, 2})
    assert [t for t in ev_tuples(sub) if t[0] == EDGE] == [(EDGE, 0, 2), (EDGE, 0, 2)]


def test_filtered_charges_parent_meter():
    h = make_stream(path_graph(4), AL)
    sub = filtered_substream(h, {0, 1})
    sub.run_pass(lambda: None)
    assert h.pass_meter.passes == 1
    nested = filtered_substream(sub, {0})
    nested.run_pass(lambda: None)
    assert h.pass_meter.passes == 2


@pytest.mark.parametrize("model", [AL, EA, VA])
def test_filtered_takes_vertices_in_any_order(model):
    """The kept vertices may come in any order, and with vertices the handle
    lacks: the blocks are the kept ones, in stream order, on a shuffled-order
    stream and on a substream nested in one."""
    rng = random.Random(5)
    for g in atlas_graphs(2, 6)[::5]:
        order = list(range(g.n))
        rng.shuffle(order)
        h = make_stream(g, model, order)
        keep = [v for v in order if rng.random() < 0.7]
        inner = [v for v in keep if rng.random() < 0.7]
        dropped = [v for v in order if v not in keep]
        for given in (keep[::-1], rng.sample(keep, len(keep))):
            sub = filtered_substream(h, given)
            assert list(sub.blocks) == keep
            assert ev_tuples(sub) == _induced_reference_events(g, model, order, set(keep))
            nested = filtered_substream(sub, inner[::-1] + dropped)
            assert list(nested.blocks) == inner
            assert ev_tuples(nested) == _induced_reference_events(g, model, order, set(inner))


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


def _grouped(reference):
    """The class index that a per-block reference groups into."""
    member_ids = {v for v, bit, _, _ in reference if bit}
    classes = {}
    for pos, (_, bit, m, _) in enumerate(reference):
        if not bit:
            classes.setdefault(m, []).append(pos)
    return ClassIndex(
        order=tuple(v for v, _, _, _ in reference),
        members=tuple((v, bit, m) for v, bit, m, _ in reference if bit),
        member_positions=tuple(pos for pos, block in enumerate(reference) if block[1]),
        classes=classes,
        covers=all(member_ids.issuperset(nbrs) for _, bit, _, nbrs in reference if not bit),
    )


def test_class_index_matches_graph():
    rng = random.Random(5)
    for g in atlas_graphs(2, 6)[::4]:
        for _ in range(3):
            order = list(range(g.n))
            rng.shuffle(order)
            h = make_stream(g, AL, order)
            for _ in range(3):
                members = rng.sample(range(g.n), rng.randint(0, g.n))
                expected = _grouped(reference_view(g, order, members))
                index = h.class_index(members)
                assert index == expected and list(index.classes) == list(expected.classes)
            assert h.pass_meter.passes == 0


@settings(max_examples=100, deadline=None)
@given(planted_covers(max_n=200, max_k=8, masks=(8, 40)), st.data())
def test_class_index_matches_reference_past_the_atlas(case, data):
    # on a shuffled order and on a substream that lacks some members: the
    # cover; a drawn set that need not cover; the cover with drawn vertices
    # added, which then share blocks with their outside twins; and a set
    # naming absent ids
    g, X, order = case
    keep = set(data.draw(st.sets(st.integers(0, g.n - 1)))) - set(X.members[:1])
    drawn = data.draw(st.sets(st.integers(0, g.n - 1), max_size=10))
    absent = drawn | {g.n, g.n + 3}
    h = make_stream(g, AL, order)
    sub = filtered_substream(h, keep)
    sub_g, old = g.induced(keep)
    induced = Graph(g.n, [(old[u], old[v]) for u, v in sub_g.edges])
    for members in (X.members, drawn, set(X.members) | drawn, absent):
        views = ((h, reference_view(g, order, members)),
                 (sub, reference_view(induced, [v for v in order if v in keep], members)))
        for handle, view in views:
            index, expected = handle.class_index(members), _grouped(view)
            assert index == expected
            assert list(index.classes.items()) == list(expected.classes.items())  # key order


def test_class_index_members_share_blocks_with_outside_vertices():
    # member 0, at position 0, has block (4,), as outside vertex 2 does: the
    # class of mask 2 starts at 2, after the class of mask 0
    index = make_stream(Graph(5, [(0, 4), (2, 4)]), AL).class_index([0, 4])
    assert index.classes == {0: [1, 3], 2: [2]}
    assert list(index.classes) == [0, 2]
    assert index.members == ((0, 1, 2), (4, 2, 1)) and index.member_positions == (0, 4)
    # isolated member 1 shares the empty block with outside vertices 3 and 5
    index = make_stream(Graph(6, [(0, 4), (2, 4)]), AL).class_index([0, 1, 4])
    assert index.classes == {4: [2], 0: [3, 5]}
    assert list(index.classes) == [4, 0]
    assert index.member_positions == (0, 1, 4) and index.covers


def test_class_index_keeps_only_last_members():
    h = make_stream(path_graph(4), AL)
    first = h.class_index([1, 2])
    assert h.class_index((2, 1)) is first
    assert h.class_index([0]) is not first
    assert h.class_index([1, 2]) == first
    assert cover_bits([2, 1]) == {1: 1, 2: 2}


@pytest.mark.parametrize("model", [EA, VA])
def test_class_index_requires_al(model):
    h = make_stream(path_graph(3), model)
    with pytest.raises(NotALModel):
        h.class_index([1])
    with pytest.raises(NotALModel):
        h.run_class_pass([1], lambda index: None)
    assert h.pass_meter.passes == 0


def test_run_class_pass_charges_one_pass():
    h = make_stream(path_graph(3), AL)
    assert h.run_class_pass([1], lambda index: index.classes) == {1: [0, 2]}
    assert h.pass_meter.passes == 1

    def bad(index):
        raise ValueError("consumer blew up")

    with pytest.raises(ValueError):
        h.run_class_pass([1], bad)
    assert h.pass_meter.passes == 2


def test_class_index_of_filtered_substream():
    rng = random.Random(3)
    for g in atlas_graphs(2, 5)[::3]:
        order = list(range(g.n))
        rng.shuffle(order)
        h = make_stream(g, AL, order)
        keep = set(rng.sample(range(g.n), rng.randint(0, g.n)))
        sub = filtered_substream(h, keep)
        members = [v for v in range(g.n) if v % 2 == 0]
        sub_g, old = g.induced(keep)
        induced = Graph(g.n, [(old[u], old[v]) for u, v in sub_g.edges])
        expected = _grouped(reference_view(induced, [v for v in order if v in keep], members))
        index = sub.class_index(members)
        assert index == expected and list(index.classes) == list(expected.classes)
        sub.run_class_pass(members, lambda index: None)
        assert h.pass_meter.passes == 1


@settings(max_examples=200, deadline=None)
@given(planted_covers(max_n=40, max_k=5), st.data())
def test_classes_come_in_first_position_order(case, data):
    # `first` stops on this order: classes by their first position, and
    # ascending positions inside each class; on the whole stream and on a
    # substream, for the cover and for a member set that need not cover
    g, X, order = case
    h = make_stream(g, AL, order)
    keep = data.draw(st.sets(st.integers(0, g.n - 1)))
    other = data.draw(st.sets(st.integers(0, g.n - 1)))
    for handle in (h, filtered_substream(h, keep)):
        for members in (X.members, other):
            classes = list(handle.class_index(members).classes.values())
            heads = [positions[0] for positions in classes]
            assert heads == sorted(heads)
            assert all(a < b for positions in classes for a, b in zip(positions, positions[1:]))


@settings(max_examples=200, deadline=None)
@given(planted_covers(max_n=200, max_k=8, masks=(8, 40)), st.data())
def test_first_takes_chosen_classes_in_stream_order(case, data):
    g, X, order = case
    members = data.draw(st.sampled_from([X.members, tuple(range(0, g.n, 3))]))
    index = make_stream(g, AL, order).class_index(members)
    # keys past the members' masks name no class; drawn classes make the
    # walk reach its stop
    keys = data.draw(st.sets(st.integers(0, (2 << len(members)) - 1)))
    if index.classes:
        keys |= data.draw(st.sets(st.sampled_from(sorted(index.classes))))
    skip = data.draw(st.sets(st.integers(0, g.n - 1)))
    count = data.draw(st.integers(-1, 4) | st.integers(-1, g.n + 1))  # small ones stop early
    chosen = [pos for pos, (v, bit, m, _) in enumerate(reference_view(g, order, members))
              if not bit and m in keys]
    assert index.first(keys.__contains__, count, skip) == [
        pos for pos in chosen if order[pos] not in skip][:max(count, 0)]
    assert index.first(keys.__contains__, count) == chosen[:max(count, 0)]


def test_first_edge_cases():
    # path 0-1-2-3-4 over member 1: class 1 holds 0 and 2, class 0 holds 3 and 4
    index = make_stream(path_graph(5), AL).class_index([1])
    assert index.classes == {1: [0, 2], 0: [3, 4]}
    every = {0, 1}.__contains__
    assert index.first(every, 0) == index.first(every, -3) == []
    assert index.first(every, 9) == [0, 2, 3, 4]
    assert index.first(every, 3) == [0, 2, 3]
    assert index.first({2, 5}.__contains__, 2) == []
    assert index.first({0, 2}.__contains__, 2) == [3, 4]
    assert index.first(every, 2, skip={0, 3}) == [2, 4]
    assert index.first(every, 2, skip={0, 1, 2}) == [3, 4]
    assert index.first({1}.__contains__, 2, skip={0, 2}) == []
    # two taken from class 1, class 0 starts past both: the walk stops there
    asked = []
    assert index.first(lambda m: asked.append(m) or True, 2) == [0, 2]
    assert asked == [1]
    # over member 5: class 1 holds 0 and 3, class 0 holds 1, 2 and 4; with
    # vertex 0 skipped, class 0 starts before class 1's first unskipped position
    index = make_stream(Graph(6, [(0, 5), (3, 5)]), AL).class_index([5])
    assert index.classes == {1: [0, 3], 0: [1, 2, 4]}
    assert index.first(every, 2, skip={0}) == [1, 2]
    assert index.first(every, 1, skip={0}) == [1]
    assert index.first({1}.__contains__, 2, skip={0}) == [3]


@settings(max_examples=200, deadline=None)
@given(planted_covers(max_n=40, max_k=5), st.sets(st.integers(0, 39)))
def test_covers_matches_graph(case, keep):
    # `covers` is tested once per distinct outside block; check it on the
    # identity order, a shuffled order, and a substream that lacks some of
    # the named members
    g, X, order = case
    keep = {v for v in keep if v < g.n}
    sub_g, old = g.induced(keep)
    new = {v: i for i, v in enumerate(old)}
    h = make_stream(g, AL, order)
    sub = filtered_substream(h, keep)
    for members in (X.members, tuple(range(0, g.n, 3))):
        assert make_stream(g, AL).class_index(members).covers == g.is_cover(members)
        assert h.class_index(members).covers == g.is_cover(members)
        kept = [new[v] for v in members if v in new]
        assert sub.class_index(members).covers == sub_g.is_cover(kept)
