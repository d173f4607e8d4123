"""Block-derived streams: events, substreams, induced edges and the
equivalence-class residual all agree with event-level references."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import atlas_graphs, planted_covers
from vcstream.brute import _occurs_induced
from vcstream.errors import MemoryBudgetExceeded
from vcstream.graph import (
    Graph,
    VertexCover,
    canonical_edge,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from vcstream.meters import MemoryMeter
from vcstream.properties import (
    CACHE_ENTRIES,
    CACHE_VERTICES,
    ExplicitFamily,
    canonical_form,
    family_oracle,
)
from vcstream.solve_cvd import solve_cvd
from vcstream.solve_oct import solve_oct_cc
from vcstream.solve_oracle import _residual
from vcstream.streams import (
    AL,
    EA,
    EDGE,
    MODELS,
    PASS_END,
    PASS_END_EVENT,
    VA,
    cover_bits,
    cover_edges,
    edge_event,
    filtered_substream,
    induced_edges,
    make_stream,
    vertex_begin,
    vertex_end,
)


def stored_events(g, model, order):
    """Frozen copy of the event builder whose tuples a handle stored before
    it kept blocks; the reference every derived pass must reproduce."""
    pos = {v: i for i, v in enumerate(order)}
    events = []
    if model == AL:
        for v in order:
            events.append(vertex_begin(v))
            for w in sorted(g.neighbors(v), key=pos.__getitem__):
                events.append(edge_event(v, w))
            events.append(vertex_end(v))
    elif model == VA:
        for v in order:
            events.append(vertex_begin(v))
            seen_earlier = [w for w in g.neighbors(v) if pos[w] < pos[v]]
            for w in sorted(seen_earlier, key=pos.__getitem__):
                events.append(edge_event(v, w))
            events.append(vertex_end(v))
    elif model == EA:
        ranked = sorted(
            g.edges, key=lambda e: (min(pos[e[0]], pos[e[1]]), max(pos[e[0]], pos[e[1]]))
        )
        events.extend(edge_event(u, v) for u, v in ranked)
    events.append(PASS_END_EVENT)
    return [tuple(e) for e in events]


def filter_events(events, keep):
    """Event-level reference filter: vertex events of kept vertices, edges
    with both endpoints kept, and the pass end."""
    out = []
    for kind, u, v in events:
        if kind == PASS_END or (keep(u) and (kind != EDGE or keep(v))):
            out.append((kind, u, v))
    return out


def shuffled_orders(g, count, seed):
    rng = random.Random(seed)
    orders = []
    for _ in range(count):
        order = list(range(g.n))
        rng.shuffle(order)
        orders.append(order)
    return orders


def test_events_match_stored_events_on_atlas():
    for gi, g in enumerate(atlas_graphs(1, 6, connected=False)):
        for order in shuffled_orders(g, 3, gi):
            for model in MODELS:
                got = [tuple(e) for e in make_stream(g, model, order).events()]
                assert got == stored_events(g, model, order), (g.edges, model, order)


def test_filtered_events_match_filtered_stored_events_on_atlas():
    for gi, g in enumerate(atlas_graphs(1, 6, connected=False)):
        order = shuffled_orders(g, 1, gi)[0]
        for model in MODELS:
            h = make_stream(g, model, order)
            full = stored_events(g, model, order)
            for mask in range(1 << g.n):
                keep = {v for v in range(g.n) if mask >> v & 1}
                got = [tuple(e) for e in filtered_substream(h, keep).events()]
                assert got == filter_events(full, keep.__contains__), (g.edges, model, order,
                                                                        mask)


def graph_edges_among(g, keep):
    return frozenset(e for e in g.edges if e[0] in keep and e[1] in keep)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.data())
def test_induced_edges_agree_on_handles_substreams_and_graph(n, data):
    edges = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda e: e[0] < e[1]), max_size=30))
    g = Graph(n, edges)
    order = data.draw(st.permutations(range(n)))
    keep = data.draw(st.frozensets(st.integers(0, n - 1)))
    outer = data.draw(st.frozensets(st.integers(0, n - 1)))
    expected = graph_edges_among(g, keep)
    assert induced_edges(g, keep) == expected
    for model in MODELS:
        h = make_stream(g, model, order)
        before = h.pass_meter.passes
        assert induced_edges(h, keep) == expected
        sub = filtered_substream(h, outer)
        assert induced_edges(sub, keep) == graph_edges_among(g, keep & outer)
        assert h.pass_meter.passes - before == 2


def test_induced_edges_charge_each_edge_as_found():
    g = complete_graph(5)
    h = make_stream(g, AL)
    meter = MemoryMeter(6)
    with pytest.raises(MemoryBudgetExceeded, match="live 7 words exceeds budget 6"):
        induced_edges(h, range(5), meter)
    assert meter.live_words == 0
    assert h.pass_meter.passes == 1
    meter = MemoryMeter()
    assert len(induced_edges(h, range(5), meter)) == 10
    assert (meter.live_words, meter.peak_words) == (10, 10)


def covered_sources(g, order, rnd):
    """A handle of `g` in `order`, a substream of it without a random part
    (cover members included), and one nested in that."""
    h = make_stream(g, AL, order)
    outer = frozenset(v for v in range(g.n) if rnd.random() < 0.8)
    sub = filtered_substream(h, outer)
    inner = frozenset(v for v in outer if rnd.random() < 0.8)
    return h, sub, filtered_substream(sub, inner)


def member_subsets(X):
    return [frozenset(x for i, x in enumerate(X.members) if mask >> i & 1)
            for mask in range(1 << X.K)]


@settings(max_examples=100, deadline=None)
@given(planted_covers(max_n=40, max_k=5), st.randoms(use_true_random=False))
def test_cover_edges_equal_induced_edges_for_every_y(case, rnd):
    g, X, order = case
    for y in member_subsets(X):
        assert cover_edges(g, X, y) == induced_edges(g, y) == graph_edges_among(g, y)
        for source in covered_sources(g, order, rnd):
            before = source.pass_meter.passes
            by_blocks, by_masks = MemoryMeter(), MemoryMeter()
            expected = induced_edges(source, y, by_blocks)
            assert cover_edges(source, X, y, by_masks) == expected
            assert source.pass_meter.passes - before == 2
            assert (by_masks.live_words, by_masks.peak_words) == (len(expected), len(expected))


def _charged_outcome(read, prefill, budget):
    """`read(meter)` with `prefill` words live, under `budget`: the edges,
    live and peak words; or, on a trip, the message and live words."""
    meter = MemoryMeter(budget)
    meter.allocate(prefill)
    try:
        return ("ok", read(meter), meter.live_words, meter.peak_words)
    except MemoryBudgetExceeded as exc:
        return ("trip", str(exc), meter.live_words)


@settings(max_examples=100, deadline=None)
@given(planted_covers(max_n=40, max_k=5), st.randoms(use_true_random=False),
       st.integers(0, 3))
def test_cover_edges_trip_where_induced_edges_trip(case, rnd, prefill):
    g, X, order = case
    y = rnd.choice(member_subsets(X))
    for source in covered_sources(g, order, rnd):
        peak = prefill + len(induced_edges(source, y))
        for budget in range(prefill, peak + 1):
            before = source.pass_meter.passes
            expected = _charged_outcome(lambda m: induced_edges(source, y, m), prefill, budget)
            middle = source.pass_meter.passes
            got = _charged_outcome(lambda m: cover_edges(source, X, y, m), prefill, budget)
            assert got == expected
            assert source.pass_meter.passes - middle == middle - before == 1
            assert (got[0] == "trip") == (budget < peak)
            if budget < peak:
                assert got[2] == prefill


def test_residual_equals_induced_graph_on_survivors():
    rng = random.Random(5)
    for trial in range(120):
        n = rng.randint(2, 12)
        members = sorted(rng.sample(range(n), rng.randint(1, min(4, n))))
        in_cover = set(members)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if (u in in_cover or v in in_cover) and rng.random() < 0.5])
        order = list(range(n))
        rng.shuffle(order)
        h = make_stream(g, AL, order)
        bits = cover_bits(members)

        def key_of(v):
            return sum(bits[w] for w in g.neighbors(v))

        outside = [v for v in order if v not in in_cover]
        keys = sorted({key_of(v) for v in outside})
        picks = {k: rng.randint(1, 2) for k in keys if rng.random() < 0.5}
        drop = frozenset(x for x in members if rng.random() < 0.3)
        taken = Counter()
        gone = set(drop)
        for v in outside:  # stream order
            k = key_of(v)
            if taken[k] < picks.get(k, 0):
                taken[k] += 1
                gone.add(v)
        survivors = [v for v in range(n) if v not in gone]
        sub_graph, old = g.induced(survivors)
        expected = frozenset(canonical_edge(old[u], old[v]) for u, v in sub_graph.edges)
        residual = filtered_substream(h, _residual(h, in_cover, picks, drop))
        assert list(residual.blocks) == [v for v in order if v not in gone], trial
        assert induced_edges(residual, range(n)) == expected, trial


K6 = complete_graph(6)
K6_COVER = VertexCover.validated(K6, range(5))


@pytest.mark.parametrize("run", [
    lambda h, m: solve_cvd(h, K6_COVER, 0, m, cache_cover=True),
    lambda h, m: solve_oct_cc(h, K6_COVER, 0, m),
], ids=["cvd-cached", "oct-cc"])
def test_cached_cover_edges_trip_at_first_word_past_budget(run):
    meter = MemoryMeter(3 * K6_COVER.K + 2)
    with pytest.raises(MemoryBudgetExceeded, match="live 18 words exceeds budget 17"):
        run(make_stream(K6, AL), meter)
    assert meter.live_words == 0


@pytest.mark.parametrize("kind", ["a1", "a2"])
def test_oracle_buffer_trips_at_first_word_past_budget(kind):
    oracle = family_oracle(ExplicitFamily.from_graphs([complete_graph(3)]), kind)
    h = make_stream(complete_graph(4), AL)  # 4 vertices + 6 edges buffered
    meter = MemoryMeter()
    oracle.answer(h, meter)
    assert (meter.live_words, meter.peak_words) == (0, 10)
    for budget in range(10):
        meter = MemoryMeter(budget)
        with pytest.raises(MemoryBudgetExceeded,
                           match=f"live {budget + 1} words exceeds budget {budget}"):
            oracle.answer(h, meter)
        assert meter.live_words == 0


def frozen_oracle_answer(kind, family, handle, meter):
    """Frozen copy of the oracle answer that buffered a pass's events before
    the oracle read blocks, with membership by canonical form and freeness by
    the independent brute instead of the shared matcher."""
    vertices: set[int] = set()
    edges: set[tuple[int, int]] = set()

    def consume(events):
        for event_kind, u, v in events:
            if event_kind == PASS_END:
                continue
            if u not in vertices:
                meter.allocate(1)
                vertices.add(u)
            if event_kind == EDGE:
                if v not in vertices:
                    meter.allocate(1)
                    vertices.add(v)
                if (u, v) not in edges:
                    meter.allocate(1)
                    edges.add((u, v))

    try:
        handle.run_pass(lambda: consume(handle.events()))
        index = {v: i for i, v in enumerate(sorted(vertices))}
        g = Graph(len(index), [(index[u], index[v]) for u, v in edges])
        if kind == "a1":
            return any((g.n, g.m) == (p.graph.n, p.graph.m)
                       and canonical_form(g) == canonical_form(p.graph)
                       for p in family.members)
        return not any(_occurs_induced(g, p.graph) for p in family.members)
    finally:
        meter.release(len(vertices) + len(edges))


ORACLE_FAMILIES = [
    ExplicitFamily.from_graphs(graphs)
    for graphs in ([path_graph(3)], [path_graph(4), cycle_graph(4)],
                   [complete_graph(3)], [star_graph(3)])
]


def oracle_inputs(g, model, order):
    """The full handle, a substream without the first vertex, and one nested
    in it without the last."""
    h = make_stream(g, model, order)
    sub = filtered_substream(h, order[1:])
    return h, sub, filtered_substream(sub, order[1:-1])


def outcome(answer, handle, meter):
    """(answer or trip message, peak words, live words, passes used)."""
    before = handle.pass_meter.passes
    try:
        result = answer(handle, meter)
    except MemoryBudgetExceeded as exc:
        result = str(exc)
    return result, meter.peak_words, meter.live_words, handle.pass_meter.passes - before


def test_oracle_block_read_matches_frozen_event_answer_on_atlas():
    # one long-lived oracle per (family, kind) answers every handle, twice:
    # a verdict it has cached must come with the same pass and charges
    oracles = {(fi, kind): family_oracle(family, kind)
               for fi, family in enumerate(ORACLE_FAMILIES) for kind in ("a1", "a2")}
    for gi, g in enumerate(atlas_graphs(1, 6, connected=False)):
        for order in shuffled_orders(g, 2, gi):
            for model in MODELS:
                for handle in oracle_inputs(g, model, order):
                    for (fi, kind), oracle in oracles.items():
                        family = ORACLE_FAMILIES[fi]

                        def frozen(hh, meter):
                            return frozen_oracle_answer(kind, family, hh, meter)

                        want = outcome(frozen, handle, MemoryMeter())
                        assert want[2:] == (0, 1)
                        for _ in range(2):  # cold, then warm
                            assert outcome(oracle.answer, handle, MemoryMeter()) == want
                        if fi:
                            continue  # the charge does not depend on the family
                        for budget in range(want[1]):
                            tripped = outcome(frozen, handle, MemoryMeter(budget))
                            assert tripped[0] == f"live {budget + 1} words exceeds budget {budget}"
                            assert outcome(oracle.answer, handle, MemoryMeter(budget)) == tripped


def random_graph(n, rng):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])


@pytest.mark.parametrize("kind", ["a1", "a2"])
def test_oracle_cache_stays_bounded(kind):
    # more distinct inputs than the cache holds, then one above its vertex
    # limit: every answer is a fresh oracle's, and the cache never outgrows
    # its cap nor keeps the large input
    family = ExplicitFamily.from_graphs([path_graph(4), cycle_graph(4)])
    oracle = family_oracle(family, kind)
    rng = random.Random(3)
    for i in range(CACHE_ENTRIES + 5):
        h = make_stream(random_graph(8, rng), AL)
        assert oracle.answer(h) == family_oracle(family, kind).answer(h), i
        assert len(oracle._verdicts) == i % CACHE_ENTRIES + 1
    large = make_stream(random_graph(CACHE_VERTICES + 1, rng), AL)
    meter = MemoryMeter()
    assert oracle.answer(large, meter) == family_oracle(family, kind).answer(large)
    assert len(oracle._verdicts) == 5
    assert max(map(len, oracle._verdicts)) == 8
    assert (meter.live_words, meter.peak_words) == (0, large.source.n + large.source.m)


def test_oracle_ignores_ea_isolated_vertex():
    # K1 + K2: an EA pass shows no event for the isolated vertex
    g = Graph(3, [(1, 2)])
    k2 = ExplicitFamily.from_graphs([complete_graph(2)])
    a1 = family_oracle(k2, "a1")
    for model, expected in ((EA, True), (AL, False), (VA, False)):
        h = make_stream(g, model)
        assert a1.answer(h) is expected
        assert frozen_oracle_answer("a1", k2, h, MemoryMeter()) is expected
