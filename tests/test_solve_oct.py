from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import all_covers, atlas_graphs, disconnected_sample, planted_covers
from vcstream.brute import OCT_LIMIT, brute_min_oct, _is_bipartite
from vcstream.graph import Graph, VertexCover, cycle_graph
from vcstream.meters import MemoryMeter, MeteredSet
from vcstream.solve_oct import _colour_pass, solve_oct, solve_oct_cc
from vcstream.streams import AL, cover_bits, make_stream


def stream(g, order=None):
    return make_stream(g, AL, order)


def test_even_cycle_free():
    g = cycle_graph(4)
    X = VertexCover.validated(g, [0, 2])
    assert solve_oct(stream(g), X, 0).feasible


def test_c5_needs_one():
    g = cycle_graph(5)
    X = VertexCover.validated(g, [0, 1, 3])
    assert not solve_oct(stream(g), X, 0).feasible
    out = solve_oct(stream(g), X, 1)
    assert out.feasible and len(out.solution) == 1


def corpus_graphs():
    return atlas_graphs(2, 5) + disconnected_sample(5) + atlas_graphs(6, 6)[::6]


def _residual_bipartite(g, solution):
    keep = [v for v in range(g.n) if v not in set(solution)]
    residual, _ = g.induced(keep)
    return _is_bipartite(residual)


def test_exhaustive_differential_both_variants():
    for g in corpus_graphs():
        brute_size, _ = brute_min_oct(g)
        for cover in all_covers(g, 4):
            X = VertexCover.validated(g, cover)
            for ell in range(X.K + 1):
                expected = brute_size <= ell
                m1 = MemoryMeter(budget_words=6 * X.K + 8)
                o1 = solve_oct(stream(g), X, ell, m1)
                m2 = MemoryMeter(budget_words=X.K ** 2 + 6 * X.K + 8)
                o2 = solve_oct_cc(stream(g), X, ell, m2)
                assert o1.feasible == o2.feasible == expected, (g.edges, cover, ell)
                if expected:
                    assert _residual_bipartite(g, o1.solution)
                    assert _residual_bipartite(g, o2.solution)
                assert o1.passes <= 3 ** X.K + 1
                assert o1.peak_words <= 5 * X.K + 8
                assert m1.live_words == 0 and m2.live_words == 0


def test_cc_pass_bound_by_components():
    for g in corpus_graphs()[::2]:
        for cover in all_covers(g, 4)[:6]:
            X = VertexCover.validated(g, cover)
            for ell in range(X.K + 1):
                out = solve_oct_cc(stream(g), X, ell)
                bound = 0
                for s_mask in range(1 << X.K):
                    s = {m for i, m in enumerate(X.members) if s_mask >> i & 1}
                    if len(s) > ell:
                        continue
                    y = set(X.members) - s
                    bound += 1 + 2 ** _component_count(g, y)
                assert out.passes <= bound <= 3 ** X.K + 2 ** X.K


@settings(max_examples=250, deadline=None)
@given(planted_covers(), st.integers(0, 5))
def test_oct_routes_agree_past_desk_scale(case, ell):
    g, X, order = case
    ell = min(ell, X.K)
    runs = [
        solve_oct(stream(g, order), X, ell),
        solve_oct_cc(stream(g, order), X, ell),
        solve_oct_cc(stream(g, order), X, ell, low_mem=True),
    ]
    assert len({out.feasible for out in runs}) == 1, [out.feasible for out in runs]
    if g.n <= OCT_LIMIT:
        assert runs[0].feasible == (brute_min_oct(g)[0] <= ell)
    for out in runs:
        if out.feasible:
            assert len(out.solution) <= ell and _residual_bipartite(g, out.solution)
    # per guessed S: solve_oct one pass per colouring of Y; the cached cc
    # variant one edge pass plus one per component flip; the low-memory one
    # a union pass, at most |Y| + 2 propagation passes and a verification pass
    cached = low = 0
    for s_mask in range(1 << X.K):
        s = {m for i, m in enumerate(X.members) if s_mask >> i & 1}
        if len(s) <= ell:
            y = set(X.members) - s
            flips = 2 ** _component_count(g, y)
            cached += 1 + flips
            low += len(y) + 4 + flips
    assert runs[0].passes <= 3 ** X.K + 1
    assert runs[1].passes <= cached
    assert runs[2].passes <= low


def test_low_mem_variant():
    for g in corpus_graphs()[::3]:
        for cover in all_covers(g, 3)[:4]:
            X = VertexCover.validated(g, cover)
            for ell in range(X.K + 1):
                base = solve_oct_cc(stream(g), X, ell)
                meter = MemoryMeter(budget_words=9 * X.K + 8)
                low = solve_oct_cc(stream(g), X, ell, meter, low_mem=True)
                assert base.feasible == low.feasible
                assert meter.live_words == 0


def test_colour_symmetry():
    # flipping the two colour classes forces the same outside deletions
    for g in corpus_graphs()[::4]:
        covers = all_covers(g, 3)
        if not covers:
            continue
        X = VertexCover.validated(g, covers[-1])
        y_set = X.member_set()
        y_sorted = sorted(y_set)
        bits = cover_bits(X.members)
        full = sum(bits.values())
        for mask in range(1 << len(y_sorted)):
            y1 = frozenset(v for i, v in enumerate(y_sorted) if mask >> i & 1)
            y2 = frozenset(y_set - y1)
            outs = []
            for colouring in (y1, y2):
                meter = MemoryMeter()
                dels = MeteredSet(meter)
                h = stream(g)
                h.run_class_pass(
                    X.members,
                    lambda index, c=colouring: _colour_pass(
                        index, full, sum(bits[v] for v in c), dels, g.n, True
                    ),
                )
                outs.append(frozenset(dels))
            assert outs[0] == outs[1]


def test_odd_cover_part_rejected_without_colour_passes():
    # G[Y] an odd cycle: the branch dies after the single caching pass
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    X = VertexCover.validated(g, [0, 1, 2])
    h = stream(g)
    out = solve_oct_cc(h, X, 0)
    assert not out.feasible
    assert out.passes == 1


def test_single_edge_cover_two_colourings():
    g = Graph(4, [(0, 1), (0, 2), (1, 3)])
    X = VertexCover.validated(g, [0, 1])
    out_cc = solve_oct_cc(stream(g), X, 0)
    out_blind = solve_oct(stream(g), X, 0)
    assert out_cc.feasible and out_blind.feasible
    # one component -> at most 1 + 2 passes before success; blind tries up to 4
    assert out_cc.passes <= 3


def _component_count(g, y_set):
    seen = set()
    comps = 0
    for root in sorted(y_set):
        if root in seen:
            continue
        comps += 1
        stack = [root]
        seen.add(root)
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w in y_set and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return comps
