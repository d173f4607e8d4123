from itertools import combinations

from corpus import all_covers, atlas_graphs, disconnected_sample
from vcstream.brute import brute_is_pi_free, brute_min_deletion
from vcstream.graph import VertexCover, complete_graph, path_graph
from vcstream.meters import MemoryMeter
from vcstream.properties import ExplicitFamily
from vcstream.solve_cvd import solve_cvd
from vcstream.streams import AL, make_stream

P3_FAMILY = ExplicitFamily.from_graphs([path_graph(3)])


def stream(g, order=None):
    return make_stream(g, AL, order)


def test_p3_with_budget():
    g = path_graph(3)
    X = VertexCover.validated(g, [1])
    out = solve_cvd(stream(g), X, 1)
    assert out.feasible
    residual, _ = g.induced([v for v in range(3) if v not in set(out.solution)])
    assert brute_is_pi_free(residual, P3_FAMILY)


def test_triangle_needs_nothing():
    g = complete_graph(3)
    X = VertexCover.validated(g, [0, 1])
    out = solve_cvd(stream(g), X, 0)
    assert out.feasible and out.solution == ()


def test_p4_budget_zero():
    g = path_graph(4)
    X = VertexCover.validated(g, [1, 2])
    assert not solve_cvd(stream(g), X, 0).feasible


def corpus_graphs():
    return atlas_graphs(2, 5) + disconnected_sample(5) + atlas_graphs(6, 6)[::6]


def test_exhaustive_differential():
    for g in corpus_graphs():
        brute_size, _ = brute_min_deletion(g, P3_FAMILY)
        for cover in all_covers(g, 4):
            X = VertexCover.validated(g, cover)
            for ell in range(X.K + 1):
                meter = MemoryMeter(budget_words=6 * X.K + 8)
                h = stream(g)
                out = solve_cvd(h, X, ell, meter)
                assert out.feasible == (brute_size <= ell), (g.edges, cover, ell)
                if out.feasible:
                    keep = [v for v in range(g.n) if v not in set(out.solution)]
                    residual, _ = g.induced(keep)
                    assert brute_is_pi_free(residual, P3_FAMILY)
                    assert len(out.solution) <= ell
                assert out.passes <= 2 ** X.K * (X.K ** 2 + X.K) + 1
                assert meter.live_words == 0


def test_cache_cover_variant_agrees():
    for g in atlas_graphs(3, 5)[::2]:
        for cover in all_covers(g, 3)[:3]:
            X = VertexCover.validated(g, cover)
            for ell in range(X.K + 1):
                plain = solve_cvd(stream(g), X, ell)
                cached = solve_cvd(stream(g), X, ell, cache_cover=True)
                assert plain.feasible == cached.feasible


def test_case3_structure_after_phases_01():
    # once no P3 sits inside Y and the forced two-in-Y deletions are done,
    # every remaining P3 has exactly one vertex in Y
    for g in corpus_graphs()[::3]:
        for cover in all_covers(g, 3)[:4]:
            cover_set = set(cover)
            for s_mask in range(1 << len(cover)):
                s_branch = {c for i, c in enumerate(cover) if s_mask >> i & 1}
                y_set = cover_set - s_branch
                if _p3_inside(g, y_set):
                    continue
                deleted = set(s_branch)
                for y1, y2 in combinations(sorted(y_set), 2):
                    for v in range(g.n):
                        if v in cover_set or v in deleted:
                            continue
                        a1, a2 = g.has_edge(v, y1), g.has_edge(v, y2)
                        forced = (a1 != a2) if g.has_edge(y1, y2) else (a1 and a2)
                        if forced:
                            deleted.add(v)
                keep = [v for v in range(g.n) if v not in deleted]
                for occ in _p3_occurrences(g, keep):
                    assert len(set(occ) & y_set) == 1


def _p3_inside(g, y_set):
    for a, b, c in combinations(sorted(y_set), 3):
        if g.has_edge(a, b) + g.has_edge(a, c) + g.has_edge(b, c) == 2:
            return True
    return False


def _p3_occurrences(g, keep):
    for a, b, c in combinations(keep, 3):
        if g.has_edge(a, b) + g.has_edge(a, c) + g.has_edge(b, c) == 2:
            yield (a, b, c)
