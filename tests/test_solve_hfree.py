from itertools import combinations, permutations
from math import comb, factorial

import pytest

from corpus import all_covers, atlas_graphs, disconnected_sample
from vcstream.brute import brute_min_deletion
from vcstream.errors import BadI, NotALModel, PreconditionViolated
from vcstream.graph import (
    Graph,
    VertexCover,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
)
from vcstream.meters import MemoryMeter
from vcstream.properties import (
    AdjacencyCharacterization,
    ExplicitFamily,
    PatternGraph,
    is_induced_subgraph,
)
from vcstream.solve_hfree import (
    _independent_role_sets,
    _placements,
    check_h_in_y,
    find_h,
    solve_hfree_fpt,
    solve_hfree_stream,
    solve_pifree_explicit,
)
from vcstream.streams import AL, EA, make_stream

P3 = PatternGraph(path_graph(3), "P3")
P4 = PatternGraph(path_graph(4), "P4")
C4 = PatternGraph(cycle_graph(4), "C4")
K3 = PatternGraph(complete_graph(3), "K3")

PATTERNS = [P3, P4, C4, K3]


def stream(g, order=None):
    return make_stream(g, AL, order)


def test_check_examples():
    tri = complete_graph(3)
    X = VertexCover.validated(tri, [0, 1, 2])
    assert check_h_in_y(tri, X, K3, {0, 1, 2})
    assert not check_h_in_y(tri, X, P3, {0, 1, 2})
    assert check_h_in_y(stream(tri), X, K3, {0, 1, 2})
    assert not check_h_in_y(stream(tri), X, P3, {0, 1, 2})


def test_check_agrees_with_matcher():
    for g in atlas_graphs(2, 5)[::2]:
        for cover in all_covers(g, 4)[:5]:
            X = VertexCover.validated(g, cover)
            for H in (P3, C4):
                sub, _ = g.induced(cover)
                expected = is_induced_subgraph(sub, H)
                assert check_h_in_y(g, X, H, set(cover)) == expected
                assert check_h_in_y(stream(g), X, H, set(cover)) == expected


def test_find_h_examples():
    g = path_graph(3)
    X = VertexCover.validated(g, [1])
    assert find_h(stream(g), X, set(), {1}, 2, P3) == (0, 2)
    assert find_h(g, X, set(), {1}, 2, P3) == (0, 2)
    assert find_h(stream(g), X, set(), {1}, 1, P3) == ()
    with pytest.raises(BadI):
        find_h(g, X, set(), {1}, 0, P3)
    with pytest.raises(BadI):
        find_h(g, X, set(), {1}, 4, P3)


def test_find_h_no_independent_roles_uses_no_pass():
    # K3 has no independent pair, so i=2 never touches the stream
    g = complete_graph(4)
    X = VertexCover.validated(g, [0, 1, 2])
    h = stream(g)
    assert find_h(h, X, set(), {0, 1, 2}, 2, K3) == ()
    assert h.pass_meter.passes == 0


@pytest.mark.parametrize("size", range(6))
def test_placements_are_each_subsets_permutations(size):
    y = (2, 5, 7, 11)
    expected = [p for c in combinations(y, size) for p in permutations(c)]
    assert list(_placements(y, size)) == expected


def test_check_h_in_y_pass_count():
    # one pass per placement, so C(|Y|, h) * h! when the pattern is absent
    absent = 0
    for g in atlas_graphs(3, 6)[::3]:
        for cover in all_covers(g, 5)[-3:]:
            X = VertexCover.validated(g, cover)
            for H in PATTERNS:
                handle = stream(g)
                if check_h_in_y(handle, X, H, set(cover)):
                    continue
                assert handle.pass_meter.passes == comb(len(cover), H.h) * factorial(H.h)
                absent += len(cover) >= H.h
    assert absent >= 100


def test_find_h_pass_budget():
    # one pass per role set and placement: exactly (role sets) * C(|Y|, h-i)
    # * (h-i)! when nothing occurs, at most one more (the witness check) when
    # something does
    absent = 0
    for g in atlas_graphs(3, 6)[::3]:
        for cover in all_covers(g, 4)[-2:]:
            X = VertexCover.validated(g, cover)
            y = set(X.members)
            for H in (P3, P4, C4):
                for i in range(1, H.h + 1):
                    handle = stream(g)
                    found = find_h(handle, X, set(), y, i, H)
                    placements = comb(len(y), H.h - i) * factorial(H.h - i)
                    budget = len(_independent_role_sets(H, i)) * placements
                    if found:
                        assert handle.pass_meter.passes <= budget + 1
                    else:
                        assert handle.pass_meter.passes == budget
                        absent += placements > 1
    assert absent >= 100


def test_solver_examples():
    g = path_graph(4)
    X = VertexCover.validated(g, [1, 2])
    assert solve_hfree_fpt(g, X, 1, P3).feasible
    assert solve_hfree_stream(stream(g), X, 1, P3).feasible

    g = cycle_graph(5)
    X = VertexCover.validated(g, [0, 1, 3])
    assert not solve_hfree_stream(stream(g), X, 0, P4).feasible

    g = empty_graph(4)
    X = VertexCover.validated(g, [])
    out = solve_hfree_stream(stream(g), X, 0, P3)
    assert out.feasible and out.solution == ()


def test_pattern_needs_edge():
    g = path_graph(3)
    X = VertexCover.validated(g, [1])
    with pytest.raises(PreconditionViolated):
        solve_hfree_stream(stream(g), X, 1, PatternGraph(empty_graph(2)))
    with pytest.raises(NotALModel):
        solve_hfree_stream(make_stream(g, EA), X, 1, P3)


def corpus_small():
    return atlas_graphs(2, 5) + disconnected_sample(5)


def test_differential_stream_fpt_brute():
    for g in corpus_small():
        for H in PATTERNS:
            fam = ExplicitFamily.from_graphs([H.graph])
            brute_size, _ = brute_min_deletion(g, fam)
            for cover in all_covers(g, 3):
                X = VertexCover.validated(g, cover)
                for ell in range(min(X.K, 2) + 1):
                    expected = brute_size <= ell
                    mem = solve_hfree_fpt(g, X, ell, H)
                    meter = MemoryMeter(budget_words=8 * (X.K + H.h * H.h) + 16)
                    strm = solve_hfree_stream(stream(g), X, ell, H, meter)
                    assert mem.feasible == strm.feasible == expected, (
                        g.edges, cover, ell, H.name,
                    )
                    if expected:
                        keep = [v for v in range(g.n) if v not in set(strm.solution)]
                        residual, _ = g.induced(keep)
                        assert not is_induced_subgraph(residual, H)
                    assert meter.live_words == 0


def test_find_h_completeness():
    # when check fails and every i yields nothing, no occurrence with an
    # outside vertex exists
    for g in corpus_small()[::4]:
        for cover in all_covers(g, 3)[:3]:
            X = VertexCover.validated(g, cover)
            y = set(cover)
            for H in (P3, K3):
                if check_h_in_y(g, X, H, y):
                    continue
                if any(find_h(g, X, set(), y, i, H) for i in range(1, H.h + 1)):
                    continue
                assert not is_induced_subgraph(g, H)


def test_family_reduction_equivalence():
    fam_both = ExplicitFamily.from_graphs([path_graph(3), path_graph(4)])
    fam_p3 = ExplicitFamily.from_graphs([path_graph(3)])
    for g in atlas_graphs(2, 5)[::3]:
        for cover in all_covers(g, 3)[:3]:
            X = VertexCover.validated(g, cover)
            for ell in range(min(X.K, 2) + 1):
                a = solve_pifree_explicit(stream(g), X, ell, fam_both)
                b = solve_pifree_explicit(stream(g), X, ell, fam_p3)
                assert a.feasible == b.feasible


def test_family_c5_example():
    fam = ExplicitFamily.from_graphs([complete_graph(3), cycle_graph(5)])
    g = cycle_graph(5)
    X = VertexCover.validated(g, [0, 1, 3])
    assert solve_pifree_explicit(stream(g), X, 1, fam).feasible
    assert not solve_pifree_explicit(stream(g), X, 0, fam).feasible


def test_family_char_filters_members():
    fam = ExplicitFamily.from_graphs([complete_graph(3), cycle_graph(5)])
    char = AdjacencyCharacterization(2, lambda k: 3, connected_only=True)
    g = path_graph(2)
    X = VertexCover.validated(g, [0])  # K=1, bound 3: C5 dropped
    filtered = ExplicitFamily.from_graphs([complete_graph(3)])
    a = solve_pifree_explicit(stream(g), X, 1, fam, char)
    b = solve_pifree_explicit(stream(g), X, 1, filtered)
    assert a.feasible == b.feasible

    disconnected = Graph(6, [(0, 1), (2, 3), (3, 4), (2, 4)])
    with pytest.raises(PreconditionViolated):
        solve_pifree_explicit(
            stream(g), X, 1, ExplicitFamily.from_graphs([disconnected]), char
        )


def test_family_differential_vs_brute():
    fams = [
        ExplicitFamily.from_graphs([path_graph(3), cycle_graph(4)]),
        ExplicitFamily.from_graphs([complete_graph(3), path_graph(4)]),
    ]
    for g in atlas_graphs(2, 5)[::2]:
        for fam in fams:
            brute_size, _ = brute_min_deletion(g, fam)
            for cover in all_covers(g, 3)[:3]:
                X = VertexCover.validated(g, cover)
                for ell in range(min(X.K, 2) + 1):
                    out = solve_pifree_explicit(stream(g), X, ell, fam)
                    assert out.feasible == (brute_size <= ell)
