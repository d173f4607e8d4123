import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import all_covers, atlas_graphs
from vcstream.brute import _occurs_induced
from vcstream.errors import BadParams, MemoryBudgetExceeded, PreconditionViolated
from vcstream.graph import (
    Graph,
    VertexCover,
    complete_graph,
    cycle_graph,
    path_graph,
)
from vcstream.meters import MemoryMeter
from vcstream.properties import (
    AdjacencyCharacterization,
    ExplicitFamily,
    PatternGraph,
    are_isomorphic,
    bounded_members,
    canonical_form,
    family_oracle,
    is_induced_subgraph,
    parse_pfun,
    vertex_minimal_members,
)
from vcstream.solve_hfree import solve_pifree_explicit
from vcstream.streams import AL, MODELS, KeptStream, filtered_substream, make_stream


def fam(*graphs):
    return ExplicitFamily.from_graphs(list(graphs))


def test_matcher_spec_examples():
    assert is_induced_subgraph(path_graph(4), PatternGraph(path_graph(3)))
    assert not is_induced_subgraph(complete_graph(3), PatternGraph(path_graph(3)))
    assert is_induced_subgraph(cycle_graph(5), PatternGraph(path_graph(4)))


def test_matcher_agrees_with_independent_brute():
    patterns = [path_graph(2), path_graph(3), path_graph(4), complete_graph(3),
                cycle_graph(4), complete_graph(4)]
    for g in atlas_graphs(2, 6, connected=False)[::4]:
        for p in patterns:
            assert is_induced_subgraph(g, PatternGraph(p)) == _occurs_induced(g, p)


def test_matcher_agrees_with_brute_on_whole_atlas():
    # every graph of 1-6 vertices against every pattern of 1-5 that fits
    patterns = atlas_graphs(1, 5, connected=False)
    for g in atlas_graphs(1, 6, connected=False):
        for p in patterns:
            if p.n <= g.n:
                assert is_induced_subgraph(g, p) == _occurs_induced(g, p), (g.edges, p.edges)


def random_graph(data, max_n):
    n = data.draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = data.draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_matcher_agrees_with_brute_on_random_graphs(data):
    g = random_graph(data, 10)
    p = random_graph(data, 5)
    assert is_induced_subgraph(g, PatternGraph(p)) == _occurs_induced(g, p)


def test_isomorphism_agrees_with_canonical_form_on_atlas():
    rng = random.Random(3)
    graphs = atlas_graphs(1, 6, connected=False)
    canon = {g: canonical_form(g) for g in graphs}
    for a in graphs:
        for b in graphs:
            if (a.n, a.m) != (b.n, b.m):
                continue
            perm = list(range(b.n))
            rng.shuffle(perm)
            relabelled = Graph(b.n, [(perm[u], perm[v]) for u, v in b.edges])
            assert are_isomorphic(a, relabelled) == (canon[a] == canon[b]), (a.edges, b.edges)


def test_isomorphism_past_canonical_limit():
    p9 = path_graph(9)
    relabelled = Graph(9, [(8 - u, 8 - v) for u, v in p9.edges])
    assert are_isomorphic(p9, relabelled)
    assert not are_isomorphic(p9, Graph(9, list(p9.edges - {(3, 4)}) + [(0, 2)]))


def test_isomorphism_and_dedup():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(0, 2), (2, 1)])  # relabelled P3
    assert are_isomorphic(a, b)
    family = fam(a, b, complete_graph(3))
    assert family.q == 2
    assert family.nu == 3


def test_dedup_past_canonical_limit():
    p9 = path_graph(9)
    relabelled = Graph(9, [(2 * u % 9, 2 * v % 9) for u, v in p9.edges])
    assert relabelled.edges != p9.edges
    assert fam(p9, relabelled).q == 1
    assert fam(relabelled, p9).q == 1
    assert fam(p9, relabelled).members[0].graph is p9
    # members up to the canonical limit keep their order, ahead of larger ones
    small = fam(cycle_graph(4), path_graph(3), complete_graph(3))
    mixed = fam(relabelled, cycle_graph(4), p9, path_graph(3), complete_graph(3))
    assert mixed.members[:3] == small.members
    assert mixed.q == 4 and mixed.members[3].graph is relabelled


def test_solver_sees_one_member_per_isomorphism_class():
    p9 = path_graph(9)
    relabelled = Graph(9, [(2 * u % 9, 2 * v % 9) for u, v in p9.edges])
    g = path_graph(10)
    X = VertexCover.validated(g, range(1, 10, 2))
    for ell in (0, 1):
        one = solve_pifree_explicit(make_stream(g, AL), X, ell, fam(p9))
        both = solve_pifree_explicit(make_stream(g, AL), X, ell, fam(p9, relabelled))
        assert both == one
        assert both.feasible == (ell == 1)


def test_vertex_minimal_examples():
    f = fam(path_graph(3), path_graph(4))
    assert [p.h for p in vertex_minimal_members(f).members] == [3]
    f = fam(complete_graph(3), cycle_graph(5))
    assert vertex_minimal_members(f).q == 2
    f = fam(complete_graph(4), complete_graph(3), path_graph(3))
    kept = vertex_minimal_members(f)
    assert kept.q == 2
    assert {canonical_form(p.graph) for p in kept.members} == {
        canonical_form(path_graph(3)), canonical_form(complete_graph(3)),
    }


def test_vertex_minimal_preserves_freeness():
    families = [
        fam(path_graph(3), path_graph(4)),
        fam(complete_graph(3), complete_graph(4), path_graph(4)),
        fam(cycle_graph(4), path_graph(3)),
    ]
    for g in atlas_graphs(1, 5, connected=False):
        for f in families:
            reduced = vertex_minimal_members(f)
            full_free = not any(is_induced_subgraph(g, p) for p in f.members)
            red_free = not any(is_induced_subgraph(g, p) for p in reduced.members)
            assert full_free == red_free


def test_bounded_members():
    char = AdjacencyCharacterization(2, lambda k: 3, connected_only=True)
    f = fam(path_graph(3), path_graph(10))
    kept = bounded_members(f, char, 2)  # bound (2+1)*2 = 6
    assert [p.h for p in kept.members] == [3]
    char0 = AdjacencyCharacterization(0, lambda k: 1, connected_only=True)
    assert bounded_members(fam(path_graph(3)), char0, 3).q == 1  # bound 3, boundary kept

    disconnected = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(PreconditionViolated):
        bounded_members(fam(disconnected), char, 2)
    not_connected_only = AdjacencyCharacterization(2, lambda k: 3)
    with pytest.raises(PreconditionViolated):
        bounded_members(fam(path_graph(3)), not_connected_only, 2)


def test_bounded_filter_preserves_freeness():
    # with a valid characterization for {P3}, freeness is unchanged by the filter
    char = AdjacencyCharacterization(2, lambda k: 3, connected_only=True)
    f = fam(path_graph(3), path_graph(4), path_graph(5))
    for g in atlas_graphs(2, 6)[::3]:
        for cover in all_covers(g, 3):
            kept = bounded_members(f, char, len(cover))
            full_free = not any(is_induced_subgraph(g, p) for p in f.members)
            kept_free = not any(is_induced_subgraph(g, p) for p in kept.members)
            assert full_free == kept_free


def test_family_oracle_answers():
    f = fam(path_graph(3))
    a1 = family_oracle(f, "a1")
    a2 = family_oracle(f, "a2")
    assert a1.answer(make_stream(path_graph(3), AL))
    assert not a1.answer(make_stream(complete_graph(3), AL))
    assert a2.answer(make_stream(complete_graph(3), AL))

    c3 = fam(complete_graph(3))
    pendant = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert not family_oracle(c3, "a2").answer(make_stream(pendant, AL))


def test_oracle_consistency_small():
    f = fam(path_graph(3), cycle_graph(4))
    a2 = family_oracle(f, "a2")
    for g in atlas_graphs(2, 5)[::2]:
        expected = not any(is_induced_subgraph(g, p) for p in f.members)
        assert a2.answer(make_stream(g, AL)) == expected


# a two-vertex edgeless member tells the EA rule (a kept vertex is shown only
# with a kept neighbour) from the other models
KEPT_FAMILIES = (fam(path_graph(3)), fam(path_graph(4), cycle_graph(4)),
                 fam(complete_graph(3), Graph(2, [])))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kept_stream_pass_equals_copied_substream(data):
    # the oracle reads a kept set off the outer blocks; the copied substream
    # of the same set is the reference: same verdict, one pass of the outer
    # meter, the same charges, and the same trip at every smaller budget
    g = random_graph(data, 12)
    order = data.draw(st.permutations(range(g.n)))
    h = make_stream(g, data.draw(st.sampled_from(MODELS)), order)
    keep = frozenset(data.draw(st.sets(st.integers(0, g.n + 3))))  # ids >= n are ignored
    family = data.draw(st.sampled_from(KEPT_FAMILIES))

    def run(oracle, stream, budget=None):
        meter = MemoryMeter(budget)
        before = h.pass_meter.passes
        try:
            return oracle.answer(stream, meter), meter.peak_words
        except MemoryBudgetExceeded as exc:
            return "trip", str(exc)
        finally:
            assert h.pass_meter.passes - before == 1
            assert meter.live_words == 0

    for kind in ("a1", "a2"):
        sides = [(family_oracle(family, kind), KeptStream(h, keep)),
                 (family_oracle(family, kind), filtered_substream(h, keep))]
        verdict, peak = run(*sides[0])
        assert run(*sides[1]) == (verdict, peak)
        for budget in range(peak):
            tripped = ("trip", f"live {budget + 1} words exceeds budget {budget}")
            assert run(*sides[0], budget) == run(*sides[1], budget) == tripped


def test_characterization_validation():
    with pytest.raises(BadParams):
        AdjacencyCharacterization(-1, lambda k: 1)
    char = AdjacencyCharacterization(1, lambda k: 5 - k)
    assert char.p_of(1) == 4
    with pytest.raises(BadParams):
        char.p_of(3)  # decreasing
    zero = AdjacencyCharacterization(1, lambda k: 0)
    with pytest.raises(BadParams):
        zero.p_of(2)
    with pytest.raises(BadParams):
        AdjacencyCharacterization(1, lambda k: 5 - k).p_of(3)  # no call history


def test_parse_pfun():
    assert parse_pfun("3")(10) == 3
    assert parse_pfun("K")(4) == 4
    assert parse_pfun("2*K")(4) == 8
    assert parse_pfun("2*K+1")(4) == 9
    with pytest.raises(BadParams):
        parse_pfun("K^2")
