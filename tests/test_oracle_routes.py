"""The oracle routes against the family solver, past desk scale.

a1 and ecenum run at n <= 40; a2 and a1_subsets at n <= 16, since on a YES
a2 asks the oracle about every outside subset of size at most nu.  Planted
twin classes make a1 delete outside vertices, several from one class, which
random planted covers almost never do; ecenum also runs at ell up to K.  Each
verdict must equal `solve_pifree_explicit` on the same stream, and the brute
force where it runs.  A YES's residual graph must be free of the family, and
stay free when a deleted outside vertex is swapped for an undeleted twin
(same N(v) & X): the interchangeability of twins that the oracle solvers
rest on.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import planted_covers, twin_classes
from vcstream.brute import PI_FREE_LIMIT, brute_min_deletion
from vcstream.graph import Graph, VertexCover, complete_graph, cycle_graph, path_graph
from vcstream.instances import PlantedSpec, gen_planted
from vcstream.properties import ExplicitFamily, family_oracle, is_induced_subgraph
from vcstream.solve_hfree import solve_pifree_explicit
from vcstream.solve_oracle import solve_equivclass_enum, solve_with_a1, solve_with_a2
from vcstream.streams import AL, filtered_substream, make_stream

FAMILIES = {
    "P3": ExplicitFamily.from_graphs([path_graph(3)]),
    "P4C4": ExplicitFamily.from_graphs([path_graph(4), cycle_graph(4)]),
    "P3K3": ExplicitFamily.from_graphs([path_graph(3), complete_graph(3)]),
}

ROUTES = {
    "a1": lambda h, X, ell, f: solve_with_a1(h, X, ell, f.nu, family_oracle(f, "a1")),
    "ecenum": lambda h, X, ell, f: solve_equivclass_enum(h, X, family_oracle(f, "a2"), ell),
    "a2": lambda h, X, ell, f: solve_with_a2(h, X, ell, f.nu, family_oracle(f, "a2")),
    "a1sub": lambda h, X, ell, f: solve_with_a2(h, X, ell, f.nu, family_oracle(f, "a1"),
                                                "a1_subsets"),
}

# an edge 0-1 and two twins 2, 3 seeing only 0: with ell = 2, a1 deletes 2
# for the P3 2-0-3, then must pick the live twin 3 for the P3 3-0-1
TWIN_FAN = (Graph(4, [(0, 1), (0, 2), (0, 3)]), VertexCover((0, 1)), (0, 1, 2, 3))


def _family_free(g, deleted, family) -> bool:
    residual, _ = g.induced(v for v in range(g.n) if v not in deleted)
    return not any(is_induced_subgraph(residual, p) for p in family.members)


def _check_route(route, fam, case, ell, rnd):
    family = FAMILIES[fam]
    g, X, order = case
    ell = min(ell, X.K)
    out = ROUTES[route](make_stream(g, AL, order), X, ell, family)
    expected = solve_pifree_explicit(make_stream(g, AL, order), X, ell, family).feasible
    assert out.feasible == expected
    if g.n <= PI_FREE_LIMIT:
        assert out.feasible == (brute_min_deletion(g, family)[0] <= ell)
    if not out.feasible:
        return
    deleted = frozenset(out.solution)
    assert len(deleted) <= ell
    assert _family_free(g, deleted, family)
    cover = X.member_set()
    for d in sorted(deleted - cover):
        twins = [t for t in range(g.n) if t not in cover and t not in deleted
                 and g.neighbors(t) & cover == g.neighbors(d) & cover]
        if twins:
            assert _family_free(g, deleted - {d} | {rnd.choice(twins)}, family)


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("route", ["a1", "ecenum"])
@settings(max_examples=40, deadline=None)
@given(case=planted_covers(max_n=40, max_k=4), ell=st.integers(0, 2),
       rnd=st.randoms(use_true_random=False))
@example(case=TWIN_FAN, ell=2, rnd=random.Random(0))
def test_route_agrees_with_family_solver_to_40(route, fam, case, ell, rnd):
    _check_route(route, fam, case, ell, rnd)


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("route", ["a2", "a1sub"])
@settings(max_examples=40, deadline=None)
@given(case=planted_covers(max_n=16, max_k=4), ell=st.integers(0, 2),
       rnd=st.randoms(use_true_random=False))
@example(case=TWIN_FAN, ell=2, rnd=random.Random(0))
def test_route_agrees_with_family_solver_to_16(route, fam, case, ell, rnd):
    _check_route(route, fam, case, ell, rnd)


@pytest.mark.parametrize("fam", FAMILIES)
@settings(max_examples=60, deadline=None)
@given(case=twin_classes(max_n=40, max_k=4), ell=st.integers(0, 4),
       rnd=st.randoms(use_true_random=False))
def test_a1_deletes_twins_to_40(fam, case, ell, rnd):
    _check_route("a1", fam, case, ell, rnd)


@pytest.mark.parametrize("fam", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(case=st.one_of(planted_covers(max_n=40, max_k=4), twin_classes(max_n=40, max_k=4)),
       ell=st.integers(0, 4), rnd=st.randoms(use_true_random=False))
def test_ecenum_to_ell_k(fam, case, ell, rnd):
    _check_route("ecenum", fam, case, ell, rnd)


@pytest.mark.parametrize("ell", [0, 1])
def test_a2_on_substream_matches_fresh_stream(ell):
    # a2 takes its outside vertices from the blocks it is given: on a
    # substream kept to X plus 4 outside vertices it must run exactly as on
    # a fresh stream of the induced graph, whose ids keep the same order
    family = FAMILIES["P4C4"]
    for seed in range(60):
        g, X = gen_planted(PlantedSpec(n=12, k=3, edge_prob=0.5, seed=seed))
        outside = [v for v in range(g.n) if v not in X.member_set()]
        keep = set(X.members).union(random.Random(seed).sample(outside, 4))
        sub_g, old = g.induced(keep)
        new = {v: i for i, v in enumerate(old)}
        a = ROUTES["a2"](filtered_substream(make_stream(g, AL), keep), X, ell, family)
        b = ROUTES["a2"](make_stream(sub_g, AL), VertexCover(tuple(new[x] for x in X.members)),
                         ell, family)
        assert (a.verdict, a.passes, a.peak_words) == (b.verdict, b.passes, b.peak_words)
        assert sorted(old[v] for v in b.solution) == sorted(a.solution)
